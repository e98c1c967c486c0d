package workload

import (
	"repro/internal/engine"
	"repro/internal/tree"
)

// SetMutator drives a TreeSet from the edit streams of this package:
// each method applies one update as a batch of one (one publication per
// edit), dropping the published snapshot.
type SetMutator struct{ *engine.TreeSet }

func (m SetMutator) apply(u engine.Update) (tree.NodeID, error) {
	_, ids, err := m.ApplyBatch([]engine.Update{u})
	return ids[0], err
}

// Relabel implements TreeMutator.
func (m SetMutator) Relabel(id tree.NodeID, l tree.Label) error {
	_, err := m.apply(engine.Update{Op: engine.OpRelabel, Node: id, Label: l})
	return err
}

// InsertFirstChild implements TreeMutator.
func (m SetMutator) InsertFirstChild(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	return m.apply(engine.Update{Op: engine.OpInsertFirstChild, Node: id, Label: l})
}

// InsertRightSibling implements TreeMutator.
func (m SetMutator) InsertRightSibling(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	return m.apply(engine.Update{Op: engine.OpInsertRightSibling, Node: id, Label: l})
}

// Delete implements TreeMutator.
func (m SetMutator) Delete(id tree.NodeID) error {
	_, err := m.apply(engine.Update{Op: engine.OpDelete, Node: id})
	return err
}

// DeleteSubtree implements StructuralTreeMutator.
func (m SetMutator) DeleteSubtree(id tree.NodeID) error {
	_, err := m.apply(engine.Update{Op: engine.OpDeleteSubtree, Node: id})
	return err
}

// MoveSubtreeFirstChild implements StructuralTreeMutator.
func (m SetMutator) MoveSubtreeFirstChild(id, dest tree.NodeID) error {
	_, err := m.apply(engine.Update{Op: engine.OpMoveSubtreeFirstChild, Node: id, Dest: dest})
	return err
}

// MoveSubtreeRightSibling implements StructuralTreeMutator.
func (m SetMutator) MoveSubtreeRightSibling(id, dest tree.NodeID) error {
	_, err := m.apply(engine.Update{Op: engine.OpMoveSubtreeRightSibling, Node: id, Dest: dest})
	return err
}

// InsertSubtreeFirstChild implements StructuralTreeMutator.
func (m SetMutator) InsertSubtreeFirstChild(id tree.NodeID, frag *tree.Unranked) (tree.NodeID, error) {
	return m.apply(engine.Update{Op: engine.OpInsertSubtreeFirstChild, Node: id, Fragment: frag})
}

// InsertSubtreeRightSibling implements StructuralTreeMutator.
func (m SetMutator) InsertSubtreeRightSibling(id tree.NodeID, frag *tree.Unranked) (tree.NodeID, error) {
	return m.apply(engine.Update{Op: engine.OpInsertSubtreeRightSibling, Node: id, Fragment: frag})
}
