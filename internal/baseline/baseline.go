// Package baseline implements the comparison algorithms that reproduce
// the Table 1 landscape and the combined-complexity contrast of
// experiment E5:
//
//   - RebuildEnumerator: updates recompute the whole enumeration
//     structure from scratch (linear update time) — the static
//     algorithms of Bagan / Kazana-Segoufin made update-aware naively;
//   - NaiveDelay: the paper's own pipeline but with the naive box
//     enumeration, whose delay grows with the circuit depth — the
//     polylog-delay regime of Losemann-Martens;
//   - DeterminizeFirst: determinizes the query automaton before running
//     the pipeline — the prior-work requirement the paper's combined
//     tractability removes (exponential in |Q|).
package baseline

import (
	"iter"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

// RebuildEnumerator re-runs the full preprocessing on every update. Its
// enumeration matches the paper's (indexed, constant delay); only the
// update cost differs: Θ(|T|) per edit.
type RebuildEnumerator struct {
	t    *tree.Unranked
	q    *tva.Unranked
	snap *engine.Snapshot
	opts engine.Options
}

// NewRebuildEnumerator preprocesses once.
func NewRebuildEnumerator(t *tree.Unranked, q *tva.Unranked, opts engine.Options) (*RebuildEnumerator, error) {
	r := &RebuildEnumerator{t: t, q: q, opts: opts}
	if err := r.rebuild(); err != nil {
		return nil, err
	}
	return r, nil
}

// rebuild preprocesses a copy of the current tree from scratch: a fresh
// one-query engine, of which only the published snapshot is kept.
func (r *RebuildEnumerator) rebuild() error {
	s := engine.NewTreeSet(r.t.Clone())
	id, err := s.Register(r.q, r.opts)
	if err != nil {
		return err
	}
	r.snap = s.Snapshot().Query(id)
	return nil
}

// Tree returns the maintained tree.
func (r *RebuildEnumerator) Tree() *tree.Unranked { return r.t }

// Relabel edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) Relabel(id tree.NodeID, l tree.Label) error {
	if err := r.t.Relabel(id, l); err != nil {
		return err
	}
	return r.rebuild()
}

// InsertFirstChild edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) InsertFirstChild(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	v, err := r.t.InsertFirstChild(id, l)
	if err != nil {
		return 0, err
	}
	return v.ID, r.rebuild()
}

// InsertRightSibling edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) InsertRightSibling(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	v, err := r.t.InsertRightSibling(id, l)
	if err != nil {
		return 0, err
	}
	return v.ID, r.rebuild()
}

// Delete edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) Delete(id tree.NodeID) error {
	if err := r.t.Delete(id); err != nil {
		return err
	}
	return r.rebuild()
}

// DeleteSubtree edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) DeleteSubtree(id tree.NodeID) error {
	if _, _, err := r.t.DeleteSubtree(id); err != nil {
		return err
	}
	return r.rebuild()
}

// MoveSubtreeFirstChild edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) MoveSubtreeFirstChild(id, dest tree.NodeID) error {
	if err := r.t.MoveSubtreeFirstChild(id, dest); err != nil {
		return err
	}
	return r.rebuild()
}

// MoveSubtreeRightSibling edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) MoveSubtreeRightSibling(id, dest tree.NodeID) error {
	if err := r.t.MoveSubtreeRightSibling(id, dest); err != nil {
		return err
	}
	return r.rebuild()
}

// InsertSubtreeFirstChild edits the tree and rebuilds from scratch. The
// grafted copy's node IDs match the engine's only if both sides consume
// IDs in lockstep, which holds when the same edit script drives both.
func (r *RebuildEnumerator) InsertSubtreeFirstChild(id tree.NodeID, frag *tree.Unranked) (tree.NodeID, error) {
	v, err := r.t.GraftFirstChild(id, frag)
	if err != nil {
		return 0, err
	}
	return v.ID, r.rebuild()
}

// InsertSubtreeRightSibling edits the tree and rebuilds from scratch.
func (r *RebuildEnumerator) InsertSubtreeRightSibling(id tree.NodeID, frag *tree.Unranked) (tree.NodeID, error) {
	v, err := r.t.GraftRightSibling(id, frag)
	if err != nil {
		return 0, err
	}
	return v.ID, r.rebuild()
}

// Results enumerates on the current structure.
func (r *RebuildEnumerator) Results() iter.Seq[tree.Assignment] { return r.snap.Results() }

// Count returns the number of results (see engine.Snapshot.Count).
func (r *RebuildEnumerator) Count() int { return r.snap.Count() }

// DeterminizeFirstStats preprocesses the query by translating it to the
// binary term alphabet and then determinizing, returning the state and
// transition counts of both routes. Experiment E5 sweeps |Q| and shows
// the nondeterministic route staying polynomial while determinization
// explodes; the numbers themselves are the result (the determinized
// automaton still runs through the same pipeline).
type DeterminizeFirstStats struct {
	NondetStates int
	NondetSize   int
	DetStates    int
	DetSize      int
}

// DeterminizeFirst translates and then determinizes the query automaton,
// returning the determinized binary TVA and the size comparison.
func DeterminizeFirst(q *tva.Unranked) (*tva.Binary, DeterminizeFirstStats, error) {
	nb, err := forest.Translate(q)
	if err != nil {
		return nil, DeterminizeFirstStats{}, err
	}
	db := tva.Determinize(nb).Trim()
	return db, DeterminizeFirstStats{
		NondetStates: nb.NumStates,
		NondetSize:   nb.Size(),
		DetStates:    db.NumStates,
		DetSize:      db.Size(),
	}, nil
}

// StaticBinaryRelabel is the [Amarilli-Bourhis-Mengel 2018] style
// comparison point: a circuit built directly on a binary tree (no forest
// encoding), supporting only relabel updates with cost proportional to
// the depth of that tree. Used by the E8 ablation.
type StaticBinaryRelabel struct {
	builder *circuit.Builder
	tree    *tree.Binary
	boxes   map[*tree.BNode]*enumerate.IndexedBox
	parents map[*tree.BNode]*tree.BNode
	root    *enumerate.IndexedBox
	mode    enumerate.Mode
}

// NewStaticBinaryRelabel builds the circuit bottom-up on the binary tree
// as-is.
func NewStaticBinaryRelabel(t *tree.Binary, a *tva.Binary, mode enumerate.Mode) (*StaticBinaryRelabel, error) {
	h := a
	if !a.Homogenized {
		h = a.Homogenize()
	}
	bd, err := circuit.NewBuilder(h)
	if err != nil {
		return nil, err
	}
	s := &StaticBinaryRelabel{
		builder: bd,
		tree:    t,
		boxes:   map[*tree.BNode]*enumerate.IndexedBox{},
		parents: map[*tree.BNode]*tree.BNode{},
		mode:    mode,
	}
	indexed := mode == enumerate.ModeIndexed
	var rec func(n *tree.BNode) *enumerate.IndexedBox
	rec = func(n *tree.BNode) *enumerate.IndexedBox {
		var b *enumerate.IndexedBox
		if n.IsLeaf() {
			b = enumerate.Wrap(bd.LeafBox(n.Label, n.ID), nil, nil, indexed)
		} else {
			s.parents[n.Left] = n
			s.parents[n.Right] = n
			l, r := rec(n.Left), rec(n.Right)
			b = enumerate.Wrap(bd.InnerBox(n.Label, n.ID, l.Box, r.Box), l, r, indexed)
		}
		s.boxes[n] = b
		return b
	}
	s.root = rec(t.Root)
	return s, nil
}

// Relabel updates a node label and rebuilds the boxes on the path to the
// root: O(depth(T)·poly(|Q|)), the cost the balanced encoding avoids.
func (s *StaticBinaryRelabel) Relabel(n *tree.BNode, l tree.Label) {
	n.Label = l
	indexed := s.mode == enumerate.ModeIndexed
	for cur := n; cur != nil; cur = s.parents[cur] {
		var b *enumerate.IndexedBox
		if cur.IsLeaf() {
			b = enumerate.Wrap(s.builder.LeafBox(cur.Label, cur.ID), nil, nil, indexed)
		} else {
			l, r := s.boxes[cur.Left], s.boxes[cur.Right]
			b = enumerate.Wrap(s.builder.InnerBox(cur.Label, cur.ID, l.Box, r.Box), l, r, indexed)
		}
		s.boxes[cur] = b
	}
	s.root = s.boxes[s.tree.Root]
}

// Results enumerates the satisfying assignments.
func (s *StaticBinaryRelabel) Results() iter.Seq[tree.Assignment] {
	gamma, emptyOK := s.builder.RootAccepting(&circuit.Circuit{Root: s.root.Box})
	return enumerate.Assignments(s.root, gamma, emptyOK, s.mode)
}

// Count drains Results.
func (s *StaticBinaryRelabel) Count() int {
	n := 0
	for range s.Results() {
		n++
	}
	return n
}
