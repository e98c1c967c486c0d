package main

import (
	"fmt"
	"math/big"
	"slices"
	"time"

	enumtrees "repro"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/counting"
	"repro/internal/enumerate"
	"repro/internal/forest"
	"repro/internal/tree"
)

// The shadow pipeline gives the traced run its layer split. It keeps its
// own forest and its own per-query (box, index, counts) units, calls each
// layer's public functions in the order the engine's pipeline replay
// does, and records a span around every call. After every publication
// its work counts must equal the engine's Stats() deltas exactly,
// otherwise the split would describe a different program.

type spanID int

const (
	spForestEdit spanID = iota
	spForestDrain
	spReplay
	spReuseCheck
	spBox
	spIndex
	spUnions
	spForget
	spCircuitGamma
	spCountingGamma
	spDiff
	spDescend
	spMaterialize
	spDrain
	spTranslate
	spHomogenize
	spProgram
	spUnambiguous
	spRegisterWalk
	numSpans
)

var spanNames = [numSpans]string{
	"forest.edit", "forest.drain", "engine.replay", "circuit.reuse_check", "circuit.box",
	"enumerate.index", "counting.unions", "counting.forget", "circuit.gamma", "counting.gamma",
	"enumerate.diff", "enumerate.descend", "enumerate.materialize", "enumerate.drain",
	"tva.translate", "tva.homogenize", "circuit.program", "tva.unambiguous", "circuit.register_walk",
}

// writeSpans are the spans of the shadow's publication path; their self
// times add up to the shadow's write-path wall time.
var writeSpans = []spanID{spForestEdit, spForestDrain, spReplay, spReuseCheck, spBox, spIndex,
	spUnions, spForget, spCircuitGamma, spCountingGamma, spDiff}

type spanAgg struct {
	count       int64
	total, self time.Duration
}

type frame struct {
	id    spanID
	start time.Time
	child time.Duration
}

// tracer keeps spans in memory as per-name aggregates. A span's self time
// is its duration minus the time its child spans cover.
type tracer struct {
	stack []frame
	agg   [numSpans]spanAgg
}

func (t *tracer) begin(id spanID) {
	t.stack = append(t.stack, frame{id: id, start: time.Now()})
}

func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	a := &t.agg[f.id]
	a.count++
	a.total += d
	a.self += d - f.child
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
}

// meanSelf returns the mean self time of one span in the given unit.
func (t *tracer) meanSelf(id spanID, unit time.Duration) float64 {
	a := t.agg[id]
	if a.count == 0 {
		return 0
	}
	return float64(a.self) / float64(a.count) / float64(unit)
}

func (t *tracer) totalSelf(id spanID, unit time.Duration) float64 {
	return float64(t.agg[id].self) / float64(unit)
}

// shadowPipe mirrors one engine pipeline.
type shadowPipe struct {
	builder    *circuit.Builder
	translated int
	indexer    enumerate.Indexer
	attach     map[*forest.Node]*enumerate.IndexedBox
	counts     *counting.Evaluator[*big.Int]
	subscribed bool
	// built is the number of boxes built at the last publication.
	built int

	root      *enumerate.IndexedBox
	gamma     bitset.Set
	emptyOK   bool
	gammaRoot *circuit.Box
}

// attachNode builds the unit of one term node; t == nil (registration)
// records no per-box spans.
func (p *shadowPipe) attachNode(t *tracer, n *forest.Node) {
	var b *circuit.Box
	var l, r *enumerate.IndexedBox
	if t != nil {
		t.begin(spBox)
	}
	if n.IsLeaf() {
		b = p.builder.LeafBox(n.BinaryLabel(), n.TreeID)
	} else {
		l, r = p.attach[n.Left], p.attach[n.Right]
		b = p.builder.InnerBox(n.BinaryLabel(), tree.InvalidNode, l.Box, r.Box)
	}
	if t != nil {
		t.end()
		t.begin(spIndex)
	}
	ib := p.indexer.Wrap(b, l, r, true)
	if t != nil {
		t.end()
		t.begin(spUnions)
	}
	ib.Counts = p.counts.UnionsOf(b)
	if t != nil {
		t.end()
	}
	p.attach[n] = ib
}

// reusable is the engine's signature-pruned reuse test: a γ-neutral leaf
// relabel, or a path copy over the very same child units.
func (p *shadowPipe) reusable(n, prev *forest.Node) *enumerate.IndexedBox {
	if prev == nil {
		return nil
	}
	old, ok := p.attach[prev]
	if !ok {
		return nil
	}
	if n.IsLeaf() {
		if p.builder.LeafReusable(old.Box, n.BinaryLabel(), n.TreeID) {
			return old
		}
		return nil
	}
	if old.IsLeaf() {
		return nil
	}
	l, r := p.attach[n.Left], p.attach[n.Right]
	if l != nil && r != nil && old.Left == l && old.Right == r && old.Box.Label == n.BinaryLabel() {
		return old
	}
	return nil
}

// replay repairs the pipeline's units along one trunk delta and returns
// the boxes it built and the boxes it kept.
func (p *shadowPipe) replay(t *tracer, delta forest.TrunkDelta) (built, reused int) {
	t.begin(spReplay)
	defer t.end()
	var kept map[*circuit.Box]bool
	for i, n := range delta.Fresh {
		t.begin(spReuseCheck)
		ib := p.reusable(n, delta.PrevOf(i))
		t.end()
		if ib != nil {
			p.attach[n] = ib
			reused++
			if kept == nil {
				kept = make(map[*circuit.Box]bool, len(delta.Fresh))
			}
			kept[ib.Box] = true
			continue
		}
		p.attachNode(t, n)
		built++
	}
	for _, m := range delta.Moved {
		if _, ok := p.attach[m]; ok {
			reused += 2*m.Weight - 1
		}
	}
	for _, n := range delta.Retired {
		if ib, ok := p.attach[n]; ok {
			if !kept[ib.Box] {
				t.begin(spForget)
				p.counts.Forget(ib.Box)
				t.end()
			}
			delete(p.attach, n)
		}
	}
	p.setRoot(t, delta.Root)
	return built, reused
}

func (p *shadowPipe) setRoot(t *tracer, root *forest.Node) {
	p.root = p.attach[root]
	if p.gammaRoot == p.root.Box {
		return
	}
	t.begin(spCircuitGamma)
	p.gamma, p.emptyOK = p.builder.RootAccepting(&circuit.Circuit{Root: p.root.Box})
	t.end()
	t.begin(spCountingGamma)
	p.counts.Gamma(p.root.Box, p.gamma, p.emptyOK)
	t.end()
	p.gammaRoot = p.root.Box
}

// shadow is the traced mirror of one engine session.
type shadow struct {
	tr      *tracer
	f       *forest.Forest
	pipes   []*shadowPipe // distinct pipelines
	byQuery []*shadowPipe // per registration
	deduped int
	// initialFresh is the term built at load, drained before any query.
	initialFresh int
	// registrationBoxes counts the boxes the registration walks built.
	registrationBoxes int
	descender         enumerate.Descender
	differ            *enumerate.Differ
}

// newShadow builds the shadow's forest from its own copy of the initial
// tree and registers every query the way the engine's Register does:
// translate, homogenize, compile, dedupe by program content, then walk
// the term bottom-up.
func newShadow(tr *tracer, t *tree.Unranked, queries []query) (*shadow, error) {
	sh := &shadow{tr: tr, f: forest.New(t), differ: enumerate.NewDiffer(enumerate.ModeIndexed)}
	sh.initialFresh = len(sh.f.DrainDelta().Fresh)
	for _, q := range queries {
		tr.begin(spTranslate)
		ab, err := forest.Translate(q.automaton)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("shadow: translate %s: %w", q.spec, err)
		}
		tr.begin(spHomogenize)
		h := ab.Homogenize()
		tr.end()
		tr.begin(spProgram)
		b, err := circuit.NewBuilder(h)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("shadow: compile %s: %w", q.spec, err)
		}
		if twin := sh.twinOf(b, ab.NumStates); twin != nil {
			sh.byQuery = append(sh.byQuery, twin)
			twin.subscribed = twin.subscribed || q.subscribe
			sh.deduped++
			continue
		}
		p := &shadowPipe{
			builder:    b,
			translated: ab.NumStates,
			attach:     map[*forest.Node]*enumerate.IndexedBox{},
			counts:     counting.NewEvaluator[*big.Int](counting.Derivations{}),
			subscribed: q.subscribe,
		}
		// The engine gates direct access on this check at registration;
		// the shadow only times it.
		tr.begin(spUnambiguous)
		b.A.Unambiguous()
		tr.end()
		tr.begin(spRegisterWalk)
		sh.f.TermRoot().Walk(func(n *forest.Node) { p.attachNode(nil, n) })
		tr.end()
		sh.registrationBoxes += len(p.attach)
		p.setRoot(tr, sh.f.TermRoot())
		sh.pipes = append(sh.pipes, p)
		sh.byQuery = append(sh.byQuery, p)
	}
	return sh, nil
}

// twinOf returns the pipeline the engine's dedupe would share with b: the
// same translated state count and a content-equal program.
func (sh *shadow) twinOf(b *circuit.Builder, translated int) *shadowPipe {
	for _, p := range sh.pipes {
		if p.translated == translated && p.builder.Program().Fingerprint() == b.Program().Fingerprint() &&
			p.builder.Program().ContentEqual(b.Program()) {
			return p
		}
	}
	return nil
}

// pubWork is the shadow's work for one publication.
type pubWork struct {
	fresh, moved, built, reused int
	// diffs holds each subscribed pipeline's answer change.
	diffs map[*shadowPipe][2][]tree.Assignment
}

// apply replays one engine batch: the same edits on the shadow forest
// (whose inserted node IDs must equal the engine's), one trunk drain,
// then every distinct pipeline's repair and, for subscribed pipelines,
// the co-descent diff.
func (sh *shadow) apply(batch []enumtrees.Update, engineIDs []enumtrees.NodeID) (pubWork, error) {
	tr := sh.tr
	for i, u := range batch {
		tr.begin(spForestEdit)
		id, err := sh.edit(u)
		tr.end()
		if err != nil {
			return pubWork{}, fmt.Errorf("shadow: edit %d (%v): %w", i, u.Op, err)
		}
		if id != tree.InvalidNode && id != engineIDs[i] {
			return pubWork{}, fmt.Errorf("shadow: edit %d inserted n%d, engine n%d", i, id, engineIDs[i])
		}
	}
	tr.begin(spForestDrain)
	delta := sh.f.DrainDelta()
	tr.end()
	w := pubWork{fresh: len(delta.Fresh), moved: len(delta.Moved), diffs: map[*shadowPipe][2][]tree.Assignment{}}
	for _, p := range sh.pipes {
		p.built = 0
	}
	if delta.Empty() {
		return w, nil
	}
	for _, p := range sh.pipes {
		oldRoot, oldGamma, oldEmpty := p.root, p.gamma, p.emptyOK
		built, reused := p.replay(tr, delta)
		p.built = built
		w.built += built
		w.reused += reused
		if !p.subscribed {
			continue
		}
		if oldRoot == p.root && oldEmpty == p.emptyOK && oldGamma.Equal(p.gamma) {
			w.diffs[p] = [2][]tree.Assignment{}
			continue
		}
		tr.begin(spDiff)
		added, removed := sh.differ.Diff(oldRoot, oldGamma, oldEmpty, p.root, p.gamma, p.emptyOK)
		tr.end()
		w.diffs[p] = [2][]tree.Assignment{added, removed}
	}
	return w, nil
}

// edit applies one update to the shadow forest; it returns the inserted
// node's ID, or tree.InvalidNode.
func (sh *shadow) edit(u enumtrees.Update) (tree.NodeID, error) {
	f := sh.f
	switch u.Op {
	case enumtrees.OpRelabel:
		return tree.InvalidNode, f.Relabel(u.Node, u.Label)
	case enumtrees.OpInsertFirstChild:
		return f.InsertFirstChild(u.Node, u.Label)
	case enumtrees.OpInsertRightSibling:
		return f.InsertRightSibling(u.Node, u.Label)
	case enumtrees.OpDelete:
		return tree.InvalidNode, f.Delete(u.Node)
	case enumtrees.OpDeleteSubtree:
		return tree.InvalidNode, f.DeleteSubtree(u.Node)
	case enumtrees.OpMoveSubtreeFirstChild:
		return tree.InvalidNode, f.MoveSubtreeFirstChild(u.Node, u.Dest)
	case enumtrees.OpMoveSubtreeRightSibling:
		return tree.InvalidNode, f.MoveSubtreeRightSibling(u.Node, u.Dest)
	case enumtrees.OpInsertSubtreeFirstChild:
		return f.InsertSubtreeFirstChild(u.Node, u.Fragment)
	case enumtrees.OpInsertSubtreeRightSibling:
		return f.InsertSubtreeRightSibling(u.Node, u.Fragment)
	}
	return tree.InvalidNode, fmt.Errorf("unsupported op %v", u.Op)
}

// at reads rank j of one query by count-guided descent.
func (sh *shadow) at(query, j int) (tree.Assignment, error) {
	p := sh.byQuery[query]
	sh.tr.begin(spDescend)
	rope, err := sh.descender.AtInt(p.root, p.gamma, p.emptyOK, enumerate.ModeIndexed, j)
	sh.tr.end()
	if err != nil || rope == nil {
		return tree.Assignment{}, err
	}
	sh.tr.begin(spMaterialize)
	a := rope.Materialize()
	sh.tr.end()
	return a, nil
}

// drain enumerates one query in full and returns the answer count.
func (sh *shadow) drain(query int) int {
	p := sh.byQuery[query]
	n := 0
	sh.tr.begin(spDrain)
	for range enumerate.Assignments(p.root, p.gamma, p.emptyOK, enumerate.ModeIndexed) {
		n++
	}
	sh.tr.end()
	return n
}

// writeSelf is the summed self time of the shadow's write-path spans.
func (t *tracer) writeSelf() time.Duration {
	var d time.Duration
	for _, id := range writeSpans {
		d += t.agg[id].self
	}
	return d
}

// sameAnswers reports whether two key-sorted answer lists are equal.
func sameAnswers(a, b []tree.Assignment) bool {
	return slices.EqualFunc(a, b, func(x, y tree.Assignment) bool { return x.Key() == y.Key() })
}
