package engine

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

var alphaAB = []tree.Label{"a", "b"}

// selectB returns the standing test query: X0 selects a b-labeled node.
func selectB() *tva.Unranked { return tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0) }

// expectedB lists the keys of the expected result set of selectB on t:
// one singleton assignment per b-labeled node.
func expectedB(t *tree.Unranked) []string {
	var out []string
	for _, n := range t.Nodes() {
		if n.Label == "b" {
			out = append(out, tree.Assignment{{Var: 0, Node: n.ID}}.Normalize().Key())
		}
	}
	slices.Sort(out)
	return out
}

// resultKeys drains a snapshot into sorted assignment keys.
func resultKeys(rs iter.Seq[tree.Assignment]) []string {
	var out []string
	for a := range rs {
		out = append(out, a.Key())
	}
	slices.Sort(out)
	return out
}

// mustRegister registers q on a fresh TreeSet over ut: the one-query
// setup most tests start from.
func mustRegister(t testing.TB, ut *tree.Unranked, q *tva.Unranked, opts Options) (*TreeSet, QueryID) {
	t.Helper()
	s := NewTreeSet(ut)
	id, err := s.Register(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// mustTreeSet registers the standing selectB query on a fresh TreeSet.
func mustTreeSet(t testing.TB, ut *tree.Unranked) (*TreeSet, QueryID) {
	t.Helper()
	return mustRegister(t, ut, selectB(), Options{})
}

// edit applies one update as a batch of one, returning the created node
// (tree.InvalidNode for non-inserts) and the published MultiSnapshot.
func edit(e *Engine, u Update) (tree.NodeID, *MultiSnapshot, error) {
	m, ids, err := e.ApplyBatch([]Update{u})
	return ids[0], m, err
}

// mustEdit is edit failing the test on error.
func mustEdit(t testing.TB, e *Engine, u Update) tree.NodeID {
	t.Helper()
	v, _, err := edit(e, u)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSnapshotMatchesTree cross-checks every published snapshot against
// the tree version it was taken from, over a random single-edit stream.
func TestSnapshotMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ut := tva.RandomUnrankedTree(rng, 40, []tree.Label{"a", "b", "c"})
	e, id := mustTreeSet(t, ut)
	check := func(m *MultiSnapshot) {
		t.Helper()
		want := expectedB(e.Tree())
		if got := resultKeys(m.Query(id).Results()); !slices.Equal(got, want) {
			t.Fatalf("snapshot v%d: got %v, want %v", m.Version(), got, want)
		}
	}
	check(e.Snapshot())
	for step := 0; step < 200; step++ {
		nodes := e.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		u := Update{Node: n.ID, Label: []tree.Label{"a", "b", "c"}[rng.Intn(3)]}
		switch rng.Intn(4) {
		case 0:
			u.Op = OpRelabel
		case 1:
			u.Op = OpInsertFirstChild
		case 2:
			if n.Parent == nil {
				continue
			}
			u.Op = OpInsertRightSibling
		default:
			if !n.IsLeaf() || n.Parent == nil {
				continue
			}
			u.Op = OpDelete
		}
		_, m, err := edit(&e.Engine, u)
		if err != nil {
			t.Fatal(err)
		}
		check(m)
	}
}

// TestSnapshotIsolationMidIteration is the deterministic isolation
// check: an in-flight Results iteration, paused halfway, must be
// unaffected by updates applied in between — and the snapshot must stay
// fully re-enumerable afterwards.
func TestSnapshotIsolationMidIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ut := tva.RandomUnrankedTree(rng, 120, []tree.Label{"a", "b"})
	e, id := mustTreeSet(t, ut)

	snap := e.Snapshot().Query(id)
	want := resultKeys(snap.Results())
	if len(want) < 10 {
		t.Fatalf("test tree too small: %d results", len(want))
	}

	next, stop := iter.Pull(snap.Results())
	defer stop()
	var got []string
	for i := 0; i < len(want)/2; i++ {
		a, ok := next()
		if !ok {
			t.Fatal("iteration ended early")
		}
		got = append(got, a.Key())
	}

	// Hammer the engine: relabel every b away, insert fresh subtrees,
	// delete leaves. The paused iteration must not notice.
	for _, n := range e.Tree().Nodes() {
		if n.Label == "b" {
			mustEdit(t, &e.Engine, Update{Op: OpRelabel, Node: n.ID, Label: "a"})
		}
	}
	for i := 0; i < 30; i++ {
		mustEdit(t, &e.Engine, Update{Op: OpInsertFirstChild, Node: e.Tree().Root.ID, Label: "b"})
	}

	for {
		a, ok := next()
		if !ok {
			break
		}
		got = append(got, a.Key())
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("interleaved iteration diverged: got %d results, want %d", len(got), len(want))
	}
	// Restartability: the old snapshot still answers for its version.
	if again := resultKeys(snap.Results()); !slices.Equal(again, want) {
		t.Fatal("old snapshot changed after updates")
	}
	// And the latest snapshot sees the new state.
	if got := resultKeys(e.Snapshot().Query(id).Results()); len(got) != 30 {
		t.Fatalf("latest snapshot has %d results, want 30", len(got))
	}
}

// TestApplyBatchMatchesSequential applies the same edit stream batched
// and one-by-one: the final result sets must agree, and the batch must
// publish once with strictly less box-repair work.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ut := tva.RandomUnrankedTree(rng, 60, []tree.Label{"a", "b", "c"})

	eBatch, idB := mustTreeSet(t, ut.Clone())
	eSeq, idS := mustTreeSet(t, ut.Clone())
	if eBatch.Snapshot().Version() != 1 {
		t.Fatalf("initial version = %d, want 1", eBatch.Snapshot().Version())
	}

	// A clustered batch: relabels concentrated on few nodes, so trunks
	// overlap and batching amortizes.
	var batch []Update
	nodes := ut.Nodes()
	for i := 0; i < 24; i++ {
		n := nodes[rng.Intn(10)%len(nodes)]
		batch = append(batch, Update{Op: OpRelabel, Node: n.ID, Label: []tree.Label{"a", "b", "c"}[rng.Intn(3)]})
	}
	base := eBatch.Stats().BoxesRebuilt
	mB, _, err := eBatch.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	snapB := mB.Query(idB)
	batchWork := eBatch.Stats().BoxesRebuilt - base

	base = eSeq.Stats().BoxesRebuilt
	for _, u := range batch {
		mustEdit(t, &eSeq.Engine, u)
	}
	snapS := eSeq.Snapshot().Query(idS)
	seqWork := eSeq.Stats().BoxesRebuilt - base

	if got, want := resultKeys(snapB.Results()), resultKeys(snapS.Results()); !slices.Equal(got, want) {
		t.Fatalf("batch result %v != sequential result %v", got, want)
	}
	if snapB.Version() != 2 {
		t.Fatalf("batch published %d times, want once", snapB.Version()-1)
	}
	if batchWork >= seqWork {
		t.Fatalf("batching did not amortize: batch rebuilt %d boxes, sequential %d", batchWork, seqWork)
	}
	t.Logf("box repair: batch %d vs sequential %d (%d edits)", batchWork, seqWork, len(batch))
}

// TestApplyBatchInsertIDsAndErrors checks the ID return and the
// stop-at-first-error contract.
func TestApplyBatchInsertIDsAndErrors(t *testing.T) {
	ut := tree.NewUnranked("a")
	e, id := mustTreeSet(t, ut)

	m, ids, err := e.ApplyBatch([]Update{
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
		{Op: OpInsertRightSibling, Node: ut.Root.ID, Label: "b"}, // invalid: the root has no siblings
	})
	if err == nil {
		t.Fatal("expected error for insertR at the root")
	}
	if ids[0] < 0 {
		t.Fatal("first insert should have returned a fresh ID")
	}
	if ids[1] != tree.InvalidNode {
		t.Fatalf("unapplied position should stay InvalidNode, got %d", ids[1])
	}
	// The first edit was applied and published despite the later error.
	if got := resultKeys(m.Query(id).Results()); len(got) != 1 {
		t.Fatalf("partial batch published %d results, want 1", len(got))
	}

	m2, ids2, err := e.ApplyBatch([]Update{
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
		{Op: OpRelabel, Node: ids[0], Label: "a"},
		{Op: OpDelete, Node: ids[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids2[0] < 0 || ids2[1] != tree.InvalidNode || ids2[2] != tree.InvalidNode {
		t.Fatalf("ids = %v: only inserts return fresh IDs, -1 elsewhere", ids2)
	}
	// The old b-child was relabeled away and deleted; only the batch's
	// fresh insert remains.
	if got := resultKeys(m2.Query(id).Results()); len(got) != 1 {
		t.Fatalf("got %d results, want 1", len(got))
	}

	// Word-only operations are rejected on a tree engine.
	if _, _, err := e.ApplyBatch([]Update{{Op: OpInsertAfter, Node: 0, Label: "b"}}); err == nil {
		t.Fatal("expected error for a word op on a tree engine")
	}
}

// TestWordSetBatchAndSnapshots covers the word side: batched letter
// edits, snapshot isolation, MoveRange as one publication.
func TestWordSetBatchAndSnapshots(t *testing.T) {
	q := &tva.WVA{
		NumStates: 2,
		Alphabet:  alphaAB,
		Vars:      tree.NewVarSet(0),
		Initial:   []tva.State{0},
		Final:     []tva.State{1},
	}
	// Accept any word with exactly one marked b (X0 on it).
	for _, l := range alphaAB {
		q.Trans = append(q.Trans,
			tva.WTrans{From: 0, Label: l, Set: 0, To: 0},
			tva.WTrans{From: 1, Label: l, Set: 0, To: 1},
		)
	}
	q.Trans = append(q.Trans, tva.WTrans{From: 0, Label: "b", Set: tree.NewVarSet(0), To: 1})

	e, err := NewWordSet([]tree.Label{"a", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Register(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot().Query(id)
	if before.Count() != 1 {
		t.Fatalf("initial count = %d, want 1", before.Count())
	}

	ids, _ := e.Word()
	m, newIDs, err := e.ApplyBatch([]Update{
		{Op: OpInsertAfter, Node: ids[2], Label: "b"},
		{Op: OpInsertBefore, Node: ids[0], Label: "b"},
		{Op: OpRelabel, Node: ids[1], Label: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Query(id)
	if newIDs[0] == newIDs[1] {
		t.Fatal("insert IDs must be distinct")
	}
	if snap.Count() != 2 {
		t.Fatalf("after batch count = %d, want 2", snap.Count())
	}
	if before.Count() != 1 {
		t.Fatal("old word snapshot changed after batch")
	}
	if snap.Version() != before.Version()+1 {
		t.Fatalf("batch published %d snapshots, want 1", snap.Version()-before.Version())
	}

	// MoveRange: one publication, stable IDs.
	v := snap.Version()
	_, mm, err := edit(&e.Engine, Update{Op: OpMoveRange, From: 0, K: 2, To: 2})
	if err != nil {
		t.Fatal(err)
	}
	moved := mm.Query(id)
	if moved.Version() != v+1 {
		t.Fatalf("MoveRange published %d snapshots, want 1", moved.Version()-v)
	}
	if moved.Count() != 2 {
		t.Fatalf("after move count = %d, want 2", moved.Count())
	}
}

// TestRangeInsertIDs checks the ID contract of the word range inserts:
// ApplyBatch reports the FIRST fresh letter of an OpInsertRange /
// OpConcat, and the range's letters carry consecutive IDs from it.
func TestRangeInsertIDs(t *testing.T) {
	ws, err := NewWordSet([]tree.Label{"a", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	_, ids, err := ws.ApplyBatch([]Update{
		{Op: OpInsertRange, From: 1, Labels: []tree.Label{"b", "b", "a"}},
		{Op: OpRelabel, Node: 0, Label: "b"},
		{Op: OpConcat, Labels: []tree.Label{"a", "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[1] != tree.InvalidNode {
		t.Fatalf("relabel reported ID %d", ids[1])
	}
	letters, labels := ws.Word()
	for _, r := range []struct{ batchPos, wordPos, n int }{{0, 1, 3}, {2, 6, 2}} {
		for k := range r.n {
			if got, want := letters[r.wordPos+k], ids[r.batchPos]+tree.NodeID(k); got != want {
				t.Fatalf("batch position %d: letter %d has ID %d, want %d (word %v)",
					r.batchPos, r.wordPos+k, got, want, labels)
			}
		}
	}
}

// TestStatsAndVersioning sanity-checks the monotone version counter and
// the lazily computed stats.
func TestStatsAndVersioning(t *testing.T) {
	ut := tree.NewUnranked("a")
	e, id := mustTreeSet(t, ut)
	var last uint64
	for i := 0; i < 5; i++ {
		mustEdit(t, &e.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"})
		snap := e.Snapshot().Query(id)
		if snap.Version() <= last {
			t.Fatalf("version not increasing: %d after %d", snap.Version(), last)
		}
		last = snap.Version()
		st := snap.Stats()
		if st.Boxes == 0 || st.BoxesRebuilt == 0 {
			t.Fatalf("stats empty: %+v", st)
		}
		if st2 := snap.Stats(); st2 != st {
			t.Fatal("stats not stable across calls")
		}
	}
}

// TestAttachTracksLiveTerm verifies the eager-release bookkeeping: after
// a long random edit storm (including inserts, deletes and the scapegoat
// rebuilds they trigger) the attachment map must hold exactly one frozen
// wrapper per live term node — no leaked superseded entries, no missing
// live ones.
func TestAttachTracksLiveTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ut := tva.RandomUnrankedTree(rng, 30, []tree.Label{"a", "b"})
	e, id := mustTreeSet(t, ut)
	labels := []tree.Label{"a", "b"}
	for i := 0; i < 3000; i++ {
		nodes := e.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		u := Update{Node: n.ID, Label: labels[rng.Intn(2)]}
		switch rng.Intn(4) {
		case 0:
			u.Op = OpRelabel
		case 1:
			u.Op = OpInsertFirstChild
		case 2:
			if n.Parent == nil {
				continue
			}
			u.Op = OpInsertRightSibling
		default:
			if !n.IsLeaf() || n.Parent == nil {
				continue
			}
			u.Op = OpDelete
		}
		mustEdit(t, &e.Engine, u)
	}
	attach := e.pipes[id].attach
	live := 0
	var rec func(n *forest.Node)
	rec = func(n *forest.Node) {
		if n == nil {
			return
		}
		live++
		if attach[n] == nil {
			t.Fatalf("live term node %v has no attachment", n.Op)
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(e.f.TermRoot())
	if len(attach) != live {
		t.Fatalf("attach map has %d entries for %d live term nodes (leak)", len(attach), live)
	}
	want := expectedB(e.Tree())
	if got := resultKeys(e.Snapshot().Query(id).Results()); !slices.Equal(got, want) {
		t.Fatalf("post-storm results wrong: got %d, want %d", len(got), len(want))
	}
}

func ExampleEngine_ApplyBatch() {
	ut := tree.NewUnranked("a")
	s := NewTreeSet(ut)
	id, _ := s.Register(tva.SelectLabel([]tree.Label{"a", "b"}, "b", 0), Options{})
	m, _, _ := s.ApplyBatch([]Update{
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
		{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "b"},
	})
	fmt.Println(m.Query(id).Count())
	// Output: 2
}
