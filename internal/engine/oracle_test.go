package engine

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/counting"
	"repro/internal/enumerate"
	"repro/internal/tree"
	"repro/internal/tva"
)

// This file checks the whole pipeline — translate, homogenize, encode,
// circuit, index, enumerate, counting — against brute-force oracles
// (tva.Unranked/WVA.SatisfyingAssignments) on small random inputs, static
// and under single-edit scripts driven through ApplyBatch.

func sameResults(t *testing.T, ctx string, want map[string]tree.Assignment, got []tree.Assignment) {
	t.Helper()
	gotSet := map[string]bool{}
	for _, a := range got {
		k := a.Key()
		if gotSet[k] {
			t.Fatalf("%s: duplicate result %v", ctx, a)
		}
		gotSet[k] = true
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: spurious result %v", ctx, a)
		}
	}
	if len(gotSet) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(gotSet), len(want))
	}
}

// mustWordSet registers q on a fresh WordSet over letters.
func mustWordSet(t testing.TB, letters []tree.Label, q *tva.WVA, opts Options) (*WordSet, QueryID) {
	t.Helper()
	s, err := NewWordSet(letters)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Register(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, id
}

// randomTreeEdit draws one leaf edit of Definition 7.1 at a random node
// of s's tree; ok is false when the drawn op does not apply there (a
// sibling of the root, a delete of an inner node) or would grow the
// tree past maxSize.
func randomTreeEdit(rng *rand.Rand, s *TreeSet, maxSize int) (u Update, ok bool) {
	nodes := s.Tree().Nodes()
	n := nodes[rng.Intn(len(nodes))]
	u = Update{Node: n.ID, Label: alphaAB[rng.Intn(2)]}
	switch rng.Intn(4) {
	case 0:
		u.Op = OpRelabel
	case 1:
		u.Op = OpInsertFirstChild
		return u, s.Tree().Size() < maxSize
	case 2:
		u.Op = OpInsertRightSibling
		return u, s.Tree().Size() < maxSize && n.Parent != nil
	default:
		u.Op = OpDelete
		return u, n.IsLeaf() && n.Parent != nil
	}
	return u, true
}

// TestStaticMatchesOracle runs the full pipeline against the brute-force
// oracle on random trees and random stepwise TVAs.
func TestStaticMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		q := tva.RandomUnranked(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0), 0.4)
		ut := tva.RandomUnrankedTree(rng, 1+rng.Intn(6), alphaAB)
		want, err := q.SatisfyingAssignments(ut, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []enumerate.Mode{enumerate.ModeIndexed, enumerate.ModeNaive} {
			s, id := mustRegister(t, ut.Clone(), q, Options{Mode: mode})
			sameResults(t, "static", want, s.Snapshot().Query(id).All())
		}
	}
}

// TestDynamicFuzz is the cornerstone test of the whole reproduction:
// random edits through the engine must keep its results equal to the
// from-scratch brute force after every single update.
func TestDynamicFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 12; trial++ {
		q := tva.RandomUnranked(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0), 0.4)
		s, id := mustRegister(t, tva.RandomUnrankedTree(rng, 1+rng.Intn(4), alphaAB), q, Options{})
		for step := 0; step < 25; step++ {
			if u, ok := randomTreeEdit(rng, s, 7); ok {
				mustEdit(t, &s.Engine, u)
			}
			want, err := q.SatisfyingAssignments(s.Tree(), 7)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "dynamic", want, s.Snapshot().Query(id).All())
		}
	}
}

// TestMarkedAncestorDynamic follows the Theorem 9.2 reduction scenario:
// marks toggle via relabelings, queries run via enumeration.
func TestMarkedAncestorDynamic(t *testing.T) {
	ut, err := tree.ParseUnranked("(u (u (u (u (u)))))")
	if err != nil {
		t.Fatal(err)
	}
	nodes := ut.Nodes()
	deepest := nodes[len(nodes)-1]
	s, id := mustRegister(t, ut, tva.MarkedAncestor("m", "u", "s", 0), Options{})
	relabel := func(n tree.NodeID, l tree.Label) *Snapshot {
		_, m, err := edit(&s.Engine, Update{Op: OpRelabel, Node: n, Label: l})
		if err != nil {
			t.Fatal(err)
		}
		return m.Query(id)
	}
	// Make the deepest node special: no marked ancestor yet.
	if c := relabel(deepest.ID, "s").Count(); c != 0 {
		t.Fatalf("no mark set, count = %d", c)
	}
	// Mark the root: now the special node qualifies.
	res := relabel(s.Tree().Root.ID, "m").All()
	if len(res) != 1 || res[0][0].Node != deepest.ID {
		t.Fatalf("results = %v, want the special node", res)
	}
	// Unmark: back to zero.
	if relabel(s.Tree().Root.ID, "u").NonEmpty() {
		t.Fatal("unmarked, still nonempty")
	}
}

// TestSelectLabelGrows checks result counts track inserts on a larger
// tree, and that stats stay sane.
func TestSelectLabelGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, id := mustRegister(t, tree.NewUnranked("b"), tva.SelectLabel(alphaAB, "a", 0), Options{})
	aCount := 0
	ids := []tree.NodeID{s.Tree().Root.ID}
	for i := 0; i < 200; i++ {
		l := alphaAB[rng.Intn(2)]
		if l == "a" {
			aCount++
		}
		v, m, err := edit(&s.Engine, Update{Op: OpInsertFirstChild, Node: ids[rng.Intn(len(ids))], Label: l})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v)
		if got := m.Query(id).Count(); got != aCount {
			t.Fatalf("step %d: count %d, want %d", i, got, aCount)
		}
	}
	snap := s.Snapshot().Query(id)
	st := snap.Stats()
	// The term has one leaf per tree node and one internal node per
	// operator: 2n-1 boxes in total.
	if st.Boxes != 2*s.Tree().Size()-1 {
		t.Fatalf("boxes %d != 2·%d-1", st.Boxes, s.Tree().Size())
	}
	if st.CircuitWidth > st.AutomatonStates {
		t.Fatalf("width %d > |Q'| %d", st.CircuitWidth, st.AutomatonStates)
	}
	// Each result is a single singleton selecting an a-node.
	for _, asg := range snap.All() {
		if len(asg) != 1 {
			t.Fatalf("assignment %v", asg)
		}
		if s.Tree().Node(asg[0].Node).Label != "a" {
			t.Fatalf("selected non-a node")
		}
	}
}

// TestWordMatchesOracle fuzzes the Theorem 8.5 pipeline.
func TestWordMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		q := randomWVA(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0))
		letters := make([]tree.Label, 1+rng.Intn(5))
		for i := range letters {
			letters[i] = alphaAB[rng.Intn(2)]
		}
		s, id := mustWordSet(t, letters, q, Options{})
		for step := 0; step < 20; step++ {
			ids, _ := s.Word()
			n := ids[rng.Intn(len(ids))]
			switch rng.Intn(3) {
			case 0:
				mustEdit(t, &s.Engine, Update{Op: OpRelabel, Node: n, Label: alphaAB[rng.Intn(2)]})
			case 1:
				if len(ids) < 7 {
					mustEdit(t, &s.Engine, Update{Op: OpInsertAfter, Node: n, Label: alphaAB[rng.Intn(2)]})
				}
			default:
				if len(ids) > 1 {
					mustEdit(t, &s.Engine, Update{Op: OpDelete, Node: n})
				}
			}
			ids, labs := s.Word()
			want, err := q.SatisfyingAssignments(labs, ids, 8)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "word", want, s.Snapshot().Query(id).All())
		}
	}
}

func randomWVA(rng *rand.Rand, states int, alpha []tree.Label, vars tree.VarSet) *tva.WVA {
	a := &tva.WVA{NumStates: states, Alphabet: alpha, Vars: vars}
	subsets := []tree.VarSet{}
	tree.SubsetsOf(vars, func(s tree.VarSet) { subsets = append(subsets, s) })
	for q := 0; q < states; q++ {
		for _, l := range alpha {
			for _, s := range subsets {
				for p := 0; p < states; p++ {
					if rng.Float64() < 0.4 {
						a.Trans = append(a.Trans, tva.WTrans{From: tva.State(q), Label: l, Set: s, To: tva.State(p)})
					}
				}
			}
		}
	}
	a.Initial = []tva.State{tva.State(rng.Intn(states))}
	a.Final = []tva.State{tva.State(rng.Intn(states))}
	return a
}

// TestUpdateCostLogarithmic checks Lemma 7.3 empirically: boxes rebuilt
// per update stay around O(log n) on a large tree.
func TestUpdateCostLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ut := tva.RandomUnrankedTree(rng, 4000, alphaAB)
	s, _ := mustRegister(t, ut, tva.SelectLabel(alphaAB, "a", 0), Options{})
	base := s.Stats().BoxesRebuilt
	edits := 0
	leaves := []tree.NodeID{}
	for _, n := range s.Tree().Nodes() {
		if n.IsLeaf() && n.Parent != nil {
			leaves = append(leaves, n.ID)
		}
	}
	for i := 0; i < 400; i++ {
		switch rng.Intn(3) {
		case 0:
			nodes := s.Tree().Nodes()
			mustEdit(t, &s.Engine, Update{Op: OpRelabel, Node: nodes[rng.Intn(len(nodes))].ID, Label: alphaAB[rng.Intn(2)]})
		case 1:
			nodes := s.Tree().Nodes()
			mustEdit(t, &s.Engine, Update{Op: OpInsertFirstChild, Node: nodes[rng.Intn(len(nodes))].ID, Label: "a"})
		default:
			if len(leaves) > 0 {
				id := leaves[len(leaves)-1]
				leaves = leaves[:len(leaves)-1]
				if n := s.Tree().Node(id); n != nil && n.IsLeaf() {
					mustEdit(t, &s.Engine, Update{Op: OpDelete, Node: id})
				}
			}
		}
		edits++
	}
	perEdit := float64(s.Stats().BoxesRebuilt-base) / float64(edits)
	// log2(4000) ≈ 12; allow a generous constant for the amortized
	// scapegoat rebuilds.
	if perEdit > 160 {
		t.Fatalf("boxes rebuilt per edit = %.1f, too large", perEdit)
	}
}

// TestSingleNodeTree covers the smallest input.
func TestSingleNodeTree(t *testing.T) {
	ut := tree.NewUnranked("a")
	s, id := mustRegister(t, ut, tva.SelectLabel(alphaAB, "a", 0), Options{})
	res := s.Snapshot().Query(id).All()
	if len(res) != 1 || len(res[0]) != 1 || res[0][0].Node != ut.Root.ID {
		t.Fatalf("results = %v", res)
	}
	// Relabel the root away and back.
	if _, m, err := edit(&s.Engine, Update{Op: OpRelabel, Node: ut.Root.ID, Label: "b"}); err != nil || m.Query(id).Count() != 0 {
		t.Fatalf("b root should not match (err %v)", err)
	}
	if _, m, err := edit(&s.Engine, Update{Op: OpRelabel, Node: ut.Root.ID, Label: "a"}); err != nil || m.Query(id).Count() != 1 {
		t.Fatalf("a root should match again (err %v)", err)
	}
}

// TestUnsatisfiableQuery covers an automaton with no accepting states
// after trimming.
func TestUnsatisfiableQuery(t *testing.T) {
	q := tva.SelectLabel(alphaAB, "a", 0)
	q.Final = nil // never accepts
	ut, _ := tree.ParseUnranked("(a (b) (a))")
	s, id := mustRegister(t, ut, q, Options{})
	if s.Snapshot().Query(id).NonEmpty() {
		t.Fatal("unsatisfiable query returned results")
	}
	if _, m, err := edit(&s.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "a"}); err != nil || m.Query(id).Count() != 0 {
		t.Fatalf("still unsatisfiable (err %v)", err)
	}
}

// TestBooleanQueryEmptyAssignment covers queries whose only answer is
// the empty assignment (Boolean acceptance).
func TestBooleanQueryEmptyAssignment(t *testing.T) {
	ut, _ := tree.ParseUnranked("(a (b) (b))")
	s, id := mustRegister(t, ut, tva.LeafCount(alphaAB, 2, 0), Options{}) // even number of leaves
	res := s.Snapshot().Query(id).All()
	if len(res) != 1 || len(res[0]) != 0 {
		t.Fatalf("want exactly the empty assignment, got %v", res)
	}
	// One more leaf: odd, rejected.
	if _, m, err := edit(&s.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "a"}); err != nil || m.Query(id).Count() != 0 {
		t.Fatalf("odd leaf count accepted (err %v)", err)
	}
}

// TestTwoVariableQueryDynamic fuzzes a two-variable query through edits.
func TestTwoVariableQueryDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// X0 selects an a-node, X1 selects a b-node.
	qa := tva.Cylindrify(tva.SelectLabel(alphaAB, "a", 0), tree.NewVarSet(0, 1))
	qb := tva.Cylindrify(tva.SelectLabel(alphaAB, "b", 1), tree.NewVarSet(0, 1))
	q := tva.IntersectUnranked(qa, qb)
	s, id := mustRegister(t, tva.RandomUnrankedTree(rng, 4, alphaAB), q, Options{})
	for step := 0; step < 20; step++ {
		if u, ok := randomTreeEdit(rng, s, 6); ok && u.Op != OpInsertRightSibling {
			mustEdit(t, &s.Engine, u)
		}
		want, err := q.SatisfyingAssignments(s.Tree(), 6)
		if err != nil {
			t.Fatal(err)
		}
		all := s.Snapshot().Query(id).All()
		sameResults(t, "twovar", want, all)
		// Every result has exactly two singletons.
		for _, asg := range all {
			if len(asg) != 2 {
				t.Fatalf("assignment %v", asg)
			}
		}
	}
}

// TestEarlyStopThenRestart checks that abandoning an enumeration
// mid-stream leaves the structure intact.
func TestEarlyStopThenRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ut := tva.RandomUnrankedTree(rng, 200, alphaAB)
	s, id := mustRegister(t, ut, tva.SelectLabel(alphaAB, "a", 0), Options{})
	snap := s.Snapshot().Query(id)
	full := snap.Count()
	// Abandon after 3 results, several times.
	for round := 0; round < 5; round++ {
		k := 0
		for range snap.Results() {
			if k++; k == 3 {
				break
			}
		}
	}
	if n := len(snap.All()); n != full {
		t.Fatalf("early stop corrupted enumeration: %d results, want %d", n, full)
	}
	// And after an edit.
	if _, m, err := edit(&s.Engine, Update{Op: OpInsertFirstChild, Node: ut.Root.ID, Label: "a"}); err != nil || m.Query(id).Count() != full+1 {
		t.Fatalf("count after edit wrong (err %v)", err)
	}
}

// TestNaiveModeDynamic runs the dynamic fuzz in naive mode too (no
// index maintained).
func TestNaiveModeDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := tva.RandomUnranked(rng, 2, alphaAB, tree.NewVarSet(0), 0.5)
	s, id := mustRegister(t, tva.RandomUnrankedTree(rng, 4, alphaAB), q, Options{Mode: enumerate.ModeNaive})
	for step := 0; step < 15; step++ {
		nodes := s.Tree().Nodes()
		n := nodes[rng.Intn(len(nodes))]
		u := Update{Op: OpRelabel, Node: n.ID, Label: alphaAB[rng.Intn(2)]}
		if n.IsLeaf() && n.Parent != nil && rng.Intn(2) == 0 {
			u.Op = OpDelete
		} else if s.Tree().Size() < 6 {
			u.Op = OpInsertFirstChild
		}
		mustEdit(t, &s.Engine, u)
		want, err := q.SatisfyingAssignments(s.Tree(), 6)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "naive-dyn", want, s.Snapshot().Query(id).All())
	}
}

// TestWordIDAtAfterEdits fuzzes positional addressing under edits.
func TestWordIDAtAfterEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, _ := mustWordSet(t, []tree.Label{"a", "b", "a"}, randomWVA(rng, 2, alphaAB, tree.NewVarSet(0)), Options{})
	for step := 0; step < 200; step++ {
		ids, _ := s.Word()
		n := ids[rng.Intn(len(ids))]
		switch rng.Intn(3) {
		case 0:
			mustEdit(t, &s.Engine, Update{Op: OpInsertBefore, Node: n, Label: alphaAB[rng.Intn(2)]})
		case 1:
			mustEdit(t, &s.Engine, Update{Op: OpInsertAfter, Node: n, Label: alphaAB[rng.Intn(2)]})
		default:
			if len(ids) > 1 {
				mustEdit(t, &s.Engine, Update{Op: OpDelete, Node: n})
			}
		}
		ids, _ = s.Word()
		for i, id := range ids {
			got, err := s.IDAt(i)
			if err != nil || got != id {
				t.Fatalf("step %d: IDAt(%d) = %d, want %d", step, i, got, id)
			}
		}
	}
}

// TestMoveRangeThroughEngine checks the bulk word update keeps the
// enumeration structure consistent with the from-scratch oracle.
func TestMoveRangeThroughEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := randomWVA(rng, 2, alphaAB, tree.NewVarSet(0))
	s, id := mustWordSet(t, []tree.Label{"a", "b", "a", "b", "b", "a"}, q, Options{})
	for step := 0; step < 25; step++ {
		n := s.Len()
		from := rng.Intn(n)
		k := 1 + rng.Intn(n-from)
		if k == n {
			continue
		}
		dest := rng.Intn(n-k+1) - 1
		if _, _, err := edit(&s.Engine, Update{Op: OpMoveRange, From: from, K: k, To: dest}); err != nil {
			t.Fatalf("step %d: moveRange(%d,%d,%d): %v", step, from, k, dest, err)
		}
		ids, labs := s.Word()
		want, err := q.SatisfyingAssignments(labs, ids, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "move", want, s.Snapshot().Query(id).All())
	}
}

// TestAggregatesUnambiguous checks that for the (unambiguous)
// SelectLabel query the derivation count equals the result count after
// every update, and the tropical aggregates match enumeration.
func TestAggregatesUnambiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, id := mustRegister(t, tva.RandomUnrankedTree(rng, 30, alphaAB), tva.SelectLabel(alphaAB, "a", 0), Options{})
	for step := 0; step < 60; step++ {
		if u, ok := randomTreeEdit(rng, s, 1<<30); ok && u.Op != OpInsertRightSibling {
			mustEdit(t, &s.Engine, u)
		}
		snap := s.Snapshot().Query(id)
		count := snap.Count()
		if got := snap.Derivations(); got.Cmp(big.NewInt(int64(count))) != 0 {
			t.Fatalf("step %d: derivations %v, results %d", step, got, count)
		}
		mn, okMin := snap.MinResultSize()
		mx, okMax := snap.MaxResultSize()
		if okMin != (count > 0) || okMax != (count > 0) {
			t.Fatalf("step %d: tropical emptiness disagrees", step)
		}
		if count > 0 && (mn != 1 || mx != 1) {
			// SelectLabel results are always single singletons.
			t.Fatalf("step %d: min/max = %d/%d", step, mn, mx)
		}
	}
}

// TestDerivationCountsRuns checks the Section 4 multiset semantics on a
// genuinely ambiguous automaton: the derivation count equals the number
// of (run, valuation) pairs, i.e. results weighted by run multiplicity.
func TestDerivationCountsRuns(t *testing.T) {
	// X0 selects one node (any label); the automaton nondeterministically
	// runs in "mode 1" or "mode 2" (duplicated states), so every result
	// has exactly two runs. Subtrees without x admit runs in both modes,
	// but homogenization collapses empty-annotation multiplicity, so the
	// count is 2 per result.
	ut, _ := tree.ParseUnranked("(a (b) (a))")
	s, id := mustRegister(t, ut, twoModeSelect(), Options{})
	snap := s.Snapshot().Query(id)
	if c := snap.Count(); c != 3 {
		t.Fatalf("count = %d, want 3", c)
	}
	want := big.NewInt(6) // 3 results × 2 runs
	if got := snap.Derivations(); got.Cmp(want) != 0 {
		t.Fatalf("derivations = %v, want %v", got, want)
	}
}

// twoModeSelect is the ambiguous select-one-node automaton of
// TestDerivationCountsRuns: two disjoint copies of the same automaton.
func twoModeSelect() *tva.Unranked {
	x := tree.NewVarSet(0)
	q := &tva.Unranked{
		NumStates: 4, // q0/q1 for each mode
		Alphabet:  alphaAB,
		Vars:      x,
		Final:     []tva.State{1, 3},
	}
	for _, l := range alphaAB {
		q.Init = append(q.Init,
			tva.InitRule{Label: l, Set: 0, State: 0},
			tva.InitRule{Label: l, Set: x, State: 1},
			tva.InitRule{Label: l, Set: 0, State: 2},
			tva.InitRule{Label: l, Set: x, State: 3},
		)
	}
	q.Delta = []tva.StepTriple{
		{From: 0, Child: 0, To: 0}, {From: 0, Child: 1, To: 1}, {From: 1, Child: 0, To: 1},
		{From: 2, Child: 2, To: 2}, {From: 2, Child: 3, To: 3}, {From: 3, Child: 2, To: 3},
	}
	return q
}

// checkAggregates compares a snapshot's algebraic aggregates with brute
// force over its own Results(): Min/MaxResultSize against the smallest
// and largest assignment, Derivations against the answer count (equal
// for unambiguous automata — DirectAccess — and otherwise an upper bound
// that is zero exactly on empty answer sets), and a one-shot
// Boolean-semiring evaluation of the frozen root against NonEmpty.
func checkAggregates(t *testing.T, ctx string, s *Snapshot) {
	t.Helper()
	n, mn, mx := 0, 0, 0
	for a := range s.Results() {
		if n == 0 || len(a) < mn {
			mn = len(a)
		}
		if n == 0 || len(a) > mx {
			mx = len(a)
		}
		n++
	}
	d := s.Derivations()
	if s.DirectAccess() && d.Cmp(big.NewInt(int64(n))) != 0 {
		t.Fatalf("%s: derivations %v, results %d (unambiguous)", ctx, d, n)
	}
	if d.Cmp(big.NewInt(int64(n))) < 0 || (d.Sign() == 0) != (n == 0) {
		t.Fatalf("%s: derivations %v inconsistent with %d results", ctx, d, n)
	}
	gotMin, okMin := s.MinResultSize()
	gotMax, okMax := s.MaxResultSize()
	if okMin != (n > 0) || okMax != (n > 0) || (n > 0 && (gotMin != mn || gotMax != mx)) {
		t.Fatalf("%s: min/max = %d,%v/%d,%v, brute force %d/%d over %d results",
			ctx, gotMin, okMin, gotMax, okMax, mn, mx, n)
	}
	boolean := counting.NewEvaluator[bool](counting.Bool{}).Gamma(s.root.Box, s.gamma, s.emptyOK)
	if boolean != s.NonEmpty() || boolean != (n > 0) {
		t.Fatalf("%s: Boolean semiring %v, NonEmpty %v, %d results", ctx, boolean, s.NonEmpty(), n)
	}
}

// TestAggregatesRandomScripts drives random edit batches through trees
// and words with ambiguous and unambiguous queries and checks every
// aggregate against brute force after every batch.
func TestAggregatesRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		// A random automaton (ambiguous or not), an unambiguous one with
		// direct access, and one ambiguous by construction.
		queries := []*tva.Unranked{
			tva.RandomUnranked(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0), 0.4),
			tva.SelectLabel(alphaAB, "a", 0),
			twoModeSelect(),
		}
		s := NewTreeSet(tva.RandomUnrankedTree(rng, 1+rng.Intn(6), alphaAB))
		ids := make([]QueryID, len(queries))
		for i, q := range queries {
			var err error
			if ids[i], err = s.Register(q, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 12; step++ {
			// Relabels first (valid at any node), then one edit drawn
			// against the current tree.
			nodes := s.Tree().Nodes()
			var batch []Update
			for range rng.Intn(3) {
				batch = append(batch, Update{Op: OpRelabel, Node: nodes[rng.Intn(len(nodes))].ID, Label: alphaAB[rng.Intn(2)]})
			}
			if u, ok := randomTreeEdit(rng, s, 9); ok {
				batch = append(batch, u)
			}
			m, _, err := s.ApplyBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Query(ids[1]).DirectAccess() || m.Query(ids[2]).DirectAccess() {
				t.Fatal("select-a must be unambiguous and the two-mode query ambiguous")
			}
			for _, id := range ids {
				checkAggregates(t, "tree", m.Query(id))
			}
		}
	}
	selectB, err := wordSelectQuery()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		queries := []*tva.WVA{randomWVA(rng, 1+rng.Intn(3), alphaAB, tree.NewVarSet(0)), selectB}
		s, err := NewWordSet([]tree.Label{"a", "b", "b"})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]QueryID, len(queries))
		for i, q := range queries {
			if ids[i], err = s.Register(q, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 12; step++ {
			n := s.Len()
			letters, _ := s.Word()
			batch := []Update{{Op: OpRelabel, Node: letters[rng.Intn(n)], Label: alphaAB[rng.Intn(2)]}}
			switch {
			case n > 7:
				batch = append(batch, Update{Op: OpDeleteRange, From: 0, K: n - 4})
			case rng.Intn(3) == 0:
				batch = append(batch, Update{Op: OpInsertRange, From: rng.Intn(n + 1), Labels: []tree.Label{alphaAB[rng.Intn(2)], "b"}})
			case rng.Intn(2) == 0 && n > 2:
				batch = append(batch, Update{Op: OpDeleteRange, From: rng.Intn(n - 1), K: 1})
			case n > 1:
				batch = append(batch, Update{Op: OpMoveRange, From: 0, K: 1, To: rng.Intn(n-1) - 1})
			}
			m, _, err := s.ApplyBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Query(ids[1]).DirectAccess() {
				t.Fatal("the select-b word query must be unambiguous")
			}
			for _, id := range ids {
				checkAggregates(t, "word", m.Query(id))
			}
		}
	}
}
