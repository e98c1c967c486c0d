// Command quickstart is the smallest end-to-end tour of the library:
// build a tree, register an automaton query on a QuerySet, enumerate,
// edit the tree, and enumerate again — all through the public facade.
// It finishes with snapshot isolation — a batched update and an old
// snapshot that keeps answering for its own version — and a duplicate
// registration deduped onto one shared pipeline.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	enumtrees "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A small document tree.
	t, err := enumtrees.ParseTree("(doc (sec (par) (fig)) (sec (par)))")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "tree:", t)

	// Query: X0 selects a node labeled "fig".
	alpha := []enumtrees.Label{"doc", "sec", "par", "fig"}
	q := enumtrees.SelectLabel(alpha, "fig", 0)

	// Preprocess (linear time) and enumerate (constant delay per result).
	qs := enumtrees.NewQuerySet(t)
	figs, err := qs.Register(q, enumtrees.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "figures:")
	for asg := range qs.Snapshot().Query(figs).Results() {
		fmt.Fprintf(w, "  %v (node %d)\n", asg, asg[0].Node)
	}

	// Edit the tree: add a figure to the second section (O(log n)).
	var secondSec enumtrees.NodeID
	for _, n := range t.Nodes() {
		if n.Label == "sec" {
			secondSec = n.ID // last one wins
		}
	}
	m, newIDs, err := qs.ApplyBatch([]enumtrees.Update{
		{Op: enumtrees.OpInsertFirstChild, Node: secondSec, Label: "fig"},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inserted fig as node %d\n", newIDs[0])

	// Enumeration restarts on the published version of the updated tree.
	snap := m.Query(figs)
	fmt.Fprintln(w, "figures now:", snap.Count())
	st := snap.Stats()
	fmt.Fprintf(w, "structures: %d boxes, width %d, term height %d\n",
		st.Boxes, st.CircuitWidth, st.TermHeight)

	// Snapshot isolation: updates publish immutable versions, and a
	// snapshot taken before an edit keeps answering for its version —
	// that is what makes concurrent readers safe.
	t2, err := enumtrees.ParseTree("(doc (sec (fig) (par)))")
	if err != nil {
		return err
	}
	qs2 := enumtrees.NewQuerySet(t2)
	figs2, err := qs2.Register(q, enumtrees.Options{})
	if err != nil {
		return err
	}
	before := qs2.Snapshot().Query(figs2)
	m2, _, err := qs2.ApplyBatch([]enumtrees.Update{
		{Op: enumtrees.OpInsertFirstChild, Node: t2.Root.ID, Label: "fig"},
		{Op: enumtrees.OpInsertFirstChild, Node: t2.Root.ID, Label: "fig"},
	})
	if err != nil {
		return err
	}
	after := m2.Query(figs2)
	fmt.Fprintf(w, "engine: snapshot v%d sees %d figure(s), v%d sees %d (batch of 2 edits, one publication)\n",
		before.Version(), before.Count(), after.Version(), after.Count())

	// Many subscribers, one query: registering the same automaton again
	// on a QuerySet is deduped onto a shared refcounted pipeline by the
	// multi-query optimizer — k near-duplicate standing queries cost ~1
	// pipeline of repair per edit.
	t3, err := enumtrees.ParseTree("(doc (sec (fig) (fig)) (sec (fig)))")
	if err != nil {
		return err
	}
	qs3 := enumtrees.NewQuerySet(t3)
	a, err := qs3.Register(q, enumtrees.Options{})
	if err != nil {
		return err
	}
	b, err := qs3.Register(enumtrees.SelectLabel(alpha, "fig", 0), enumtrees.Options{})
	if err != nil {
		return err
	}
	est := qs3.Stats()
	m = qs3.Snapshot()
	fmt.Fprintf(w, "query set: %d queries share %d pipeline(s); both count %d/%d figures\n",
		est.Queries, est.Pipelines, m.Query(a).Count(), m.Query(b).Count())
	return nil
}
