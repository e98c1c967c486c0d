package main

import (
	"strings"

	enumtrees "repro"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// query is one standing-query registration of a workload.
type query struct {
	spec      string
	automaton *enumtrees.TreeAutomaton
	subscribe bool
}

// spec describes one closed-loop workload: a seeded random {a,b,c} tree,
// the standing queries registered on it, the edit stream and the read
// probe that follows every publication. README.md says why each
// workload exists and which layers it loads.
type spec struct {
	name    string
	n       int // tree size
	queries []query
	// batch is the number of relabels per publication; 0 selects the
	// structural stream (one workload.StructuralEditor edit per
	// publication, drawn against the live tree).
	batch int
	// read and drain index queries: read is the direct-access target of
	// At and Page, drain is drained for the per-answer delay.
	read, drain int
	// ats and pages are the At and Page(off, 64) calls after every
	// publication; drainEvery is the number of publications between two
	// full drains.
	ats, pages, drainEvery int
}

const pageSize = 64

var alphabet = []enumtrees.Label{"a", "b", "c"}

func specs() []spec {
	return []spec{relabelFanout(), structuralChurn(), pagedReaders()}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// relabelFanout registers the 16 queries of experiments.ParallelQueries
// plus content-equal copies of the first 8 (fresh automata, so the
// engine dedupes them by content): 16 distinct pipelines, of which the
// 6 descdepth ones are ambiguous. Only unambiguous queries are
// subscribed; an ambiguous subscription would fall back to a full
// keyed drain per publication and swamp every other layer.
func relabelFanout() spec {
	specs, automata := experiments.ParallelQueries()
	dupSpecs, dupAutomata := experiments.ParallelQueries()
	var qs []query
	for i, s := range specs {
		qs = append(qs, query{spec: s, automaton: automata[i], subscribe: !strings.HasPrefix(s, "descdepth:")})
	}
	for i := range 8 {
		qs = append(qs, query{spec: dupSpecs[i], automaton: dupAutomata[i]})
	}
	return spec{
		name: "relabel-fanout", n: 16384, queries: qs, batch: 4,
		read: indexOf(qs, "ancestor"), drain: indexOf(qs, "select:a"),
		ats: 2, pages: 1, drainEvery: 64,
	}
}

func structuralChurn() spec {
	qs := []query{
		{spec: "select:b", automaton: enumtrees.SelectLabel(alphabet, "b", 0), subscribe: true},
		{spec: "ancestor", automaton: workload.AncestorQuery(), subscribe: true},
		{spec: "path://a/b", automaton: enumtrees.MustCompilePath("//a/b", alphabet, 0), subscribe: true},
		{spec: "descdepth:b:2", automaton: enumtrees.DescendantAtDepth(alphabet, "b", 2, 0)},
	}
	return spec{
		name: "structural-churn", n: 65536, queries: qs,
		read: 1, drain: 0,
		ats: 1, pages: 1, drainEvery: 256,
	}
}

// structuralWeights is workload.DefaultStructuralWeights without
// subtree moves. A move can splice a tall subterm under a deep node, and
// the scapegoat fix-up then rebuilds the whole term: in 100000 measured
// edits at n = 65536 every whole-term rebuild followed a move, about one
// per 700 moves, each rebuilding some 130000 term nodes in every
// pipeline (0.3–1 s). The few that land in one run decided its
// edits_per_s, which then moved by 37–67% between seeds. Without moves
// the largest edit creates a few hundred fresh term nodes.
func structuralWeights() workload.EditWeights {
	w := workload.DefaultStructuralWeights()
	w.MoveSubtree = 0
	return w
}

func pagedReaders() spec {
	qs := []query{
		{spec: "select:a", automaton: enumtrees.SelectLabel(alphabet, "a", 0)},
		{spec: "ancestor", automaton: workload.AncestorQuery(), subscribe: true},
		{spec: "descdepth:b:2", automaton: enumtrees.DescendantAtDepth(alphabet, "b", 2, 0)},
	}
	return spec{
		name: "paged-readers", n: 65536, queries: qs, batch: 8,
		read: 1, drain: 0,
		ats: 32, pages: 8, drainEvery: 32,
	}
}

func indexOf(qs []query, s string) int {
	for i, q := range qs {
		if q.spec == s {
			return i
		}
	}
	panic("perfbench: no query " + s)
}
