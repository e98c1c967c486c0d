package main

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	enumtrees "repro"
	"repro/internal/baseline"
	"repro/internal/tree"
	"repro/internal/workload"
)

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// setupRuns is the number of timed set-ups of an untraced run.
const setupRuns = 3

// freshPerEditC is the constant c of the paper-bound check on
// structural-churn: an edit without a rebalance creates at most
// c·log₂ n fresh term nodes. The scapegoat height budget is
// 2.4·log₂(w+1)+10, an edit copies one or two root paths and grafts at
// most 8 nodes; README.md records the measured maxima.
const freshPerEditC = 8

// deltaTimeout bounds every wait for a subscriber's Delta: a lost
// delivery fails the run instead of hanging it.
const deltaTimeout = 20 * time.Second

// subscription is one Subscribe channel and the answer set folded from
// its deltas.
type subscription struct {
	query   int
	ch      <-chan enumtrees.Delta
	version uint64
	seed    *enumtrees.Snapshot
	answers map[string]bool
	last    enumtrees.Delta
}

// session is one engine: a QuerySet with the workload's registrations.
type session struct {
	qs   *enumtrees.QuerySet
	ids  []enumtrees.QueryID
	subs []*subscription
	snap *enumtrees.MultiSnapshot
}

// runner drives the closed loop of one workload and keeps its counters.
type runner struct {
	sp    spec
	cfg   config
	timer *time.Timer

	attempted, failed int64
	firstFailure      error

	// setups holds the set-up times in seconds; the latency samples and
	// totals are those of the timed stream.
	setups                        []float64
	pubLat, notifyLat, handoffLat samples
	atLat, pageLat, delayGaps     samples
	edits, pubs, pageProbes       int
	applyTime                     time.Duration
	heapPerNode                   float64
	// samples is the sample count behind each reported percentile.
	samples map[string]int
	// drained is the reused answer buffer of the drain probe.
	drained []enumtrees.Assignment

	// Traced runs only. The shadowed half fills the tracer, the shadow's
	// work totals and the engine counters; stats is the engine's Stats()
	// at the previous publication and rebalancesSeen the shadow forest's
	// rebalance count then.
	tr                                   tracer
	sh                                   *shadow
	spans                                map[string]map[string]float64
	stats                                enumtrees.EngineStats
	shadowPubs, shadowAnswers            int
	shadowFresh, shadowMoved             int
	shadowBuilt, shadowReused, diffCount int
	rebalances, rebalanceBase            int
	rebalancesSeen                       int
	coalesced                            int64
	// The update bound of the structural stream: freshRatio is the
	// largest fresh term nodes / log₂ n of an edit without a rebalance,
	// rebalanceFresh the most fresh term nodes of a rebalancing edit, and
	// freshSum and log2Sum add up both sides of the amortized bound.
	freshRatio        float64
	rebalanceFresh    int
	freshSum, log2Sum float64
	// pace runs the stream's collections; allocBytes is the heap
	// allocated inside ApplyBatch. The engine-only half of a traced run
	// fills the GC window.
	pace       pacer
	allocBytes uint64
	gc         gcWindow
}

func newRunner(sp spec, cfg config) *runner {
	t := time.NewTimer(deltaTimeout)
	t.Stop()
	return &runner{sp: sp, cfg: cfg, timer: t}
}

// check counts one checked operation and records a failure.
func (r *runner) check(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstFailure == nil {
			r.firstFailure = err
		}
		return false
	}
	return true
}

func (r *runner) failf(format string, args ...any) {
	r.check(fmt.Errorf(format, args...))
}

// setup builds one session on t and returns its wall time: from
// NewQuerySet until every query is registered and every subscription
// holds its seed resync.
func (r *runner) setup(t *tree.Unranked) (*session, time.Duration, error) {
	start := time.Now()
	ss := &session{qs: enumtrees.NewQuerySet(t)}
	for _, q := range r.sp.queries {
		id, err := ss.qs.Register(q.automaton, enumtrees.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("register %s: %w", q.spec, err)
		}
		ss.ids = append(ss.ids, id)
	}
	for i, q := range r.sp.queries {
		if !q.subscribe {
			continue
		}
		ch, err := ss.qs.Subscribe(ss.ids[i])
		if err != nil {
			return nil, 0, fmt.Errorf("subscribe %s: %w", q.spec, err)
		}
		ss.subs = append(ss.subs, &subscription{query: i, ch: ch})
	}
	for _, s := range ss.subs {
		d, err := r.receive(s)
		if err != nil {
			return nil, 0, err
		}
		if d.Resync == nil {
			return nil, 0, fmt.Errorf("first delta of %s is not a resync", r.sp.queries[s.query].spec)
		}
		s.version, s.seed = d.Version, d.Resync
	}
	elapsed := time.Since(start)
	ss.snap = ss.qs.Snapshot()
	for _, s := range ss.subs {
		if !s.seed.DirectAccess() {
			return nil, 0, fmt.Errorf("subscribed query %s is ambiguous", r.sp.queries[s.query].spec)
		}
	}
	if !ss.snap.Query(ss.ids[r.sp.read]).DirectAccess() {
		return nil, 0, fmt.Errorf("read query %s has no direct access", r.sp.queries[r.sp.read].spec)
	}
	return ss, elapsed, nil
}

// close unregisters every query, which also ends the subscriptions.
func (ss *session) close() {
	for _, id := range ss.ids {
		_ = ss.qs.Unregister(id) // every ID is registered exactly once
	}
}

// foldBase turns every subscription's seed resync into its answer set.
func (ss *session) foldBase() {
	for _, s := range ss.subs {
		s.answers = keySet(s.seed.Results())
		s.seed = nil
	}
}

func keySet(seq iter.Seq[tree.Assignment]) map[string]bool {
	out := map[string]bool{}
	for a := range seq {
		out[a.Key()] = true
	}
	return out
}

func (r *runner) receive(s *subscription) (enumtrees.Delta, error) {
	select {
	case d, ok := <-s.ch:
		if !ok {
			return d, fmt.Errorf("subscription of %s closed", r.sp.queries[s.query].spec)
		}
		return d, nil
	default:
	}
	r.timer.Reset(deltaTimeout)
	defer r.timer.Stop()
	select {
	case d, ok := <-s.ch:
		if !ok {
			return d, fmt.Errorf("subscription of %s closed", r.sp.queries[s.query].spec)
		}
		return d, nil
	case <-r.timer.C:
		return enumtrees.Delta{}, fmt.Errorf("no delta for %s within %v", r.sp.queries[s.query].spec, deltaTimeout)
	}
}

// inputs is the pre-generated part of a stream: relabel batches and the
// random ranks of the read probe.
type inputs struct {
	relabels []enumtrees.Update
	ranks    []uint64
	next     int
	nextRank int
}

const streamLen = 1 << 16

func genInputs(t *tree.Unranked, sp spec, rng *rand.Rand) *inputs {
	in := &inputs{ranks: make([]uint64, streamLen)}
	for i := range in.ranks {
		in.ranks[i] = rng.Uint64()
	}
	if sp.batch == 0 {
		return in
	}
	nodes := t.Nodes()
	in.relabels = make([]enumtrees.Update, streamLen)
	for i := range in.relabels {
		in.relabels[i] = enumtrees.Update{
			Op: enumtrees.OpRelabel, Node: nodes[rng.Intn(len(nodes))].ID, Label: alphabet[rng.Intn(len(alphabet))],
		}
	}
	return in
}

func (in *inputs) batch(k int) []enumtrees.Update {
	if in.next+k > len(in.relabels) {
		in.next = 0
	}
	b := in.relabels[in.next : in.next+k]
	in.next += k
	return b
}

func (in *inputs) rank(n int) int {
	j := in.ranks[in.nextRank%len(in.ranks)] % uint64(n)
	in.nextRank++
	return int(j)
}

// publish runs one closed-loop step: ApplyBatch, then the Delta of every
// subscription, then (traced) the shadow's replay of the same batch, then
// the read probe. It returns the inserted node IDs.
func (r *runner) publish(ss *session, in *inputs, batch []enumtrees.Update) ([]enumtrees.NodeID, error) {
	allocs0 := r.pace.allocs()
	t0 := time.Now()
	m, ids, err := ss.qs.ApplyBatch(batch)
	t1 := time.Now()
	if !r.check(err) {
		return nil, err
	}
	for _, s := range ss.subs {
		d, err := r.receive(s)
		if !r.check(err) {
			return nil, err
		}
		s.last = d
	}
	t2 := time.Now()
	r.pubLat.add(t1.Sub(t0))
	r.notifyLat.add(t2.Sub(t0))
	r.handoffLat.add(t2.Sub(t1))
	r.applyTime += t1.Sub(t0)
	r.edits += len(batch)
	r.pubs++
	r.allocBytes += r.pace.allocs() - allocs0
	ss.snap = m
	for _, s := range ss.subs {
		r.fold(s, m.Version())
	}
	if r.sh != nil {
		if err := r.shadowStep(ss, batch, ids); err != nil {
			r.check(err)
			return nil, err
		}
	}
	r.probe(ss, in)
	r.pace.step()
	return ids, nil
}

// fold applies one delta to its subscription's answer set: versions must
// be contiguous, never coalesced in a closed loop, and every removed
// answer must be held and every added one new.
func (r *runner) fold(s *subscription, version uint64) {
	d := s.last
	spec := r.sp.queries[s.query].spec
	prev := s.version
	s.version = d.Version
	if d.Version != prev+1 || d.Version != version || d.Coalesced || d.Resync != nil {
		r.failf("%s: delta v%d (coalesced %v, resync %v) after v%d, publication v%d",
			spec, d.Version, d.Coalesced, d.Resync != nil, prev, version)
		return
	}
	var err error
	for _, a := range d.Removed {
		k := a.Key()
		if !s.answers[k] && err == nil {
			err = fmt.Errorf("%s v%d: removed answer %s was not held", spec, d.Version, k)
		}
		delete(s.answers, k)
	}
	for _, a := range d.Added {
		k := a.Key()
		if s.answers[k] && err == nil {
			err = fmt.Errorf("%s v%d: added answer %s was already held", spec, d.Version, k)
		}
		s.answers[k] = true
	}
	r.check(err)
}

// probe is the read load after a publication: At at seeded random ranks
// and Page(off, 64) on the read query, and every drainEvery publications
// a full drain of the drain query timed per answer.
func (r *runner) probe(ss *session, in *inputs) {
	s := ss.snap.Query(ss.ids[r.sp.read])
	n := s.Count()
	if n > 0 {
		for range r.sp.ats {
			j := in.rank(n)
			t0 := time.Now()
			a, err := s.At(j)
			r.atLat.add(time.Since(t0))
			if r.check(err) && r.sh != nil {
				b, err := r.sh.at(r.sp.read, j)
				if r.check(err) && a.Key() != b.Key() {
					r.failf("%s At(%d): engine %s, shadow %s", r.sp.queries[r.sp.read].spec, j, a.Key(), b.Key())
				}
			}
		}
		for range r.sp.pages {
			off := in.rank(max(n-pageSize+1, 1))
			t0 := time.Now()
			p := s.Page(off, pageSize)
			r.pageLat.add(time.Since(t0))
			r.pageProbes++
			if r.pageProbes%32 == 1 {
				r.checkPage(s, off, n, p)
			} else {
				r.check(nil)
			}
		}
	}
	if r.pubs%r.sp.drainEvery == 0 {
		r.drainProbe(ss)
	}
}

// checkPage compares Page(off, 64) with 64 consecutive At calls; probe
// runs it on every 32nd page, outside the timings.
func (r *runner) checkPage(s *enumtrees.Snapshot, off, n int, p []enumtrees.Assignment) {
	want := min(pageSize, n-off)
	if len(p) != want {
		r.failf("Page(%d, %d) returned %d answers, want %d", off, pageSize, len(p), want)
		return
	}
	for i, a := range p {
		b, err := s.At(off + i)
		if !r.check(err) {
			return
		}
		if a.Key() != b.Key() {
			r.failf("Page(%d, %d)[%d] = %s, At(%d) = %s", off, pageSize, i, a.Key(), off+i, b.Key())
			return
		}
	}
}

// drainProbe drains the drain query, timing the gap between consecutive
// answers, and checks the drained length against Count() and, for a
// subscribed query, against the folded answer set.
func (r *runner) drainProbe(ss *session) {
	s := ss.snap.Query(ss.ids[r.sp.drain])
	var sub *subscription
	for _, x := range ss.subs {
		if x.query == r.sp.drain {
			sub = x
		}
	}
	// A gap runs from the request for the next answer to its arrival;
	// the bookkeeping between the two stays outside it.
	r.drained = r.drained[:0]
	var prev time.Time
	for a := range s.Results() {
		if len(r.drained) > 0 {
			r.delayGaps.add(time.Since(prev))
		}
		r.drained = append(r.drained, a)
		prev = time.Now()
	}
	n, missing := len(r.drained), 0
	if sub != nil {
		for _, a := range r.drained {
			if !sub.answers[a.Key()] {
				missing++
			}
		}
	}
	if c := s.Count(); c != n {
		r.failf("%s: Count() = %d, drained %d", r.sp.queries[r.sp.drain].spec, c, n)
	} else {
		r.check(nil)
	}
	if sub != nil && (missing > 0 || len(sub.answers) != n) {
		r.failf("%s v%d: folded deltas hold %d answers, snapshot %d (%d missing)",
			r.sp.queries[r.sp.drain].spec, sub.version, len(sub.answers), n, missing)
	}
	if r.sh != nil {
		r.shadowAnswers += n
		if got := r.sh.drain(r.sp.drain); got != n {
			r.failf("%s: shadow drained %d, engine %d", r.sp.queries[r.sp.drain].spec, got, n)
		}
	}
}

// checkFolds compares every subscription's folded answers with its
// query's Results().
func (r *runner) checkFolds(ss *session) {
	for _, s := range ss.subs {
		got := keySet(ss.snap.Query(ss.ids[s.query]).Results())
		if !sameKeys(got, s.answers) {
			r.failf("%s: folded deltas (%d answers) differ from Results() (%d)",
				r.sp.queries[s.query].spec, len(s.answers), len(got))
		} else {
			r.check(nil)
		}
	}
}

// rankChecks is the number of random ranks checkRanks reads.
const rankChecks = 1024

// checkRanks compares At and Page on the read query with the order of a
// full Results() drain: At(j) must be the j-th answer and Page(off, 64)
// the 64 answers from off.
func (r *runner) checkRanks(ss *session, in *inputs) {
	s := ss.snap.Query(ss.ids[r.sp.read])
	var all []enumtrees.Assignment
	for a := range s.Results() {
		all = append(all, a)
	}
	if len(all) == 0 {
		return
	}
	spec := r.sp.queries[r.sp.read].spec
	for range rankChecks {
		j := in.rank(len(all))
		a, err := s.At(j)
		if r.check(err) && a.Key() != all[j].Key() {
			r.failf("%s: At(%d) = %s, the drain's answer %d is %s", spec, j, a.Key(), j, all[j].Key())
		}
	}
	off := in.rank(max(len(all)-pageSize+1, 1))
	want := all[off:min(off+pageSize, len(all))]
	if !sameAnswers(s.Page(off, pageSize), want) {
		r.failf("%s: Page(%d, %d) differs from the drain's answers %d..%d", spec, off, pageSize, off, off+len(want)-1)
	} else {
		r.check(nil)
	}
}

// checkBaseline compares every query's answers with an internal/baseline
// rebuild from scratch on the final tree.
func (r *runner) checkBaseline(ss *session) error {
	oracle := map[string]map[string]bool{}
	for i, q := range r.sp.queries {
		want, ok := oracle[q.spec]
		if !ok {
			b, err := baseline.NewRebuildEnumerator(ss.qs.Tree(), q.automaton, enumtrees.Options{})
			if err != nil {
				return fmt.Errorf("baseline %s: %w", q.spec, err)
			}
			want = keySet(b.Results())
			oracle[q.spec] = want
		}
		got := keySet(ss.snap.Query(ss.ids[i]).Results())
		if !sameKeys(got, want) {
			r.failf("%s: engine has %d answers, baseline rebuild %d", q.spec, len(got), len(want))
		} else {
			r.check(nil)
		}
	}
	return nil
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// stream runs the closed loop for d of wall time.
func (r *runner) stream(ss *session, in *inputs, rng *rand.Rand, d time.Duration) error {
	r.pace.begin()
	defer r.pace.end()
	deadline := time.Now().Add(d)
	if r.sp.batch > 0 {
		for time.Now().Before(deadline) {
			if _, err := r.publish(ss, in, in.batch(r.sp.batch)); err != nil {
				return err
			}
		}
		return nil
	}
	mut := &publisher{r: r, ss: ss, in: in}
	ed := workload.NewStructuralEditor(mut, structuralWeights(), rng)
	for time.Now().Before(deadline) {
		if err := ed.Step(); err != nil {
			return err
		}
	}
	return nil
}

// publisher lets workload.StructuralEditor drive the engine: every edit
// it draws is published on its own through ApplyBatch.
type publisher struct {
	r  *runner
	ss *session
	in *inputs
}

func (p *publisher) one(u enumtrees.Update) (enumtrees.NodeID, error) {
	ids, err := p.r.publish(p.ss, p.in, []enumtrees.Update{u})
	if err != nil {
		return tree.InvalidNode, err
	}
	return ids[0], nil
}

func (p *publisher) Tree() *tree.Unranked { return p.ss.qs.Tree() }

func (p *publisher) Relabel(id tree.NodeID, l tree.Label) error {
	_, err := p.one(enumtrees.Update{Op: enumtrees.OpRelabel, Node: id, Label: l})
	return err
}

func (p *publisher) InsertFirstChild(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	return p.one(enumtrees.Update{Op: enumtrees.OpInsertFirstChild, Node: id, Label: l})
}

func (p *publisher) InsertRightSibling(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	return p.one(enumtrees.Update{Op: enumtrees.OpInsertRightSibling, Node: id, Label: l})
}

func (p *publisher) Delete(id tree.NodeID) error {
	_, err := p.one(enumtrees.Update{Op: enumtrees.OpDelete, Node: id})
	return err
}

func (p *publisher) DeleteSubtree(id tree.NodeID) error {
	_, err := p.one(enumtrees.Update{Op: enumtrees.OpDeleteSubtree, Node: id})
	return err
}

func (p *publisher) MoveSubtreeFirstChild(id, dest tree.NodeID) error {
	_, err := p.one(enumtrees.Update{Op: enumtrees.OpMoveSubtreeFirstChild, Node: id, Dest: dest})
	return err
}

func (p *publisher) MoveSubtreeRightSibling(id, dest tree.NodeID) error {
	_, err := p.one(enumtrees.Update{Op: enumtrees.OpMoveSubtreeRightSibling, Node: id, Dest: dest})
	return err
}

func (p *publisher) InsertSubtreeFirstChild(id tree.NodeID, frag *tree.Unranked) (tree.NodeID, error) {
	return p.one(enumtrees.Update{Op: enumtrees.OpInsertSubtreeFirstChild, Node: id, Fragment: frag})
}

func (p *publisher) InsertSubtreeRightSibling(id tree.NodeID, frag *tree.Unranked) (tree.NodeID, error) {
	return p.one(enumtrees.Update{Op: enumtrees.OpInsertSubtreeRightSibling, Node: id, Fragment: frag})
}

// shadowStep replays the batch on the shadow and checks its work against
// the engine's Stats() deltas and the paper's update bound.
func (r *runner) shadowStep(ss *session, batch []enumtrees.Update, ids []enumtrees.NodeID) error {
	w, err := r.sh.apply(batch, ids)
	if err != nil {
		return err
	}
	st := ss.qs.Stats()
	prev := r.stats
	r.stats = st
	if got := st.PathCopies - prev.PathCopies; got != w.fresh {
		r.failf("v%d: engine drained %d fresh term nodes, shadow %d", st.Version, got, w.fresh)
	}
	if got := st.BoxesRebuilt - prev.BoxesRebuilt; got != w.built {
		r.failf("v%d: engine built %d boxes, shadow %d", st.Version, got, w.built)
	}
	if got := st.BoxesReused - prev.BoxesReused; got != w.reused {
		r.failf("v%d: engine reused %d boxes, shadow %d", st.Version, got, w.reused)
	}
	rebalances := r.sh.f.Rebalances()
	if got, want := st.Rebalances-prev.Rebalances, rebalances-r.rebalancesSeen; got != want {
		r.failf("v%d: engine rebalanced %d times, shadow %d", st.Version, got, want)
	}
	r.check(nil)
	// The paper's bound on the circuit: each pipeline of the engine
	// builds at most one box per fresh term node.
	for i, id := range ss.ids {
		got := st.QueryBoxesRebuilt[id] - prev.QueryBoxesRebuilt[id]
		if want := r.sh.byQuery[i].built; got != want {
			r.failf("v%d %s: engine pipeline built %d boxes, shadow %d", st.Version, r.sp.queries[i].spec, got, want)
		} else if got > w.fresh {
			r.failf("v%d %s: engine pipeline built %d boxes from %d fresh term nodes", st.Version, r.sp.queries[i].spec, got, w.fresh)
		} else {
			r.check(nil)
		}
	}
	if r.sp.batch == 0 {
		r.checkFreshBound(ss.qs.Tree().Size(), w.fresh, rebalances != r.rebalancesSeen)
	}
	r.rebalancesSeen = rebalances
	for _, s := range ss.subs {
		p := r.sh.byQuery[s.query]
		diff := w.diffs[p]
		if !sameAnswers(diff[0], s.last.Added) || !sameAnswers(diff[1], s.last.Removed) {
			r.failf("v%d %s: engine delta +%d -%d, shadow diff +%d -%d", st.Version, r.sp.queries[s.query].spec,
				len(s.last.Added), len(s.last.Removed), len(diff[0]), len(diff[1]))
		}
	}
	r.shadowPubs++
	r.shadowFresh += w.fresh
	r.shadowMoved += w.moved
	r.shadowBuilt += w.built
	r.shadowReused += w.reused
	for _, d := range w.diffs {
		r.diffCount += len(d[0]) + len(d[1])
	}
	return nil
}

// checkFreshBound checks the paper's logarithmic update bound on one
// structural edit: an edit without a scapegoat rebalance creates at most
// freshPerEditC·log₂ n fresh term nodes. A rebalancing edit rebuilds a
// whole subterm, so it is bounded only in the amortized sum that
// checkAmortizedBound tests at the end of the stream.
func (r *runner) checkFreshBound(n, fresh int, rebalanced bool) {
	log2n := math.Log2(float64(n))
	r.freshSum += float64(fresh)
	r.log2Sum += log2n
	if rebalanced {
		r.rebalanceFresh = max(r.rebalanceFresh, fresh)
		return
	}
	r.freshRatio = max(r.freshRatio, float64(fresh)/log2n)
	if float64(fresh) > freshPerEditC*log2n {
		r.failf("v%d: one edit created %d fresh term nodes > %d·log₂ %d", r.stats.Version, fresh, freshPerEditC, n)
	} else {
		r.check(nil)
	}
}

// checkAmortizedBound checks that the structural stream created at most
// freshPerEditC·log₂ n fresh term nodes per edit on average, rebalances
// included.
func (r *runner) checkAmortizedBound() {
	if r.freshSum > freshPerEditC*r.log2Sum {
		r.failf("structural stream: %.0f fresh term nodes > %d·Σlog₂ n = %.0f", r.freshSum, freshPerEditC, freshPerEditC*r.log2Sum)
	} else {
		r.check(nil)
	}
}

// pacer runs a stream's garbage collections between publications, so
// that no collection overlaps a timed call. Left to the runtime, a run
// sees a few concurrent marks of a heap of several hundred MB, and how
// many publications happened to overlap one decided the latency tails.
// With the runtime's pacer off, pacer collects after a publication once
// the stream has allocated as much as the heap held live after the
// previous collection, the point GOGC=100 aims at, so the number and
// length of collections still follow the engine's allocation and live
// heap; writeTime charges the write path its share of them.
type pacer struct {
	sample    []metrics.Sample // allocated bytes, live heap bytes
	gcPercent int
	// trigger is the allocated-byte mark of the next collection and
	// budget the allocation it allows since the last one.
	trigger, budget uint64
	// Totals over every stream: collection wall time and count, and the
	// budgets the collections used up.
	gcTime time.Duration
	cycles int
	spent  uint64
}

func (p *pacer) read() (allocated, live uint64) {
	if p.sample == nil {
		p.sample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	}
	metrics.Read(p.sample)
	return p.sample[0].Value.Uint64(), p.sample[1].Value.Uint64()
}

// allocs returns the bytes allocated since the process started.
func (p *pacer) allocs() uint64 {
	a, _ := p.read()
	return a
}

func (p *pacer) begin() {
	p.gcPercent = debug.SetGCPercent(-1)
	a, live := p.read()
	p.trigger, p.budget = a+live, live
}

// step collects once the allocation since the last collection reaches
// the live heap it left.
func (p *pacer) step() {
	if p.allocs() < p.trigger {
		return
	}
	t0 := time.Now()
	runtime.GC()
	p.gcTime += time.Since(t0)
	p.cycles++
	p.spent += p.budget
	a, live := p.read()
	p.trigger, p.budget = a+live, live
}

func (p *pacer) end() { debug.SetGCPercent(p.gcPercent) }

// writeTime is the stream's ApplyBatch time plus the collection time its
// allocation costs: the bytes ApplyBatch allocated times the stream's
// collection time per byte of budget. Charging per byte rather than per
// collection keeps a run's figure from jumping with whether its last
// collection fell just before or just after the deadline.
func (r *runner) writeTime() time.Duration {
	gc := 0.0
	if r.pace.spent > 0 {
		gc = float64(r.pace.gcTime) * float64(r.allocBytes) / float64(r.pace.spent)
	}
	return r.applyTime + time.Duration(gc)
}

// gcWindow accumulates the runtime's GC counters over the engine-only
// streams of a traced run.
type gcWindow struct {
	sample       []metrics.Sample
	ms0          runtime.MemStats
	cpuGC0, cpu0 float64

	cycles     uint32
	pause      time.Duration
	cpuGC, cpu float64
}

func (g *gcWindow) read() (ms runtime.MemStats, cpuGC, cpu float64) {
	if g.sample == nil {
		g.sample = []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		}
	}
	runtime.ReadMemStats(&ms)
	metrics.Read(g.sample)
	return ms, g.sample[0].Value.Float64(), g.sample[1].Value.Float64()
}

func (g *gcWindow) start() {
	g.ms0, g.cpuGC0, g.cpu0 = g.read()
}

func (g *gcWindow) stop() {
	ms, cpuGC, cpu := g.read()
	g.cycles += ms.NumGC - g.ms0.NumGC
	g.pause += time.Duration(ms.PauseTotalNs - g.ms0.PauseTotalNs)
	g.cpuGC += cpuGC - g.cpuGC0
	g.cpu += cpu - g.cpu0
}

// cpuShare is the GC's share of the CPU time available to the process.
func (g *gcWindow) cpuShare() float64 {
	if g.cpu <= 0 {
		return 0
	}
	return g.cpuGC / g.cpu
}

// liveHeapPerNode forces a collection and returns the live heap per tree node.
func liveHeapPerNode(n int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(n)
}
