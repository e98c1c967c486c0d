// Command perfbench is the repository's end-to-end benchmark. It runs one
// single-process, closed-loop workload against the engine's public
// facade, checks every answer it reads, and prints its metrics as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload relabel-fanout --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it reports the per-layer split measured by a shadow
// pipeline (shadow.go). README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/bitset"
	"repro/internal/tree"
	"repro/internal/workload"
)

const (
	defaultSeed = 1
	// heldOutSeed is never used while tuning the benchmark or a change;
	// a claimed gain must also hold on it.
	heldOutSeed = 7919
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if arg, ok := os.LookupEnv(coldSetupEnv); ok {
		os.Exit(coldSetup(arg, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: relabel-fanout, structural-churn or paged-readers")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed stream in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer split of a shadow-traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	return execute(sp, config{seed: *seed, seconds: *seconds, trace: *trace == 1}, stdout, stderr)
}

// execute runs one workload and prints its output.
func execute(sp spec, cfg config, stdout, stderr io.Writer) int {
	r := newRunner(sp, cfg)
	var ms map[string]metric
	var err error
	if cfg.trace {
		ms, err = r.runTraced()
	} else {
		ms, err = r.runUntraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"env": r.env()}) // stdout write errors surface on the last line
	if r.spans != nil {
		_ = enc.Encode(map[string]any{"spans": r.spans})
	}
	if cfg.trace && sp.batch == 0 {
		_ = enc.Encode(map[string]any{"update_bound": map[string]any{
			"c":                               freshPerEditC,
			"max_fresh_per_log2n":             r.freshRatio,
			"mean_fresh_per_log2n":            r.freshSum / max(r.log2Sum, 1),
			"max_fresh_of_a_rebalancing_edit": r.rebalanceFresh,
		}})
	}
	if r.firstFailure != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d checks failed; first: %v\n", sp.name, r.failed, r.attempted, r.firstFailure)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// env is the environment block: toolchain, machine, GC setting, seeds
// and the sample count behind every percentile.
func (r *runner) env() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"go":            runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"kernels":       bitset.Kernels(),
		"gogc":          gogc,
		"workload":      r.sp.name,
		"tree_nodes":    r.sp.n,
		"registrations": len(r.sp.queries),
		"seed":          r.cfg.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       r.cfg.seconds,
		"trace":         r.cfg.trace,
		"max_rss_kb":    maxRSS(),
		"stream_gc":     map[string]any{"cycles": r.pace.cycles, "seconds": r.pace.gcTime.Seconds()},
		"samples":       r.samples,
	}
}

// newTree generates the workload's seeded random {a,b,c} tree.
func (r *runner) newTree() (*tree.Unranked, error) {
	return workload.Tree(workload.ShapeRandom, r.sp.n, rand.New(rand.NewSource(r.cfg.seed)))
}

func (r *runner) timedStream() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

// phase selects what a session measures besides the engine itself.
type phase int

const (
	untraced phase = iota
	// shadowed runs the shadow pipeline in lock-step with the engine.
	shadowed
	// gcOnly runs the engine alone inside a gcWindow.
	gcOnly
)

// session generates the tree, sets up a fresh engine (timed into
// setups), streams for d, and ends with the folded-delta, rank-order and
// baseline checks.
func (r *runner) session(d time.Duration, ph phase) error {
	t, err := r.newTree()
	if err != nil {
		return err
	}
	var sh *shadow
	if ph == shadowed {
		// The shadow registers first, so it pays the cold program
		// compile a fresh process pays.
		if sh, err = newShadow(&r.tr, t.Clone(), r.sp.queries); err != nil {
			return err
		}
	}
	runtime.GC()
	ss, setup, err := r.setup(t)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, setup.Seconds())
	if sh != nil {
		r.attach(ss, sh)
	}
	if ph == untraced {
		r.heapPerNode = liveHeapPerNode(r.sp.n)
	}
	ss.foldBase()
	in := genInputs(ss.qs.Tree(), r.sp, rand.New(rand.NewSource(r.cfg.seed+1)))
	runtime.GC()
	if ph == gcOnly {
		r.gc.start()
	}
	err = r.stream(ss, in, rand.New(rand.NewSource(r.cfg.seed+2)), d)
	if ph == gcOnly {
		r.gc.stop()
	}
	if err != nil {
		return err
	}
	if sh != nil {
		r.rebalances = sh.f.Rebalances() - r.rebalanceBase
		r.coalesced = ss.qs.Stats().DeltasCoalesced
	}
	r.checkFolds(ss)
	r.checkRanks(ss, in)
	if err := r.checkBaseline(ss); err != nil {
		return err
	}
	ss.close()
	r.sh = nil
	return nil
}

// attach starts the shadow's lock-step with a freshly set-up engine: both
// must have built the same units from the same term.
func (r *runner) attach(ss *session, sh *shadow) {
	st := ss.qs.Stats()
	if st.BoxesRebuilt != sh.registrationBoxes || st.PathCopies != sh.initialFresh ||
		st.Pipelines != len(sh.pipes) || st.RegistrationsDeduped != sh.deduped {
		r.failf("set-up: engine built %d boxes from %d term nodes in %d pipelines (%d deduped), shadow %d from %d in %d (%d)",
			st.BoxesRebuilt, st.PathCopies, st.Pipelines, st.RegistrationsDeduped,
			sh.registrationBoxes, sh.initialFresh, len(sh.pipes), sh.deduped)
	} else {
		r.check(nil)
	}
	r.stats, r.sh = st, sh
	r.rebalanceBase = sh.f.Rebalances()
	r.rebalancesSeen = r.rebalanceBase
}

// runUntraced reports the end-to-end metrics. setup_s is the median of
// setupRuns cold set-ups: the streamed session's, the first in this
// process, and one in each of setupRuns-1 fresh processes.
func (r *runner) runUntraced() (map[string]metric, error) {
	if err := r.session(r.timedStream(), untraced); err != nil {
		return nil, err
	}
	if err := r.coldSetups(); err != nil {
		return nil, err
	}
	r.samples = map[string]int{
		"setup": len(r.setups), "publish": len(r.pubLat), "notify": len(r.notifyLat),
		"at": len(r.atLat), "page": len(r.pageLat), "delay": len(r.delayGaps),
	}
	return map[string]metric{
		"setup_s":             {median(r.setups), "s"},
		"publish_p50_us":      {r.pubLat.quantileUS(0.5), "us"},
		"publish_p90_us":      {r.pubLat.quantileUS(0.9), "us"},
		"edits_per_s":         {float64(r.edits) / r.writeTime().Seconds(), "1/s"},
		"notify_p50_us":       {r.notifyLat.quantileUS(0.5), "us"},
		"notify_p90_us":       {r.notifyLat.quantileUS(0.9), "us"},
		"at_p50_us":           {r.atLat.quantileUS(0.5), "us"},
		"at_p90_us":           {r.atLat.quantileUS(0.9), "us"},
		"page_p50_us":         {r.pageLat.quantileUS(0.5), "us"},
		"page_p90_us":         {r.pageLat.quantileUS(0.9), "us"},
		"delay_p50_ns":        {r.delayGaps.quantile(0.5), "ns"},
		"delay_p99_ns":        {r.delayGaps.quantile(0.99), "ns"},
		"heap_bytes_per_node": {r.heapPerNode, "bytes"},
	}, nil
}

// coldSetupEnv, set to "<workload> <seed> <tree size>", makes the
// program time one set-up and print its seconds instead of running a
// workload. The compiled-program cache of internal/circuit lives as long
// as the process, so only the first set-up in a process pays the
// compile; every timed set-up therefore runs first in its process.
const coldSetupEnv = "PERFBENCH_COLD_SETUP"

// coldSetupTimeout bounds one set-up process.
const coldSetupTimeout = 120 * time.Second

// coldSetups times set-ups in fresh processes, one after the other,
// until r.setups holds setupRuns of them.
func (r *runner) coldSetups() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Hand the heap of the streamed session back before the children
	// build theirs.
	debug.FreeOSMemory()
	for len(r.setups) < setupRuns {
		ctx, cancel := context.WithTimeout(context.Background(), coldSetupTimeout)
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %d", coldSetupEnv, r.sp.name, r.cfg.seed, r.sp.n))
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return fmt.Errorf("set-up process: %v: %s", err, stderr.String())
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fmt.Errorf("set-up process printed %q", out)
		}
		r.setups = append(r.setups, s)
	}
	return nil
}

// coldSetup is the body of a set-up process: it generates the workload's
// tree, times one set-up on it and prints the seconds.
func coldSetup(arg string, stdout, stderr io.Writer) int {
	var name string
	var seed int64
	var n int
	if _, err := fmt.Sscan(arg, &name, &seed, &n); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s=%q: %v\n", coldSetupEnv, arg, err)
		return 2
	}
	sp, ok := specByName(name)
	if !ok || n < 1 {
		fmt.Fprintf(stderr, "perfbench: %s=%q: bad workload or size\n", coldSetupEnv, arg)
		return 2
	}
	sp.n = n
	r := newRunner(sp, config{seed: seed})
	t, err := r.newTree()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	runtime.GC()
	ss, d, err := r.setup(t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ss.close()
	fmt.Fprintln(stdout, d.Seconds())
	return 0
}

// runTraced spends half the stream with the engine in lock-step with the
// shadow pipeline, which yields every layer but the runtime one, and the
// other half with the engine alone, as an untraced run, which yields the
// runtime layer.
func (r *runner) runTraced() (map[string]metric, error) {
	half := r.timedStream() / 2
	if err := r.session(half, shadowed); err != nil {
		return nil, err
	}
	if r.sp.batch == 0 {
		r.checkAmortizedBound()
	}
	ms := r.layerMetrics()
	r.spans = r.tr.table()
	r.samples = map[string]int{"handoff": len(r.handoffLat)}
	r.pubLat, r.pubs, r.allocBytes, r.pace = nil, 0, 0, pacer{}
	if err := r.session(half, gcOnly); err != nil {
		return nil, err
	}
	ms["runtime.gc_cycles"] = metric{float64(r.gc.cycles), "count"}
	ms["runtime.gc_pause_ms"] = metric{r.gc.pause.Seconds() * 1e3, "ms"}
	ms["runtime.gc_cpu_fraction"] = metric{r.gc.cpuShare(), "ratio"}
	ms["runtime.alloc_bytes_per_pub"] = metric{float64(r.allocBytes) / float64(max(r.pubs, 1)), "bytes"}
	ms["runtime.publish_p99_us"] = metric{r.pubLat.quantileUS(0.99), "us"}
	r.samples["publish"] = len(r.pubLat)
	return ms, nil
}

// layerMetrics turns the shadow's spans and counts and the engine's
// counters of the shadowed half into the per-layer metrics.
func (r *runner) layerMetrics() map[string]metric {
	t := &r.tr
	pubs := float64(max(r.shadowPubs, 1))
	us, ns, ms := time.Microsecond, time.Nanosecond, time.Millisecond
	reuse := 0.0
	if all := r.shadowBuilt + r.shadowReused; all > 0 {
		reuse = float64(r.shadowReused) / float64(all)
	}
	perAnswer := 0.0
	if r.shadowAnswers > 0 {
		perAnswer = float64(t.agg[spDrain].self) / float64(r.shadowAnswers)
	}
	cover := 0.0
	if r.applyTime > 0 {
		cover = float64(t.writeSelf()) / float64(r.applyTime)
	}
	return map[string]metric{
		"forest.edit_us":                 {t.meanSelf(spForestEdit, us), "us"},
		"forest.drain_us":                {t.meanSelf(spForestDrain, us), "us"},
		"forest.fresh_nodes_per_pub":     {float64(r.shadowFresh) / pubs, "count"},
		"forest.rebalances":              {float64(r.rebalances), "count"},
		"forest.moved_roots_per_pub":     {float64(r.shadowMoved) / pubs, "count"},
		"circuit.box_ns":                 {t.meanSelf(spBox, ns), "ns"},
		"circuit.boxes_built_per_pub":    {float64(r.shadowBuilt) / pubs, "count"},
		"circuit.reuse_ratio":            {reuse, "ratio"},
		"circuit.reuse_check_ns":         {t.meanSelf(spReuseCheck, ns), "ns"},
		"circuit.gamma_us":               {t.meanSelf(spCircuitGamma, us), "us"},
		"circuit.program_ms":             {t.totalSelf(spProgram, ms), "ms"},
		"circuit.register_walk_ms":       {t.totalSelf(spRegisterWalk, ms), "ms"},
		"counting.unions_ns":             {t.meanSelf(spUnions, ns), "ns"},
		"counting.forget_ns":             {t.meanSelf(spForget, ns), "ns"},
		"counting.gamma_us":              {t.meanSelf(spCountingGamma, us), "us"},
		"enumerate.index_ns":             {t.meanSelf(spIndex, ns), "ns"},
		"enumerate.diff_us":              {t.totalSelf(spDiff, us) / pubs, "us"},
		"enumerate.diff_answers_per_pub": {float64(r.diffCount) / pubs, "count"},
		"enumerate.descend_us":           {t.meanSelf(spDescend, us), "us"},
		"enumerate.materialize_ns":       {t.meanSelf(spMaterialize, ns), "ns"},
		"enumerate.drain_ns_per_answer":  {perAnswer, "ns"},
		"tva.translate_ms":               {t.totalSelf(spTranslate, ms), "ms"},
		"tva.homogenize_ms":              {t.totalSelf(spHomogenize, ms), "ms"},
		"tva.unambiguous_ms":             {t.totalSelf(spUnambiguous, ms), "ms"},
		"engine.pipelines":               {float64(r.stats.Pipelines), "count"},
		"engine.registrations_deduped":   {float64(r.stats.RegistrationsDeduped), "count"},
		"engine.handoff_us":              {r.handoffLat.quantileUS(0.5), "us"},
		"engine.deltas_coalesced":        {float64(r.coalesced), "count"},
		"engine.layer_cover":             {cover, "ratio"},
	}
}

// table is the span dump written at exit: per span name, the number of
// spans and their total and self time.
func (t *tracer) table() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for id, a := range t.agg {
		if a.count == 0 {
			continue
		}
		out[spanNames[id]] = map[string]float64{
			"count":    float64(a.count),
			"total_ms": a.total.Seconds() * 1e3,
			"self_ms":  a.self.Seconds() * 1e3,
		}
	}
	return out
}

// maxRSS returns the process's peak resident set in KiB, or 0 where
// /proc is unavailable.
func maxRSS() int {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")))
			return kb
		}
	}
	return 0
}
