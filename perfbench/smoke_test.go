package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMain lets the test binary serve as the set-up process that
// untraced runs start.
func TestMain(m *testing.M) {
	if arg, ok := os.LookupEnv(coldSetupEnv); ok {
		os.Exit(coldSetup(arg, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeScale divides every workload's tree size in the smoke test.
const smokeScale = 128

// endToEnd lists the end-to-end metrics every workload reports; a rename
// in the program or in BENCHMARK.json fails the test instead of silently
// dropping a metric.
var endToEnd = []string{
	"setup_s", "publish_p50_us", "publish_p90_us", "edits_per_s",
	"notify_p50_us", "notify_p90_us", "at_p50_us", "at_p90_us",
	"page_p50_us", "page_p90_us", "delay_p50_ns", "delay_p99_ns", "heap_bytes_per_node",
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run passes its correctness checks and emits exactly
// the metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs() {
		specNames = append(specNames, s.name)
	}
	if !slices.Equal(names, specNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, specNames)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	var e2e []string
	for _, m := range bf.EndToEnd {
		units[false][m.Name] = m.Unit
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Fatalf("BENCHMARK.json end_to_end %v, want %v", e2e, endToEnd)
	}
	for _, m := range bf.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, sp := range specs() {
		w := sp.name
		sp.n /= smokeScale
		for _, traced := range []bool{false, true} {
			trace := "0"
			if traced {
				trace = "1"
			}
			var stdout, stderr bytes.Buffer
			if code := execute(sp, config{seed: 3, seconds: 0.4, trace: traced}, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := units[traced]
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", w, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace %s: metric %s in %q, BENCHMARK.json says %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %s: metric %s is not in BENCHMARK.json", w, trace, name)
				}
			}
		}
	}
}
