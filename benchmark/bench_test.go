package main

import (
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// quickOps is the fixed operation count of the smoke runs: enough for the
// stream to flip (every 10 windows at -quick scale) and replan.
const quickOps = 25

func quick(t *testing.T, workload string, seed uint64, trace int) *report {
	t.Helper()
	rep, err := runWorkload(options{workload: workload, seed: seed, ops: quickOps, quick: true, trace: trace}, 2)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.correct() {
		t.Fatalf("%s: not correct: %d of %d failed, first %v, invariant %v",
			workload, rep.Failed, rep.Attempted, rep.FirstErr, rep.Invariant)
	}
	return rep
}

// countMetrics are the metrics that count work rather than time it; at a fixed
// operation count they repeat exactly from run to run.
var countMetrics = []string{
	"imbalance",
	"sample.output_sample_size", "matrix.candidate_cells", "tiling.states", "partition.replication",
	"streamjoin.replans_per_flip", "streamjoin.reshipped_tuples",
	"multiway.intermediate_tuples", "planio.plan_bytes", "netexec.relayed_pairs", "netexec.admission_rejected",
}

func counts(reps ...*report) map[string]float64 {
	c := map[string]float64{}
	for _, r := range reps {
		for _, name := range countMetrics {
			if v, ok := r.Metrics[name]; ok {
				c[name] = v
			}
		}
	}
	return c
}

// reached and bypassed pin which layers each workload's traced run reaches and
// which it must not — the reason each workload is in the benchmark.
var reached = map[string][]string{
	"adhoc-band":       {"core.plan_ms", "sample.stream_sample_ms", "tiling.coarsen_ms", "keysort.sort_ns_per_key", "localjoin.merge_sum_ms"},
	"replay-equi-zipf": {"partition.route_ns_per_tuple", "exec.shuffle_ms", "localjoin.hash_build_ms", "localjoin.hash_probe_ms"},
	"fleet-band":       {"netexec.job_ms", "netexec.wire_bytes_per_tuple", "localjoin.merge_sum_ms"},
	"pool-small-jobs":  {"netexec.job_ms", "localjoin.cache_hit_rate", "netexec.admission_fastpath_share"},
	"stream-flip":      {"streamjoin.steady_gap_ms", "streamjoin.replan_gap_ms", "streamjoin.replans_per_flip", "streamjoin.reshipped_tuples"},
	"multiway-peer":    {"multiway.stage1_ms", "multiway.stage2_ms", "multiway.plan_ms", "planio.plan_bytes", "netexec.overlapped_stage2"},
}

var bypassed = map[string][]string{
	"adhoc-band":       {"netexec.job_ms", "netexec.wire_overhead_ms", "netexec.wire_bytes_per_tuple"},
	"replay-equi-zipf": {"core.plan_ms", "tiling.coarsen_ms", "netexec.wire_overhead_ms", "keysort.sort_ns_per_key"},
	"fleet-band":       {"core.plan_ms", "sample.stream_sample_ms"},
	"multiway-peer":    {"netexec.relayed_pairs"},
}

// TestSmoke runs every workload at -quick scale, untraced and traced: every
// operation's count matches the oracle, the result line carries every metric
// BENCHMARK.json names with its unit, the traced run reaches the layers the
// workload is there for, the same seed repeats every count exactly and
// another seed changes the inputs.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, traced := quick(t, w.Name, 42, 0), quick(t, w.Name, 42, 1)
			for _, c := range []struct {
				rep  *report
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				line := c.rep.line()
				if line.Attempted < quickOps || line.Failed != 0 || !line.Correct {
					t.Errorf("result line %+v", line)
				}
				if len(line.Metrics) != len(c.defs) {
					t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if v, ok := line.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: %+v, want unit %s", d.Name, v, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, plain.Metrics[d.Name])
				}
			}
			if r := traced.Metrics["trace_reconciliation"]; r < 0.9 || r > 1.1 {
				t.Errorf("span self times sum to %.3f of the operations' wall", r)
			}
			for _, name := range reached[w.Name] {
				if traced.Metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, traced.Metrics[name])
				}
			}
			for _, name := range bypassed[w.Name] {
				if traced.Metrics[name] != 0 {
					t.Errorf("%s = %v, want 0", name, traced.Metrics[name])
				}
			}

			again := counts(quick(t, w.Name, 42, 0), quick(t, w.Name, 42, 1))
			if first := counts(plain, traced); !maps.Equal(first, again) {
				t.Errorf("same seed, different counts:\n%v\n%v", first, again)
			}
			if other := counts(quick(t, w.Name, 43, 0)); other["imbalance"] == plain.Metrics["imbalance"] {
				t.Errorf("seed 43 gives the same imbalance %v as seed 42: the seed does not reach the inputs", other["imbalance"])
			}
		})
	}
}

// TestSeamsKeepThePath runs each workload's loop untraced and then through the
// seam decorators on the same instance: the decorators must forward every
// optional runtime interface, so results, shipped tuples, imbalance, replans
// and the sessions' exact counters are identical.
func TestSeamsKeepThePath(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			inst, err := w.setup(env{seed: 42, quick: true, traced: true, procs: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			type outcome struct {
				tuples    int64
				network   int64
				imbalance float64
				counters  map[string]int64
			}
			run := func(tr *tracer) outcome {
				rec := newRecorder(quickOps, 0)
				if err := inst.run(rec, tr); err != nil {
					t.Fatal(err)
				}
				if rec.failed != 0 {
					t.Fatalf("%d operations failed, first: %v", rec.failed, rec.firstErr)
				}
				o := outcome{tuples: rec.tuples, network: rec.network, imbalance: rec.imbalance()}
				if inst.counters != nil {
					o.counters = inst.counters()
					// How many chunks a worker consumes before a job's EOS is a
					// race with the sender by design (at this scale, whether
					// any), and so is how many stage-2 streams start before
					// stage 1 settles; that some do is a property of the path.
					delete(o.counters, "build_overlapped_chunks")
					o.counters["overlapped_stage2"] = min(o.counters["overlapped_stage2"], 1)
				}
				return o
			}
			plain, traced := run(nil), run(newTracer())
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("tracing changed the path:\nuntraced %+v\ntraced   %+v", plain, traced)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Command, []string{"bash", "benchmark/run.sh"}) || !slices.Equal(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v, want %v", kind, d.Name, g.Bound, d.Bound)
			}
			if len(d.Unit) > 16 || len(d.Name) > 64 {
				t.Errorf("%s metric %s: name or unit %q too long", kind, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) → [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
}
