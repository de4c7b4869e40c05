// Command benchmark is the repository's performance instrument: six named
// workloads run as closed loops against the join system, with end-to-end
// metrics measured untraced and per-layer metrics from a separate traced run.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// options are the command line of one benchmark process.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	ops      int
	quick    bool
	traceOut string
	aa       int
}

// warmupOps run before the timed loop and count towards set-up.
const warmupOps = 3

// setupRounds is how often an untraced run sets the workload up; setup_s is
// the median, which one slow page-in or port bind does not move.
const setupRounds = 5

// gcPercent is the GOGC the benchmark process runs at. At the default 100 the
// peak RSS of one seed of multiway-peer ranged from 234 to 338 MB between
// runs, because the peak depends on where in an operation a collection happens
// to start; at 50 it stays within 138–145 MB, and no workload got slower.
const gcPercent = 50

// untracedShare is the part of a traced run's time that runs without the
// tracer, to measure what tracing costs.
const untracedShare = 0.3

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process; empty runs every workload, each in a child process")
	flag.Uint64Var(&o.seed, "seed", 42, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long a run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&o.ops, "ops", 0, "measure exactly this many operations instead of -seconds (counts then repeat exactly)")
	flag.BoolVar(&o.quick, "quick", false, "rows ÷ 50, for smoke tests")
	flag.StringVar(&o.traceOut, "traceout", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	flag.IntVar(&o.aa, "aa", 0, "run every workload untraced this many times on consecutive seeds and check each metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)

	var err error
	switch {
	case o.workload != "":
		var rep *report
		if rep, err = runWorkload(o, procs); err == nil {
			rep.print(os.Stdout)
		}
	case o.aa > 0:
		err = runAA(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is the outcome of one workload run.
type report struct {
	Workload  string
	Seed      uint64
	Procs     int
	Traced    bool
	Attempted int
	Failed    int
	FirstErr  error
	Invariant error
	Metrics   map[string]float64
	// Diagnostics are printed but are not metrics: values that are not steady
	// enough to gate, or that only explain the others.
	Diagnostics []string
	Layers      []layerRow // traced: self time per span name
	Ops         int        // traced: operations the spans cover
}

func (r *report) correct() bool { return r.Failed == 0 && r.Invariant == nil }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

func (r *report) line() resultLine {
	l := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range r.defs() {
		l.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return l
}

func (r *report) print(w *os.File) {
	mode := "untraced (end-to-end metrics)"
	if r.Traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  nproc %d  GOMAXPROCS %d  J %d  %s\n",
		r.Workload, r.Seed, mode, runtime.NumCPU(), r.Procs, joiners, runtime.Version())
	fmt.Fprintf(w, "operations attempted %d  failed %d  failed_share %.4f\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	if r.FirstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.FirstErr)
	}
	if r.Invariant != nil {
		fmt.Fprintf(w, "invariant violated: %v\n", r.Invariant)
	}
	fmt.Fprintf(w, "%-34s %16s  %-9s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	unreached := 0
	for _, d := range r.defs() {
		bound := "-"
		if !r.Traced {
			bound = fmt.Sprintf("%.2f", d.Bound)
		} else if r.Metrics[d.Name] == 0 {
			unreached++
			continue
		}
		fmt.Fprintf(w, "%-34s %16.4f  %-9s %-7s %s\n", d.Name, r.Metrics[d.Name], d.Unit, d.Better, bound)
	}
	if unreached > 0 {
		fmt.Fprintf(w, "(%d layer metrics are 0: this workload does not reach those layers)\n", unreached)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "span self time over %d traced operations:\n", r.Ops)
		for _, l := range r.Layers {
			fmt.Fprintf(w, "  %-30s %8d spans %12.3f ms self  %10.4f ms/op\n",
				l.Name, l.Count, ms(l.Self), ms(l.Self)/float64(max(r.Ops, 1)))
		}
	}
	data, _ := json.Marshal(r.line()) // a map of plain structs cannot fail to marshal
	fmt.Fprintf(w, "%s\n", data)
}

// runWorkload sets one workload up, measures it in this process and checks
// every result. An error means the run could not be carried out at all;
// failed operations and violated invariants are in the report.
func runWorkload(o options, procs int) (*report, error) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.Name == o.workload })
	if i < 0 {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.ops <= 0 && o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: need a positive run length", o.seconds)
	}
	traced := o.trace != 0
	e := env{seed: o.seed, quick: o.quick, traced: traced, procs: procs}

	// Set-up, several times over when it is being measured: generate inputs,
	// compute the oracle, listen and dial, build prebuilt plans, warm up.
	rounds := setupRounds
	if traced {
		rounds = 1
	}
	var inst *instance
	var setups []time.Duration
	for k := range rounds {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = workloads[i].setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		warm := newRecorder(warmupOps, 0)
		if err := inst.run(warm, nil); err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up: %w", o.workload, err)
		}
		if warm.failed > 0 {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up (set-up round %d): %w", o.workload, k, warm.firstErr)
		}
		setups = append(setups, time.Since(t0))
	}
	defer inst.close()

	rep := &report{Workload: o.workload, Seed: o.seed, Procs: procs, Traced: traced,
		Metrics: map[string]float64{}}
	var err error
	if traced {
		err = measureLayers(o, inst, rep)
	} else {
		err = measureEndToEnd(o, inst, rep)
		rep.Metrics["setup_s"] = median(setups).Seconds()
		rep.Diagnostics = append(rep.Diagnostics, fmt.Sprintf("diagnostic set-up rounds %v", setups))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v s", o.workload, o.seconds)
	}
	if inst.invariant != nil {
		rep.Invariant = inst.invariant()
	}
	return rep, nil
}

// count adds a finished loop's operations to the report.
func (r *report) count(rec *recorder) {
	r.Attempted += rec.attempted()
	r.Failed += rec.failed
	if r.FirstErr == nil {
		r.FirstErr = rec.firstErr
	}
}

// measureEndToEnd runs the timed loop with tracing off.
func measureEndToEnd(o options, inst *instance, rep *report) error {
	rec := newRecorder(o.ops, o.seconds)
	if err := inst.run(rec, nil); err != nil {
		return err
	}
	rep.count(rec)
	rep.Metrics["result_ms"] = ms(median(rec.lat))
	rep.Metrics["tuples_per_s"] = float64(rec.tuples) / rec.wall().Seconds()
	rep.Metrics["peak_rss_mb"] = peakRSSMB()
	rep.Metrics["imbalance"] = rec.imbalance()
	if pct, v := tail(rec.lat); pct > 0 {
		rep.Diagnostics = append(rep.Diagnostics, fmt.Sprintf(
			"diagnostic result_p%.1f_ms %.4f (highest percentile with 10 samples beyond it; %d samples)",
			pct, ms(v), len(rec.lat)))
	}
	rep.Diagnostics = append(rep.Diagnostics, fmt.Sprintf("diagnostic timed section %.3f s", rec.wall().Seconds()))
	return nil
}

// measureLayers runs an untraced stretch and then the traced loop — their
// medians give what the tracing itself costs — and after it the layer probes.
func measureLayers(o options, inst *instance, rep *report) error {
	plain := newRecorder(o.ops, o.seconds*untracedShare)
	if err := inst.run(plain, nil); err != nil {
		return err
	}
	rep.count(plain)

	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := newRecorder(o.ops, o.seconds*(1-untracedShare))
	if err := inst.run(rec, tr); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	rep.count(rec)
	rep.Layers, rep.Ops = tr.selfTimes(), rec.attempted()
	ops := float64(max(rec.attempted(), 1))
	rep.Metrics["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops

	// The root spans are the operations, so the self times must add back up
	// to the operations' own wall.
	var self, opWall time.Duration
	for _, l := range rep.Layers {
		self += l.Self
	}
	for _, d := range rec.lat {
		opWall += d
	}
	r := float64(self) / float64(max(opWall, 1))
	rep.Metrics["trace_reconciliation"] = r
	if r < 0.9 || r > 1.1 {
		rep.Diagnostics = append(rep.Diagnostics, fmt.Sprintf(
			"WARNING span self times sum to %.3f of the traced operations' wall (want within 10%%)", r))
	}
	if base := median(plain.lat); base > 0 {
		s := float64(median(rec.lat)-base) / float64(base)
		rep.Metrics["trace_overhead_share"] = s
		if s > 0.05 {
			rep.Diagnostics = append(rep.Diagnostics, fmt.Sprintf(
				"WARNING tracing slowed the median operation by %.1f%% (above 5%%)", 100*s))
		}
	}

	if err := inst.layers(tr, rec, rep.Metrics); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	if o.traceOut != "" {
		if err := tr.writeChrome(o.traceOut); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}
