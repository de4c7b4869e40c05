// Command ewhcoord coordinates a distributed join over ewhworker servers: it
// generates (or could load) a workload, builds the EWH plan, dials a
// persistent session to the workers, shuffles the tuples to them over TCP
// and prints the aggregated metrics.
//
//	ewhworker -addr 127.0.0.1:7071 &
//	ewhworker -addr 127.0.0.1:7072 &
//	ewhcoord -workers 127.0.0.1:7071,127.0.0.1:7072 -n 100000 -beta 3
//
// With no -workers flag it spawns in-process workers, which makes a
// single-binary demo of the full network path. -jobs N runs the join N
// times over the one dialed session (the dial-amortization the session
// protocol exists for), and -multiway runs the 3-way chain join pipeline
// distributed end to end, the stage-1 intermediate re-shuffling directly
// worker→worker. -planin executes a plan artifact written by
// ewhplan -planout, skipping the planning phase entirely (plan once,
// execute many); -timeout arms dial and per-operation IO deadlines and
// -job-timeout a per-job liveness deadline, so a hung worker fails a job
// instead of wedging the run. -retries N turns a failed job into a bounded
// recovery loop: the coordinator excludes the failed workers, re-plans over
// the survivors (re-profiling the relations, or shrinking/CI-falling-back a
// -planin artifact) and re-runs, backing off -retry-backoff doubling per
// attempt. -stream N switches to the continuous-join mode: N tuple windows
// arrive against a static base relation on one long-lived stream job, the
// window distribution flips mid-stream, and drift-triggered replanning
// live-repartitions the base without restarting the stream (-freeze-plan
// runs the same workload under the frozen first plan for comparison).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/multiway"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/streamjoin"
	"ewh/internal/workload"
)

func main() {
	var (
		workers    = flag.String("workers", "", "comma-separated worker addresses (empty: spawn in-process)")
		n          = flag.Int("n", 100000, "rows per relation")
		beta       = flag.Int64("beta", 3, "band half-width")
		z          = flag.Float64("z", 0.5, "zipf skew")
		j          = flag.Int("j", 4, "number of regions J")
		seed       = flag.Uint64("seed", 42, "random seed")
		jobs       = flag.Int("jobs", 1, "jobs to run over the one dialed session")
		mway       = flag.Bool("multiway", false, "run the 3-way chain join pipeline instead of a 2-way join")
		planin     = flag.String("planin", "", "execute a plan artifact (ewhplan -planout) instead of planning: plan once, execute many")
		timeout    = flag.Duration("timeout", 0, "dial and per-operation IO deadline on worker connections (0: none)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job liveness deadline: a worker silent this long fails the job instead of wedging it (0: none)")
		retries    = flag.Int("retries", 0, "retry a job this many times on worker failure, replanning over the survivors (0: fail fast)")
		backoff    = flag.Duration("retry-backoff", 50*time.Millisecond, "base delay before the first retry (doubles per attempt)")
		tenant     = flag.String("tenant", "", "tenant id declared in the session handshake: workers key admission control and resource budgets by it (empty: anonymous)")
		stream     = flag.Int("stream", 0, "run a continuous join: this many tuple windows arrive against the static base relation, with drift-triggered mid-stream replanning; the window distribution flips to a narrow range at the midpoint (0: off)")
		windowRows = flag.Int("window-rows", 0, "with -stream: rows per window (default n/10)")
		driftThr   = flag.Float64("drift", 0, "with -stream: replanning drift threshold in (0,1] (0: the streamjoin default)")
		freeze     = flag.Bool("freeze-plan", false, "with -stream: disable drift replanning; every window runs under the first window's plan (the control arm)")
	)
	flag.Parse()
	switch {
	case *n < 1:
		usage("-n %d: need at least one row per relation", *n)
	case *j < 1:
		usage("-j %d: need at least one region", *j)
	case *z < 0:
		usage("-z %v: the zipf skew cannot be negative", *z)
	case *windowRows < 0:
		usage("-window-rows %d: cannot be negative (0 = n/10)", *windowRows)
	case *beta < 0:
		usage("-beta %d: the band half-width cannot be negative", *beta)
	case *jobs < 1:
		usage("-jobs %d: need at least one job", *jobs)
	case *driftThr < 0 || *driftThr > 1:
		usage("-drift %v: the threshold lies in (0,1] (0 = the streamjoin default)", *driftThr)
	case *timeout < 0:
		usage("-timeout %v: cannot be negative (0 = none)", *timeout)
	case *jobTimeout < 0:
		usage("-job-timeout %v: cannot be negative (0 = none)", *jobTimeout)
	case *retries < 0:
		usage("-retries %d: cannot be negative (0 = fail fast)", *retries)
	case *backoff < 0:
		usage("-retry-backoff %v: cannot be negative", *backoff)
	}
	// A flag the chosen mode never reads is refused, not silently ignored.
	mode, unread := "the 2-way join", []string{"window-rows", "drift", "freeze-plan"}
	switch {
	case *stream > 0:
		mode, unread = "-stream", []string{"multiway", "jobs", "planin", "retries", "retry-backoff"}
	case *mway:
		// The chain is hard-wired to band(1) ⋈ equi and plans each stage itself.
		mode, unread = "-multiway", append(unread, "beta", "jobs", "planin")
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range unread {
		if set[name] {
			usage("-%s %v: %s never reads it", name, flag.Lookup(name).Value, mode)
		}
	}

	if *stream > 0 {
		runStream(streamArgs{workers: *workers, tenant: *tenant, n: *n, windows: *stream,
			windowRows: *windowRows, beta: *beta, z: *z, j: *j, seed: *seed,
			timeouts: netexec.Timeouts{Dial: *timeout, IO: *timeout, Job: *jobTimeout},
			driftThr: *driftThr, freeze: *freeze})
		return
	}

	r1 := workload.Zipfian(*n, int64(*n), *z, *seed)
	r2 := workload.Zipfian(*n, int64(*n), *z, *seed+1)
	model := cost.DefaultBand
	timeouts := netexec.Timeouts{Dial: *timeout, IO: *timeout, Job: *jobTimeout}
	retry := exec.RetryPolicy{MaxAttempts: *retries + 1, BaseDelay: *backoff}
	if *mway {
		// Both stages plan internally for J workers; no stage scheme is wider.
		addrs, stop := workerAddrs(*workers, *j)
		defer stop()
		runMultiway(addrs, *tenant, r1, r2, *n, *j, *seed, model, timeouts, retry)
		return
	}
	cond := join.NewBand(*beta)

	var scheme partition.Scheme
	// planFor rebuilds the plan when recovery shrinks the fleet below the
	// original worker count; at full strength it returns the original scheme.
	var planFor func(jw int) (partition.Scheme, error)
	execSeed := *seed + 2
	if *planin != "" {
		data, err := os.ReadFile(*planin)
		if err != nil {
			fatal(err)
		}
		artifact, err := planio.Decode(data)
		if err != nil {
			fatal(err)
		}
		scheme = artifact.Scheme
		execSeed = artifact.Seed + 2
		// No relations were ever profiled here, so a shrink that needs
		// fresh statistics (region plans with more regions than survivors)
		// falls back to the content-insensitive CI plan (§VI-E).
		planFor = func(jw int) (partition.Scheme, error) {
			shrunk, err := planio.ShrinkToFleet(artifact, jw)
			if errors.Is(err, planio.ErrNeedsReplan) {
				fmt.Fprintf(os.Stderr, "ewhcoord: %v; falling back to the CI plan\n", err)
				return partition.NewCI(jw), nil
			}
			if err != nil {
				return nil, err
			}
			return shrunk.Scheme, nil
		}
		fmt.Printf("plan artifact %s: %s with %d workers, seed %d (no planning phase)\n",
			*planin, scheme.Name(), scheme.Workers(), artifact.Seed)
	} else {
		plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: *j, Model: model, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		scheme = plan.Scheme
		// The relations are in hand: a shrunken fleet gets a fresh
		// content-sensitive plan sized to the survivors.
		planFor = func(jw int) (partition.Scheme, error) {
			if jw >= scheme.Workers() {
				return scheme, nil
			}
			p, err := core.PlanCSIO(r1, r2, cond, core.Options{J: jw, Model: model, Seed: *seed})
			if err != nil {
				return nil, err
			}
			return p.Scheme, nil
		}
		fmt.Printf("plan: %s with %d regions, m=%d, stats %v\n",
			plan.Scheme.Name(), plan.Scheme.Workers(), plan.M, plan.StatsDuration.Round(1e6))
	}

	addrs, stop := workerAddrs(*workers, scheme.Workers())
	defer stop()
	sess, err := netexec.DialTenant(context.Background(), *tenant, addrs, timeouts)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	start := time.Now()
	var res *exec.Result
	for i := 0; i < *jobs; i++ {
		res, err = exec.RunOverReplan(sess, r1, r2, cond, scheme.Workers(), planFor,
			model, exec.Config{Seed: execSeed, Retry: retry})
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%d job(s) over one session (1 dial per worker), total %v\n",
		*jobs, time.Since(start).Round(time.Millisecond))
	printResult(res, addrs)
}

// runMultiway executes the 3-way chain join R1 ⋈ Mid ⋈ R3 distributed over
// the session: the Mid relation's B keys ship as the re-key column and both
// stages run on the remote workers. The stage-1 intermediate re-shuffles
// directly worker→worker under a CSIO stage-2 plan built from the workers'
// statistics summaries.
func runMultiway(addrs []string, tenant string, r1, r2 []join.Key, n, j int, seed uint64, model cost.Model,
	timeouts netexec.Timeouts, retry exec.RetryPolicy) {

	mid := multiway.MidRelation{
		A: r2,
		B: workload.Zipfian(n, int64(n), 0.3, seed+7),
	}
	r3 := workload.Zipfian(n, int64(n), 0.3, seed+8)
	q := multiway.Query{R1: r1, Mid: mid, R3: r3,
		CondA: join.NewBand(1), CondB: join.Equi{}}

	sess, err := netexec.DialTenant(context.Background(), tenant, addrs, timeouts)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	res, err := multiway.ExecuteOver(sess, q, core.Options{J: j, Model: model, Seed: seed},
		exec.Config{Seed: seed + 2, Retry: retry})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("multiway (peer shuffle): |R1 ⋈ Mid ⋈ R3| = %d (intermediate %d, %d pairs relayed through coordinator)\n",
		res.Output, res.Intermediate, sess.RelayedPairs())
	for i, st := range res.Stages {
		fmt.Printf("  stage %d: %s plan=%v %v\n", i+1, st.Scheme,
			st.PlanDuration.Round(time.Millisecond), st.Exec)
	}
}

// streamArgs bundles the continuous-join mode's knobs.
type streamArgs struct {
	workers    string
	tenant     string
	n          int
	windows    int
	windowRows int
	beta       int64
	z          float64
	j          int
	seed       uint64
	timeouts   netexec.Timeouts
	driftThr   float64
	freeze     bool
}

// runStream executes the continuous-join demo: a stream of tuple windows
// joining against a static base relation on a long-lived stream job, with
// the window distribution flipping into a narrow range at the midpoint. With
// replanning on, the drift metric catches the flip and the base is live-
// repartitioned under a fresh plan mid-stream; -freeze-plan shows what the
// frozen plan costs on the same workload.
func runStream(a streamArgs) {
	rows := a.windowRows
	if rows <= 0 {
		rows = a.n / 10
		if rows < 1 {
			rows = 1
		}
	}
	base := workload.Zipfian(a.n, int64(a.n), a.z, a.seed)
	narrow := int64(a.n)/50 + 1
	flip := a.windows / 2
	windows := make([][]join.Key, a.windows)
	for i := range windows {
		span := int64(a.n)
		if i >= flip && flip > 0 {
			span = narrow
		}
		windows[i] = workload.Uniform(rows, span, a.seed+10+uint64(i))
	}

	addrs, stop := workerAddrs(a.workers, a.j)
	defer stop()
	sess, err := netexec.DialTenant(context.Background(), a.tenant, addrs, a.timeouts)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()

	cfg := streamjoin.Config{
		Opts:           core.Options{J: a.j, Model: cost.DefaultBand, Seed: a.seed},
		Exec:           exec.Config{Seed: a.seed + 2},
		Stats:          exec.StatsSpec{Seed: a.seed + 3},
		DriftThreshold: a.driftThr,
		FreezePlan:     a.freeze,
	}
	start := time.Now()
	res, err := streamjoin.Run(sess, base, windows, join.NewBand(a.beta), cfg)
	if err != nil {
		fatal(err)
	}
	mode := "drift replanning"
	if a.freeze {
		mode = "frozen plan"
	}
	fmt.Printf("continuous join (%s): %d windows x %d rows vs %d-row base, total %d matches in %v\n",
		mode, len(res.Windows), rows, a.n, res.Total, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %d replan(s), %d fault(s), modeled makespan %.0f, %d pairs relayed through coordinator\n",
		res.Replans, res.Faults, res.Makespan, sess.RelayedPairs())
	for _, w := range res.Windows {
		marker := ""
		if w.Replanned {
			marker = "  << drift replan"
		}
		fmt.Printf("  window %2d: epoch %d in=%d matches=%d drift=%.3f work=%.0f%s\n",
			w.Window, w.Epoch, w.Input, w.Count, w.Drift, w.Makespan, marker)
	}
}

// workerAddrs splits the -workers list or, when it is empty, spawns n
// in-process workers; stop closes the spawned ones.
func workerAddrs(list string, n int) (addrs []string, stop func()) {
	if list != "" {
		return strings.Split(list, ","), func() {}
	}
	var ws []*netexec.Worker
	for i := 0; i < n; i++ {
		w, err := netexec.ListenWorker("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		go func() { _ = w.Serve() }()
		ws = append(ws, w)
		addrs = append(addrs, w.Addr())
	}
	fmt.Printf("spawned %d in-process workers\n", len(addrs))
	return addrs, func() {
		for _, w := range ws {
			_ = w.Close()
		}
	}
}

func printResult(res *exec.Result, addrs []string) {
	fmt.Println(res)
	for i, w := range res.Workers {
		fmt.Printf("  worker %2d @ %s: in=%d out=%d work=%.0f\n",
			i, addrs[i], w.Input(), w.Output, w.Work)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ewhcoord:", err)
	os.Exit(1)
}

// usage rejects a flag value before anything runs: one line naming the flag,
// exit status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ewhcoord: "+format+"\n", args...)
	os.Exit(2)
}
