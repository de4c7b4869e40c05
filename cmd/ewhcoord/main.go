// Command ewhcoord coordinates a distributed join over ewhworker servers: it
// generates (or could load) a workload, builds the EWH plan, dials a
// persistent session to the workers, shuffles the tuples to them over TCP
// and prints the aggregated metrics.
//
//	ewhworker -addr 127.0.0.1:7071 &
//	ewhworker -addr 127.0.0.1:7072 &
//	ewhcoord -workers 127.0.0.1:7071,127.0.0.1:7072 -n 100000 -beta 3
//
// J is the fleet's size: the length of the -workers list or, with no list,
// the -j in-process workers it spawns (a single-binary demo of the full
// network path). -multiway runs the 3-way chain join pipeline distributed end
// to end, the stage-1 intermediate re-shuffling directly worker→worker.
// -planin executes a plan artifact written by ewhplan -planout, skipping the
// planning phase entirely (plan once, execute many); with no -workers list
// it spawns the artifact's worker count, and a listed fleet of another size
// gets the artifact shrunk to it. -timeout arms dial and per-operation IO
// deadlines and -job-timeout a per-job liveness deadline, so a hung worker
// fails a job instead of wedging the run. -retries N turns a failed job into
// a bounded recovery loop: the coordinator excludes the failed workers,
// re-plans over the survivors (re-profiling the relations, or
// shrinking/CI-falling-back a -planin artifact) and re-runs, backing off
// 50 ms doubling per attempt. -stream N switches to the continuous-join mode:
// N windows of n/10 tuples arrive against a static base relation on one
// long-lived stream job, the window distribution flips mid-stream, and
// drift-triggered replanning live-repartitions the base without restarting
// the stream (examples/calllogstream runs the frozen-plan control arm beside
// it).
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
		workers    = flag.String("workers", "", "comma-separated worker addresses; J is their count (empty: spawn -j in-process workers)")
		n          = flag.Int("n", 100000, "rows per relation")
		beta       = flag.Int64("beta", 3, "band half-width")
		z          = flag.Float64("z", 0.5, "zipf skew")
		j          = flag.Int("j", 4, "number of regions J: the in-process workers to spawn (-workers and -planin set J themselves)")
		seed       = flag.Uint64("seed", 42, "random seed")
		mway       = flag.Bool("multiway", false, "run the 3-way chain join pipeline instead of a 2-way join")
		planin     = flag.String("planin", "", "execute a plan artifact (ewhplan -planout) instead of planning: plan once, execute many")
		timeout    = flag.Duration("timeout", 0, "dial and per-operation IO deadline on worker connections (0: none)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job liveness deadline: a worker silent this long fails the job instead of wedging it (0: none)")
		retries    = flag.Int("retries", 0, "retry a job this many times on worker failure, replanning over the survivors (0: fail fast)")
		tenant     = flag.String("tenant", "", "tenant id declared in the session handshake: workers key admission control and resource budgets by it (empty: anonymous)")
		stream     = flag.Int("stream", 0, "run a continuous join: this many windows of n/10 rows arrive against the static base relation, with drift-triggered mid-stream replanning; the window distribution flips to a narrow range at the midpoint (0: off)")
	)
	flag.Parse()
	switch {
	case *n < 1:
		usage("-n %d: need at least one row per relation", *n)
	case *j < 1:
		usage("-j %d: need at least one region", *j)
	case *z < 0:
		usage("-z %v: the zipf skew cannot be negative", *z)
	case *beta < 0:
		usage("-beta %d: the band half-width cannot be negative", *beta)
	case *timeout < 0:
		usage("-timeout %v: cannot be negative (0 = none)", *timeout)
	case *jobTimeout < 0:
		usage("-job-timeout %v: cannot be negative (0 = none)", *jobTimeout)
	case *retries < 0:
		usage("-retries %d: cannot be negative (0 = fail fast)", *retries)
	}
	// A flag the chosen run never reads is refused, not silently ignored.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	refuse := func(why string, names ...string) {
		for _, name := range names {
			if set[name] {
				usage("-%s %v: %s", name, flag.Lookup(name).Value, why)
			}
		}
	}
	switch {
	case *stream > 0:
		refuse("-stream never reads it", "multiway", "planin", "retries")
	case *mway:
		// The chain is hard-wired to band(1) ⋈ equi and plans each stage itself.
		refuse("-multiway never reads it", "beta", "planin")
	}
	switch {
	case *workers != "":
		refuse("J is the length of the -workers list", "j")
	case *planin != "":
		refuse("J is the -planin artifact's worker count", "j")
	}

	var artifact *planio.Artifact
	fleet := *j
	if *planin != "" {
		data, err := os.ReadFile(*planin)
		if err != nil {
			fatal(err)
		}
		if artifact, err = planio.Decode(data); err != nil {
			fatal(err)
		}
		if err := exec.CheckScheme(artifact.Scheme, join.NewBand(*beta)); err != nil {
			usage("-planin %s: %v", *planin, err)
		}
		fleet = artifact.Scheme.Workers()
		fmt.Printf("plan artifact %s: %s with %d workers, seed %d (no planning phase)\n",
			*planin, artifact.Scheme.Name(), fleet, artifact.Seed)
	}
	var addrs []string
	if *workers != "" {
		addrs = strings.Split(*workers, ",")
	} else {
		var stop func()
		addrs, stop = spawnWorkers(fleet)
		defer stop()
	}
	sess, err := netexec.DialTenant(context.Background(), *tenant, addrs,
		netexec.Timeouts{Dial: *timeout, IO: *timeout, Job: *jobTimeout})
	if err != nil {
		fatal(err)
	}
	defer sess.Close()

	r1 := workload.Zipfian(*n, int64(*n), *z, *seed)
	r2 := workload.Zipfian(*n, int64(*n), *z, *seed+1)
	cfg := exec.Config{Seed: *seed + 2, Retries: *retries}
	switch {
	case *stream > 0:
		runStream(sess, r1, *stream, *beta, *seed)
	case *mway:
		runMultiway(sess, r1, r2, *seed, cfg)
	default:
		runPair(sess, r1, r2, join.NewBand(*beta), artifact, *seed, cfg)
	}
}

// runPair runs the 2-way band join over the whole fleet, planned afresh from
// the relations or taken from a plan artifact (nil: plan afresh). planFor
// sizes the scheme to a fleet: the first attempt asks for the session's
// width, and recovery asks again for the survivors'.
func runPair(sess *netexec.Session, r1, r2 []join.Key, cond join.Condition,
	artifact *planio.Artifact, seed uint64, cfg exec.Config) {

	model := cost.DefaultBand
	var planFor func(jw int) (partition.Scheme, error)
	if artifact != nil {
		cfg.Seed = artifact.Seed + 2
		// No relations were ever profiled here, so a shrink that needs
		// fresh statistics (region plans with more regions than workers)
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
	} else {
		plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: sess.Workers(), Model: model, Seed: seed})
		if err != nil {
			fatal(err)
		}
		// The relations are in hand: a shrunken fleet gets a fresh
		// content-sensitive plan sized to the survivors.
		planFor = func(jw int) (partition.Scheme, error) {
			if jw >= plan.Scheme.Workers() {
				return plan.Scheme, nil
			}
			p, err := core.PlanCSIO(r1, r2, cond, core.Options{J: jw, Model: model, Seed: seed})
			if err != nil {
				return nil, err
			}
			return p.Scheme, nil
		}
		fmt.Printf("plan: %s with %d regions, m=%d, stats %v\n",
			plan.Scheme.Name(), plan.Scheme.Workers(), plan.M, plan.Stages.Total().Round(1e6))
	}
	res, err := exec.RunOverReplan(sess, r1, r2, cond, sess.Workers(), planFor, model, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println(res)
	addrs := sess.Addrs()
	for i, w := range res.Workers {
		fmt.Printf("  worker %2d @ %s: in=%d out=%d work=%.0f\n",
			i, addrs[i], w.Input(), w.Output, w.Work)
	}
}

// runMultiway executes the 3-way chain join R1 ⋈ Mid ⋈ R3 distributed over
// the session: the Mid relation's B keys ship as the re-key column and both
// stages run on the remote workers. The stage-1 intermediate re-shuffles
// directly worker→worker under a CSIO stage-2 plan built from the workers'
// statistics summaries.
func runMultiway(sess *netexec.Session, r1, r2 []join.Key, seed uint64, cfg exec.Config) {
	n := len(r1)
	mid := multiway.MidRelation{
		A: r2,
		B: workload.Zipfian(n, int64(n), 0.3, seed+7),
	}
	r3 := workload.Zipfian(n, int64(n), 0.3, seed+8)
	q := multiway.Query{R1: r1, Mid: mid, R3: r3,
		CondA: join.NewBand(1), CondB: join.Equi{}}
	res, err := multiway.ExecuteOver(sess, q,
		core.Options{J: sess.Workers(), Model: cost.DefaultBand, Seed: seed}, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("multiway (peer shuffle): |R1 ⋈ Mid ⋈ R3| = %d (intermediate %d)\n",
		res.Output, res.Intermediate)
	for i, st := range res.Stages {
		fmt.Printf("  stage %d: %s plan=%v %v\n", i+1, st.Scheme,
			st.PlanDuration.Round(time.Millisecond), st.Exec)
	}
}

// runStream executes the continuous-join demo: windows of n/10 tuples join
// against the static base relation on a long-lived stream job, with the
// window distribution flipping into a narrow range at the midpoint. The drift
// metric catches the flip and the base is live-repartitioned under a fresh
// plan mid-stream.
func runStream(sess *netexec.Session, base []join.Key, windows int, beta int64, seed uint64) {
	n := len(base)
	rows := max(n/10, 1)
	narrow := int64(n)/50 + 1
	flip := windows / 2
	ws := make([][]join.Key, windows)
	for i := range ws {
		span := int64(n)
		if i >= flip && flip > 0 {
			span = narrow
		}
		ws[i] = workload.Uniform(rows, span, seed+10+uint64(i))
	}

	cfg := streamjoin.Config{
		Opts:  core.Options{Model: cost.DefaultBand, Seed: seed},
		Exec:  exec.Config{Seed: seed + 2},
		Stats: exec.StatsSpec{Seed: seed + 3},
	}
	start := time.Now()
	res, err := streamjoin.Run(sess, base, ws, join.NewBand(beta), cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("continuous join: %d windows x %d rows vs %d-row base, total %d matches in %v\n",
		len(res.Windows), rows, n, res.Total, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %d replan(s), %d fault(s), modeled makespan %.0f\n",
		res.Replans, res.Faults, res.Makespan)
	for _, w := range res.Windows {
		marker := ""
		if w.Replanned {
			marker = "  << drift replan"
		}
		fmt.Printf("  window %2d: epoch %d in=%d matches=%d drift=%.3f work=%.0f%s\n",
			w.Window, w.Epoch, w.Input, w.Count, w.Drift, w.Makespan, marker)
	}
}

// spawnWorkers starts n in-process workers; stop closes them.
func spawnWorkers(n int) (addrs []string, stop func()) {
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
