package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/multiway"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/streamjoin"
	"ewh/internal/workload"
)

// workloadDef is one named workload. Why is the reason it is in the benchmark
// (BENCHMARK.json repeats it).
type workloadDef struct {
	Name, Why string
	setup     func(e env) (*instance, error)
}

// env is what a workload's set-up is given.
type env struct {
	seed   uint64
	quick  bool // rows ÷ 50, for the smoke tests
	traced bool // count wire bytes on the fleet's listeners
	procs  int  // GOMAXPROCS, also the shuffle's mapper count
}

func (e env) rows(n int) int {
	if e.quick {
		return n / 50
	}
	return n
}

func (e env) execConfig() exec.Config { return exec.Config{Seed: e.seed, Mappers: e.procs} }

func (e env) planOptions() core.Options {
	return core.Options{J: joiners, Model: model, Seed: e.seed}
}

// instance is a workload that has been set up: inputs generated, oracle
// computed, fleet listening and dialed, plans that are not part of the
// operation built.
type instance struct {
	// run drives the workload's closed loop until rec says stop, recording
	// every operation. With a tracer it runs through the seam decorators.
	run func(rec *recorder, tr *tracer) error
	// layers fills the per-layer metrics after a traced run.
	layers func(tr *tracer, rec *recorder, m map[string]float64) error
	// counters reads the transport's exact counters accumulated by the last
	// run; the path-identity test compares them between traced and untraced.
	counters func() map[string]int64
	// invariant reports a violated condition that makes the run incorrect
	// although every operation's count was right.
	invariant func() error
	close     func()
}

var workloads = []workloadDef{
	{"adhoc-band",
		"Skewed band join planned afresh each time: the only workload where sampling, histogram, matrix and tiling do most of the work; the wire does none.",
		setupAdhocBand},
	{"replay-equi-zipf",
		"Zipf equi-join under a plan built once: region routing, scatter and the hash engine do all the work; the bypass for every planner or wire change.",
		setupReplayEquiZipf},
	{"fleet-band",
		"adhoc-band's data and plan over one session to 4 loopback workers: wire encode, transit, decode and worker-side sort+merge; fleet minus local is the wire.",
		setupFleetBand},
	{"pool-small-jobs",
		"Two tenants running 20k-row jobs on a shared fleet with one admission slot: framing, admission, dispatch and the build cache dominate, bytes do not.",
		setupPoolSmallJobs},
	{"stream-flip",
		"One long stream whose window distribution flips every 100 windows: planning from summaries, epoch cutover and base re-partitioning beside window joins.",
		setupStreamFlip},
	{"multiway-peer",
		"3-way chain through the peer shuffle with a stats-deferred stage-2 plan: the only workload through the peer mesh, the stage pipeline and the plan codec.",
		setupMultiwayPeer},
}

// localSeam is the in-process runtime, decorated when tracing. at positions
// the decorator on the operation about to run.
func localSeam(tr *tracer) (rt exec.Runtime, at func(op, parent int)) {
	if tr == nil {
		return exec.Local{}, func(int, int) {}
	}
	t := &tracedRuntime{inner: exec.Local{}, name: "exec.Local.RunJob", tr: tr, parent: -1}
	return t, t.at
}

// sessionSeam is localSeam for a session; ts is nil when not tracing.
func sessionSeam(sess *netexec.Session, tr *tracer) (rt exec.Runtime, ts *tracedSession) {
	if tr == nil {
		return sess, nil
	}
	ts = newTracedSession(sess, tr)
	return ts, ts
}

func (t *tracedSession) position(op, parent int) {
	if t != nil {
		t.at(op, parent)
	}
}

// joinOnce runs one two-way join through rt and checks its count.
func joinOnce(rt exec.Runtime, r1, r2 []join.Key, cond join.Condition, scheme partition.Scheme,
	cfg exec.Config, want int64) (opStats, error) {

	res, err := exec.RunOver(rt, r1, r2, cond, scheme, model, cfg)
	if err := checked(outputOf(res), want, err); err != nil {
		return opStats{}, err
	}
	return joinStats(res, len(r1)+len(r2)), nil
}

// sessionCounters are a session's exact counters.
func sessionCounters(ss ...*netexec.Session) map[string]int64 {
	c := map[string]int64{}
	for _, s := range ss {
		c["build_overlapped_chunks"] += s.BuildOverlappedChunks()
		c["overlapped_stage2"] += s.OverlappedStage2()
		c["relayed_pairs"] += s.RelayedPairs()
	}
	return c
}

func minus(a, b map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

// bandInputs is the paper's headline skewed band join (Table IV, BCB β=3):
// 1M tuples per relation, a dense stripe producing almost all the output.
func bandInputs(e env) (r1, r2 []join.Key, cond join.Condition, want int64) {
	r1, r2, cond = workload.BCB(e.rows(200_000), 3, e.seed)
	return r1, r2, cond, localjoin.Count(r1, r2, cond)
}

func setupAdhocBand(e env) (*instance, error) {
	r1, r2, cond, want := bandInputs(e)
	opts, cfg := e.planOptions(), e.execConfig()
	return &instance{
		run: func(rec *recorder, tr *tracer) error {
			rt, at := localSeam(tr)
			for i := 0; rec.more(); i++ {
				t0 := time.Now()
				root := tr.begin("adhoc-band join", i, -1)
				pid := tr.begin("core.PlanCSIO", i, root)
				plan, err := core.PlanCSIO(r1, r2, cond, opts)
				tr.end(pid)
				var stats opStats
				if err == nil {
					rid := tr.begin("exec.RunOver", i, root)
					at(i, rid)
					stats, err = joinOnce(rt, r1, r2, cond, plan.Scheme, cfg, want)
					tr.end(rid)
				}
				tr.end(root)
				rec.done(time.Since(t0), stats, err)
			}
			return nil
		},
		layers: func(tr *tracer, _ *recorder, m map[string]float64) error {
			if err := probePlanner(tr, r1, r2, cond, opts, m); err != nil {
				return err
			}
			m["core.plan_ms"] = ms(median(tr.durations("core.PlanCSIO")))
			plan, err := core.PlanCSIO(r1, r2, cond, opts)
			if err != nil {
				return err
			}
			return probeJoin(tr, r1, r2, cond, plan.Scheme, cfg, want, m)
		},
		close: func() {},
	}, nil
}

func setupReplayEquiZipf(e env) (*instance, error) {
	n := e.rows(2_000_000)
	r1 := workload.Zipfian(n, int64(n), 0.6, e.seed)
	r2 := workload.Zipfian(n, int64(n), 0.6, e.seed+1)
	cond := join.Equi{}
	want := localjoin.Count(r1, r2, cond)
	cfg := e.execConfig()
	plan, err := core.PlanCSIO(r1, r2, cond, e.planOptions())
	if err != nil {
		return nil, err
	}
	if plan.Fallback {
		return nil, errors.New("CSIO fell back to CI; the workload would not route by regions")
	}
	return &instance{
		run: func(rec *recorder, tr *tracer) error {
			rt, at := localSeam(tr)
			localLoop(rec, tr, rt, at, "replay-equi-zipf join", r1, r2, cond, plan.Scheme, cfg, want)
			return nil
		},
		layers: func(tr *tracer, _ *recorder, m map[string]float64) error {
			return probeJoin(tr, r1, r2, cond, plan.Scheme, cfg, want, m)
		},
		close: func() {},
	}, nil
}

// localLoop is the closed loop of a workload whose operation is one
// exec.RunOver under a prebuilt plan.
func localLoop(rec *recorder, tr *tracer, rt exec.Runtime, at func(op, parent int), name string,
	r1, r2 []join.Key, cond join.Condition, scheme partition.Scheme, cfg exec.Config, want int64) {

	for i := 0; rec.more(); i++ {
		t0 := time.Now()
		root := tr.begin(name, i, -1)
		at(i, root)
		stats, err := joinOnce(rt, r1, r2, cond, scheme, cfg, want)
		tr.end(root)
		rec.done(time.Since(t0), stats, err)
	}
}

func setupFleetBand(e env) (*instance, error) {
	r1, r2, cond, want := bandInputs(e)
	cfg := e.execConfig()
	plan, err := core.PlanCSIO(r1, r2, cond, e.planOptions())
	if err != nil {
		return nil, err
	}
	f, err := startFleet(joiners, netexec.AdmissionConfig{}, e.traced)
	if err != nil {
		return nil, err
	}
	sess, err := netexec.Dial(f.addrs)
	if err != nil {
		f.close()
		return nil, err
	}
	var before map[string]int64
	var wire int64
	return &instance{
		run: func(rec *recorder, tr *tracer) error {
			before = sessionCounters(sess)
			rt, ts := sessionSeam(sess, tr)
			wire0 := f.wireBytes()
			localLoop(rec, tr, rt, ts.position, "fleet-band join", r1, r2, cond, plan.Scheme, cfg, want)
			wire = f.wireBytes() - wire0
			return nil
		},
		layers: func(tr *tracer, rec *recorder, m map[string]float64) error {
			if err := probeJoin(tr, r1, r2, cond, plan.Scheme, cfg, want, m); err != nil {
				return err
			}
			local, remote, err := probeWire(tr, sess, r1, r2, cond, plan.Scheme, cfg, want)
			if err != nil {
				return err
			}
			m["netexec.job_ms"] = ms(median(tr.durations("netexec.Session.RunJob")))
			m["netexec.wire_overhead_ms"] = ms(remote - local)
			if rec.network > 0 {
				m["netexec.wire_bytes_per_tuple"] = float64(wire) / float64(rec.network)
			}
			return nil
		},
		counters: func() map[string]int64 { return minus(sessionCounters(sess), before) },
		close: func() {
			_ = sess.Close() // nothing is in flight
			f.close()
		},
	}, nil
}

// poolTenants is the number of concurrent clients of pool-small-jobs.
const poolTenants = 2

// smallJob is one of the input pairs pool-small-jobs cycles through.
type smallJob struct {
	r1, r2 []join.Key
	cond   join.Condition
	scheme partition.Scheme
	want   int64
}

func setupPoolSmallJobs(e env) (*instance, error) {
	n := e.rows(20_000)
	hash, err := partition.NewHash(joiners, nil)
	if err != nil {
		return nil, err
	}
	// Equality jobs route by hash. A band predicate matches across hash
	// buckets, so the band jobs use the statistics-free scheme that is
	// complete for any predicate, CI.
	jobs := make([]smallJob, 8)
	for i := range jobs {
		j := smallJob{cond: join.Equi{}, scheme: hash}
		domain := int64(n)
		if i%2 == 1 {
			j.cond, j.scheme, domain = join.NewBand(2), partition.NewCI(joiners), int64(4*n)
		}
		j.r1 = workload.Uniform(n, domain, e.seed+uint64(2*i))
		j.r2 = workload.Uniform(n, domain, e.seed+uint64(2*i+1))
		j.want = localjoin.Count(j.r1, j.r2, j.cond)
		jobs[i] = j
	}
	cfg := e.execConfig()

	f, err := startFleet(joiners, netexec.AdmissionConfig{MaxInFlight: 1}, e.traced)
	if err != nil {
		return nil, err
	}
	pool, err := netexec.NewPool(f.addrs, netexec.Timeouts{})
	if err != nil {
		f.close()
		return nil, err
	}
	sessions := make([]*netexec.Session, poolTenants)
	closeAll := func() {
		for _, s := range sessions {
			if s != nil {
				_ = s.Close() // nothing is in flight
			}
		}
		f.close()
	}
	for c := range sessions {
		if sessions[c], err = pool.Session(context.Background(), fmt.Sprintf("tenant-%d", c)); err != nil {
			closeAll()
			return nil, err
		}
	}

	type fleetStats struct {
		hits, misses, fast, dispatched, rejected int64
	}
	readFleet := func() (s fleetStats) {
		for _, w := range f.workers {
			bc, ad := w.BuildCacheStats(), w.AdmissionStats()
			s.hits += bc.Hits
			s.misses += bc.Misses
			s.fast += ad.FastPath
			s.dispatched += ad.Dispatched
			s.rejected += ad.Rejected
		}
		return s
	}
	var before map[string]int64
	counters := func() map[string]int64 { return minus(sessionCounters(sessions...), before) }
	var stats0, stats1 fleetStats
	return &instance{
		run: func(rec *recorder, tr *tracer) error {
			before = sessionCounters(sessions...)
			stats0 = readFleet()
			var wg sync.WaitGroup
			for _, sess := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rt, ts := sessionSeam(sess, tr)
					for {
						op, ok := rec.next()
						if !ok {
							return
						}
						j := jobs[op%len(jobs)]
						t0 := time.Now()
						root := tr.begin("pool job", op, -1)
						ts.position(op, root)
						stats, err := joinOnce(rt, j.r1, j.r2, j.cond, j.scheme, cfg, j.want)
						tr.end(root)
						rec.done(time.Since(t0), stats, err)
					}
				}()
			}
			wg.Wait()
			stats1 = readFleet()
			return nil
		},
		layers: func(tr *tracer, rec *recorder, m map[string]float64) error {
			for _, j := range jobs[:2] { // one hash-engine job, one merge-engine job
				if err := probeJoin(tr, j.r1, j.r2, j.cond, j.scheme, cfg, j.want, m); err != nil {
					return err
				}
			}
			m["netexec.job_ms"] = ms(median(tr.durations("netexec.Session.RunJob")))
			if lookups := stats1.hits - stats0.hits + stats1.misses - stats0.misses; lookups > 0 {
				m["localjoin.cache_hit_rate"] = float64(stats1.hits-stats0.hits) / float64(lookups)
			}
			if granted := stats1.fast - stats0.fast + stats1.dispatched - stats0.dispatched; granted > 0 {
				m["netexec.admission_fastpath_share"] = float64(stats1.fast-stats0.fast) / float64(granted)
			}
			m["netexec.admission_rejected"] = float64(stats1.rejected - stats0.rejected)
			m["netexec.build_overlapped_chunks"] = float64(counters()["build_overlapped_chunks"]) / float64(rec.attempted())
			return nil
		},
		counters: counters,
		close:    closeAll,
	}, nil
}

// Stream-flip shape: the window distribution alternates between the whole key
// domain and its lowest twentieth every flipEvery windows; each phase cycles
// a pool of pre-generated windows so the inputs stay small.
const (
	streamWindowPool = 8
	streamNarrowing  = 20
)

func setupStreamFlip(e env) (*instance, error) {
	baseRows, winRows := e.rows(1_000_000), e.rows(100_000)
	flipEvery := 100
	if e.quick {
		flipEvery = 10
	}
	domain := int64(4 * baseRows)
	cond := join.NewBand(25)
	base := workload.Uniform(baseRows, domain, e.seed)
	sortedBase := slices.Clone(base)
	slices.Sort(sortedBase)
	var pools [2][streamWindowPool][]join.Key
	var wants [2][streamWindowPool]int64
	for p := range pools {
		span := domain
		if p == 1 {
			span = domain / streamNarrowing
		}
		for k := range pools[p] {
			w := workload.Uniform(winRows, span, e.seed+uint64(100*(p+1)+k))
			pools[p][k] = w
			sorted := slices.Clone(w)
			slices.Sort(sorted)
			wants[p][k] = localjoin.CountSorted(sorted, sortedBase, cond)
		}
	}
	phase := func(i int) int { return i / flipEvery % 2 }

	f, err := startFleet(joiners, netexec.AdmissionConfig{}, e.traced)
	if err != nil {
		return nil, err
	}
	sess, err := netexec.Dial(f.addrs)
	if err != nil {
		f.close()
		return nil, err
	}
	scfg := streamjoin.Config{
		Opts:  e.planOptions(),
		Exec:  e.execConfig(),
		Stats: exec.StatsSpec{Seed: e.seed},
	}
	var before map[string]int64
	var last *streamState
	var wire int64
	return &instance{
		run: func(rec *recorder, tr *tracer) error {
			before = sessionCounters(sess)
			// A time-bounded run ends when the handle refuses the next window;
			// the slice only has to be longer than any run can get through.
			n := rec.maxOps
			if n <= 0 {
				n = 1 << 18
			}
			windows := make([][]join.Key, n)
			for i := range windows {
				windows[i] = pools[phase(i)][i%streamWindowPool]
			}
			st := &streamState{
				rec: rec, tr: tr, phase: phase, windowRows: int64(winRows),
				want: func(i int) int64 { return wants[phase(i)][i%streamWindowPool] },
			}
			wire0 := f.wireBytes()
			_, err := streamjoin.Run(&streamLoad{sess, st}, base, windows, cond, scfg)
			wire = f.wireBytes() - wire0
			last = st
			if errors.Is(err, errStreamStop) {
				return nil
			}
			return err
		},
		layers: func(_ *tracer, rec *recorder, m map[string]float64) error {
			m["streamjoin.steady_gap_ms"] = ms(median(last.steady))
			m["streamjoin.replan_gap_ms"] = ms(median(last.replan))
			if last.flips > 0 {
				m["streamjoin.replans_per_flip"] = float64(last.replans) / float64(last.flips)
			}
			m["streamjoin.reshipped_tuples"] = float64(last.reshipped) / float64(rec.attempted())
			if shipped := last.reshipped + rec.network; shipped > 0 {
				m["netexec.wire_bytes_per_tuple"] = float64(wire) / float64(shipped)
			}
			return nil
		},
		counters: func() map[string]int64 {
			c := minus(sessionCounters(sess), before)
			c["replans"], c["flips"] = int64(last.replans), int64(last.flips)
			return c
		},
		close: func() {
			_ = sess.Close() // the stream job has been retired
			f.close()
		},
	}, nil
}

func setupMultiwayPeer(e env) (*instance, error) {
	n := e.rows(400_000)
	domain := int64(3 * n)
	q := multiway.Query{
		R1: workload.Uniform(n, domain, e.seed),
		Mid: multiway.MidRelation{
			A: workload.Uniform(n, domain, e.seed+1),
			B: workload.Uniform(n, domain, e.seed+2),
		},
		R3:    workload.Uniform(n, domain, e.seed+3),
		CondA: join.NewBand(1),
		CondB: join.Equi{},
	}
	// The oracle needs no plan: a Mid row (a, b) contributes (R1 keys within
	// the band of a) × (R3 keys equal to b) output tuples.
	s1, s3 := slices.Clone(q.R1), slices.Clone(q.R3)
	slices.Sort(s1)
	slices.Sort(s3)
	within := func(s []join.Key, lo, hi join.Key) int64 {
		i, _ := slices.BinarySearch(s, lo)
		j, _ := slices.BinarySearch(s, hi+1)
		return int64(j - i)
	}
	var wantInter, wantOut int64
	for i, a := range q.Mid.A {
		c1 := within(s1, a-1, a+1)
		wantInter += c1
		wantOut += c1 * within(s3, q.Mid.B[i], q.Mid.B[i])
	}
	opts, cfg := e.planOptions(), e.execConfig()

	f, err := startFleet(joiners, netexec.AdmissionConfig{}, e.traced)
	if err != nil {
		return nil, err
	}
	sess, err := netexec.Dial(f.addrs)
	if err != nil {
		f.close()
		return nil, err
	}
	var before map[string]int64
	counters := func() map[string]int64 { return minus(sessionCounters(sess), before) }
	var seam *tracedSession
	var planning []time.Duration
	var wire int64
	return &instance{
		run: func(rec *recorder, tr *tracer) error {
			before = sessionCounters(sess)
			rt, ts := sessionSeam(sess, tr)
			seam, planning = ts, nil
			wire0 := f.wireBytes()
			for i := 0; rec.more(); i++ {
				t0 := time.Now()
				root := tr.begin("multiway-peer pipeline", i, -1)
				ts.position(i, root)
				res, err := multiway.ExecuteOver(rt, q, opts, cfg)
				tr.end(root)
				if err == nil {
					err = checked(res.Output, wantOut, nil)
				}
				if err == nil && res.Intermediate != wantInter {
					err = fmt.Errorf("intermediate %d, oracle %d", res.Intermediate, wantInter)
				}
				stats := opStats{tuples: int64(3 * n), imbDen: 1}
				if err == nil {
					var plan time.Duration
					for _, st := range res.Stages {
						stats.imbNum = max(stats.imbNum, imbalanceOf(st.Exec)) // the worse stage
						stats.network += st.Exec.NetworkTuples
						plan += st.PlanDuration
					}
					planning = append(planning, plan)
				}
				rec.done(time.Since(t0), stats, err)
			}
			wire = f.wireBytes() - wire0
			return nil
		},
		layers: func(tr *tracer, rec *recorder, m map[string]float64) error {
			if err := probePlanner(tr, q.R1, q.Mid.A, q.CondA, opts, m); err != nil {
				return err
			}
			m["multiway.stage1_ms"] = ms(median(seam.stage1))
			m["multiway.stage2_ms"] = ms(median(seam.stage2))
			m["multiway.plan_ms"] = ms(median(planning))
			m["multiway.intermediate_tuples"] = float64(wantInter)
			m["planio.plan_bytes"] = float64(seam.planBytes)
			d := counters()
			m["netexec.relayed_pairs"] = float64(d["relayed_pairs"])
			m["netexec.overlapped_stage2"] = float64(d["overlapped_stage2"]) / float64(rec.attempted())
			if rec.network > 0 {
				m["netexec.wire_bytes_per_tuple"] = float64(wire) / float64(rec.network)
			}
			return nil
		},
		counters: counters,
		invariant: func() error {
			if r := sess.RelayedPairs(); r != 0 {
				return fmt.Errorf("%d matched pairs transited the coordinator; the peer path must relay none", r)
			}
			return nil
		},
		close: func() {
			_ = sess.Close() // nothing is in flight
			f.close()
		},
	}, nil
}
