// Package scenario is the repository's bit-identity check: EWH's
// partitioning is independent of the local join (§IV), so every runtime — in
// process, a session, two pool tenants at once, the peer shuffle — must produce
// exactly what exec.Run produces, faulted or not. One seed draws a whole run:
// workload and size, condition, scheme, J and mappers, job kind, runtime,
// and either no fault or one faultnet action at a frame of a job kind that
// recovers, with one spare worker. The oracles never run the code under
// test: a nested-loop total (localjoin.Count past a size bound), composite
// matches over decoded (primary, secondary) fields, the pair contract read
// outside-in, and exec.Run's per-worker metrics at the survivor width. A
// failure prints its seed and drawn settings on one line.
//
// Only tests import it. faultnet's FuzzScenario runs seeds [0, Corpus) under
// `go test` and draws further ones under `go test -fuzz`; a package's named
// tests run a few seeds of their own with a Pin fixing what they are about
// (a job kind, a runtime, J and mappers, a scheme, a fault's frame); Rows are the settings
// a draw does not pin by itself, one per regression.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/multiway"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/stage"
	"ewh/internal/stats"
	"ewh/internal/streamjoin"
	"ewh/internal/workload"
)

// Corpus is the seed range every `go test` run of FuzzScenario draws.
const Corpus = 72

var model = cost.Model{Wi: 1, Wo: 0.2}

// Job is a scenario's job kind; AnyJob leaves it to the draw.
type Job int

const (
	AnyJob Job = iota
	Count
	Pairs
	Multiway
	Stream
)

func (k Job) String() string {
	return [...]string{"any", "count", "pairs", "multiway", "stream"}[k]
}

// Runtime is what a scenario's job runs over; AnyRuntime leaves it to the
// draw.
type Runtime int

const (
	AnyRuntime Runtime = iota
	Local
	Session
	Pool // two tenants of one fleet, running the job concurrently
)

// Pin fixes settings a draw would otherwise pick. A zero field is drawn, and
// a pinned draw keeps drawing the other settings from its seed.
type Pin struct {
	Job     Job
	Runtime Runtime
	J       int // the fleet a run plans for; a fault adds the spare
	Mappers int
	// Scheme is a two-way scheme name (CI, CSI, CSIO, Broadcast, Hash,
	// Hash+PRPD): the draw takes only conditions that admit it and plans it
	// directly, never through an artifact.
	Scheme string
	// NoFallback plans CSI and CSIO with the fallback to CI turned off.
	NoFallback bool
	// Fault strikes a session run (it implies Runtime Session).
	Fault *Fault
}

// Fault pins a fault: its action, and unless Frame is FrameAny the frame it
// strikes, at index N of that frame when N > 0. The victim is drawn among
// the workers the fault-free run carried the frame to.
type Fault struct {
	Action faultnet.Action
	Dir    faultnet.Dir
	Frame  byte
	N      int
}

// Scenario is one drawn run. The relations and the fault's frame are drawn
// too, the frame from a fault-free run's count.
type Scenario struct {
	seed     uint64
	pin      Pin
	workload string
	n1, n2   int
	domain   int64
	cond     join.Condition
	comp     *join.CompositeSpec // the composite condition's encoding, else nil
	scheme   string
	j        int
	mappers  int
	job      Job
	rt       Runtime
	fault    *faultSpec

	r1, r2  []join.Key
	q       multiway.Query // multiway jobs
	windows [][]join.Key   // stream jobs: r1 cut into windows, r2 the base
	plan    func(j int) (partition.Scheme, error)
	cfg     exec.Config
	opts    core.Options

	// also is a named row's own check of a fault-free session run.
	also func(sess *netexec.Session, o *outcome) error
	// from names the pool scenario and tenant a job was drawn for.
	from string
}

// faultSpec is the drawn fault: an action on the victim's listener at the
// n-th frame of one type. The victim, frame and n are drawn once a
// fault-free run has counted every worker's frames.
type faultSpec struct {
	action faultnet.Action
	victim int
	dir    faultnet.Dir
	frame  byte
	n      int
}

func (f *faultSpec) String() string {
	if f.n == 0 {
		return f.action.String()
	}
	return fmt.Sprintf("%v@w%d:%v-frame%d#%d", f.action, f.victim, f.dir, f.frame, f.n)
}

// String is the settings line a failure prints.
func (sc *Scenario) String() string {
	rt := [...]string{"any", "local", "session", "pool×2"}[sc.rt]
	if sc.job == Multiway && sc.rt != Local {
		rt += "+peer"
	}
	d := []string{
		fmt.Sprintf("seed %d", sc.seed),
		fmt.Sprintf("%s n=%d×%d domain %d", sc.workload, sc.n1, sc.n2, sc.domain),
		fmt.Sprintf("cond %v", sc.cond),
		"scheme " + sc.scheme,
		fmt.Sprintf("J=%d mappers=%d", sc.j, sc.mappers),
		"job " + sc.job.String(),
		"rt " + rt,
	}
	if sc.comp != nil {
		d[2] += fmt.Sprintf(" (composite secmax %d β %d)", sc.comp.SecondaryMax, sc.comp.Beta)
	}
	if sc.opts.DisableFallback {
		d[4] += " no-fallback"
	}
	if sc.job == Multiway {
		d[2] = fmt.Sprintf("condA %v condB %v", sc.q.CondA, sc.q.CondB)
	}
	if sc.fault != nil {
		d = append(d, "fault "+sc.fault.String())
	}
	if sc.from != "" {
		d[0] = fmt.Sprintf("%s (drawn from seed %d)", sc.from, sc.seed)
	}
	return strings.Join(d, ", ")
}

// Draw draws every setting of a run from seed, bar those pin fixes.
func Draw(seed uint64, pin Pin) *Scenario {
	rng := stats.NewRNG(seed)
	sc := &Scenario{seed: seed, pin: pin, job: Job(1 + rng.Intn(4)),
		rt: []Runtime{Local, Session, Session, Pool}[rng.Intn(4)]}
	if pin.Job != AnyJob {
		sc.job = pin.Job
	}
	if pin.Runtime != AnyRuntime {
		sc.rt = pin.Runtime
	}
	sc.j = 1 + rng.Intn(7)
	sc.mappers = 1 + rng.Intn(4)
	if pin.J > 0 {
		sc.j = pin.J
	}
	if pin.Mappers > 0 {
		sc.mappers = pin.Mappers
	}
	sc.cfg = exec.Config{Seed: rng.Uint64() % 1000, Mappers: sc.mappers}
	sc.opts = core.Options{J: sc.j, Model: model, Seed: rng.Uint64() % 1000,
		DisableFallback: rng.Intn(2) == 0 || pin.NoFallback}
	switch {
	case pin.Fault != nil:
		sc.rt = Session
		sc.fault = &faultSpec{action: pin.Fault.Action}
	case sc.rt == Session && sc.job != Pairs && rng.Intn(3) > 0:
		// Pairs jobs do not retry; the other kinds recover onto the spare.
		sc.fault = &faultSpec{action: []faultnet.Action{faultnet.ActHook, faultnet.ActHook,
			faultnet.ActClose, faultnet.ActReset, faultnet.ActStall}[rng.Intn(5)]}
	}
	small := sc.fault != nil && sc.fault.action == faultnet.ActStall
	switch sc.job {
	case Count, Pairs:
		sc.drawTwoWay(rng, small)
	case Multiway:
		sc.drawMultiway(rng, small)
	case Stream:
		sc.drawStream(rng, small)
	}
	return sc
}

// RunSeeds draws and runs n seeds from first on under pin.
func RunSeeds(t testing.TB, pin Pin, first uint64, n int) {
	t.Helper()
	for seed := first; seed < first+uint64(n); seed++ {
		Draw(seed, pin).Run(t)
	}
}

// keys draws n keys of a workload family over the scenario's domain.
func (sc *Scenario) keys(rng *stats.RNG, family string, n int, z float64) []join.Key {
	s := rng.Uint64()
	switch family {
	case "zipf":
		return workload.Zipfian(n, sc.domain, z, s)
	case "hot":
		// A uniform relation whose tenth holds one key: PRPD's heavy hitter.
		ks := workload.Uniform(n, sc.domain, s)
		for i := 0; i < n; i += 10 {
			ks[i] = sc.domain / 2
		}
		return ks
	}
	return workload.Uniform(n, sc.domain, s)
}

// drawCond draws a two-way condition and returns the schemes that admit it.
func (sc *Scenario) drawCond(rng *stats.RNG, family string) []string {
	sc.workload, sc.comp = family, nil
	switch c := rng.Intn(6); c {
	case 0:
		sc.cond = join.Equi{}
		return []string{"CI", "Broadcast", "CSI", "CSIO", "Hash", "Hash+PRPD"}
	case 1, 2:
		sc.cond = join.NewBand(rng.Int64n(5))
	case 3:
		sc.cond = join.Inequality{Op: join.Op(rng.Intn(4))}
		return []string{"CI", "Broadcast"}
	default:
		sc.workload = "composite"
		sc.comp = &join.CompositeSpec{SecondaryMax: 5 + rng.Int64n(26), Beta: 1 + rng.Int64n(3)}
		sc.cond = sc.comp.Condition()
	}
	return []string{"CI", "Broadcast", "CSI", "CSIO"}
}

func (sc *Scenario) drawTwoWay(rng *stats.RNG, small bool) {
	family := []string{"uniform", "zipf", "hot"}[rng.Intn(3)]
	inner := sc.drawCond(rng, family)
	for sc.pin.Scheme != "" && !slices.Contains(inner, sc.pin.Scheme) {
		inner = sc.drawCond(rng, family)
	}
	_, ineq := sc.cond.(join.Inequality)
	maxN := 3000
	switch {
	case sc.job == Pairs && ineq:
		maxN = 400
	case sc.job == Pairs || sc.comp != nil:
		maxN = 1200
	case small:
		maxN = 800
	case rng.Intn(8) == 0:
		maxN = 20000
	}
	sc.n1, sc.n2 = 100+rng.Intn(maxN), 100+rng.Intn(maxN)
	sc.domain = 50 + rng.Int64n(2000)
	if sc.comp != nil {
		// Primaries straddle zero, so a decode that truncates instead of
		// flooring splits a negative primary's secondaries.
		prim := 5 + rng.Int64n(30)
		sc.domain = 2 * prim
		enc := func(n int) []join.Key {
			ks := make([]join.Key, n)
			for i := range ks {
				ks[i] = sc.comp.Encode(rng.Int64n(2*prim)-prim, rng.Int64n(sc.comp.SecondaryMax+1))
			}
			return ks
		}
		sc.r1, sc.r2 = enc(sc.n1), enc(sc.n2)
	} else {
		sc.r1, sc.r2 = sc.keys(rng, sc.workload, sc.n1, 0.9), sc.keys(rng, sc.workload, sc.n2, 0.9)
	}

	sc.scheme = inner[rng.Intn(len(inner))]
	if sc.pin.Scheme != "" {
		sc.scheme = sc.pin.Scheme
	}
	sc.plan = sc.schemeFor(sc.scheme)
	if rng.Intn(5) == 0 && sc.pin.Scheme == "" {
		// The plan travels as a planio artifact drawn for a wider fleet and
		// shrunk to the one at hand; a region scheme that cannot shrink
		// falls back to CI, as a holder of only the artifact does.
		wider, inner := sc.j+rng.Intn(3), sc.plan
		sc.scheme = fmt.Sprintf("artifact(%s@%d)", sc.scheme, wider)
		sc.plan = func(j int) (partition.Scheme, error) {
			s, err := inner(wider)
			if err != nil {
				return nil, err
			}
			b, err := planio.Encode(&planio.Artifact{Scheme: s, Seed: sc.cfg.Seed})
			if err != nil {
				return nil, err
			}
			art, err := planio.Decode(b)
			if err != nil {
				return nil, err
			}
			shrunk, err := planio.ShrinkToFleet(art, j)
			if errors.Is(err, planio.ErrNeedsReplan) {
				return partition.NewCI(j), nil
			}
			if err != nil {
				return nil, err
			}
			return shrunk.Scheme, nil
		}
	}
}

// schemeFor returns the planner of a named scheme for a fleet of j.
func (sc *Scenario) schemeFor(name string) func(j int) (partition.Scheme, error) {
	opts := func(j int) core.Options { o := sc.opts; o.J = j; return o }
	plan := func(p *core.Plan, err error) (partition.Scheme, error) {
		if err != nil {
			return nil, err
		}
		return p.Scheme, nil
	}
	return func(j int) (partition.Scheme, error) {
		switch name {
		case "CI":
			return plan(core.PlanCI(opts(j)))
		case "CSI":
			return plan(core.PlanCSI(sc.r1, sc.r2, sc.cond, 64, opts(j)))
		case "CSIO":
			return plan(core.PlanCSIO(sc.r1, sc.r2, sc.cond, opts(j)))
		case "Broadcast":
			return partition.NewBroadcast(j)
		case "Hash":
			return partition.NewHash(j, nil)
		}
		return partition.NewHash(j, partition.DetectHeavyKeys(sc.r1, 1/float64(4*j)))
	}
}

func (sc *Scenario) drawMultiway(rng *stats.RNG, small bool) {
	sc.workload = []string{"uniform", "zipf"}[rng.Intn(2)]
	sc.scheme = "CSIO per stage"
	n := 300 + rng.Intn(700)
	if small {
		n = 300 + rng.Intn(300)
	}
	sc.n1, sc.n2 = n, n
	sc.domain = 80 + rng.Int64n(400)
	condB := join.Condition(join.Equi{})
	if rng.Intn(2) == 0 {
		condB = join.NewBand(rng.Int64n(3))
	}
	sc.q = multiway.Query{
		R1: sc.keys(rng, sc.workload, n, 0.9),
		Mid: multiway.MidRelation{
			A: sc.keys(rng, sc.workload, n, 0.9),
			B: sc.keys(rng, sc.workload, n, 1.1),
		},
		R3:    sc.keys(rng, sc.workload, n, 0.9),
		CondA: join.NewBand(rng.Int64n(3)),
		CondB: condB,
	}
}

func (sc *Scenario) drawStream(rng *stats.RNG, small bool) {
	sc.workload = []string{"uniform", "zipf", "flip"}[rng.Intn(3)]
	sc.scheme = "CSIO from summaries"
	sc.cond = join.NewBand(rng.Int64n(30))
	if rng.Intn(4) == 0 {
		sc.cond = join.Equi{}
	}
	sc.n2 = 1000 + rng.Intn(4000)
	if small {
		sc.n2 = 500 + rng.Intn(500)
	}
	sc.domain = 1000 + rng.Int64n(50000)
	nw := 3 + rng.Intn(5)
	per := 200 + rng.Intn(500)
	sc.n1 = nw * per
	sc.r2 = sc.keys(rng, sc.workload, sc.n2, 0.8)
	for w := 0; w < nw; w++ {
		if sc.workload == "flip" && w >= nw/2 {
			// The distribution collapses into a tenth of the domain.
			sc.windows = append(sc.windows, workload.Uniform(per, sc.domain/10+1, rng.Uint64()))
		} else {
			sc.windows = append(sc.windows, sc.keys(rng, sc.workload, per, 0.8))
		}
	}
	sc.r1 = slices.Concat(sc.windows...)
}

// streamConfig is the stream job's driver configuration.
func (sc *Scenario) streamConfig() streamjoin.Config {
	return streamjoin.Config{
		Opts:  sc.opts,
		Exec:  sc.cfg,
		Stats: exec.StatsSpec{Cap: 512, Buckets: 32, Seed: sc.seed + 7},
	}
}

// outcome is what one job run reports, whatever its kind.
type outcome struct {
	res     *exec.Result       // count and pairs jobs
	pairs   [][]emitted        // pairs jobs: per worker, in emission order
	mw      *multiway.Result   // multiway jobs
	stream  *streamjoin.Result // stream jobs
	windows []stage.Record     // a fault-free stream's window replies' records
}

// windowRecords is a stream runtime, and once it opens a stream that
// stream's handle, keeping the stage record of every window reply collected.
type windowRecords struct {
	exec.StreamRuntime
	exec.StreamHandle
	recs *[]stage.Record
}

func (r windowRecords) OpenStream(spec exec.StreamSpec) (_ exec.StreamHandle, err error) {
	r.StreamHandle, err = r.StreamRuntime.OpenStream(spec)
	return r, err
}

func (r windowRecords) Collect(window, epoch uint32) ([]exec.WindowReply, error) {
	rs, err := r.StreamHandle.Collect(window, epoch)
	for _, w := range rs {
		*r.recs = append(*r.recs, w.Stages)
	}
	return rs, err
}

// emitted is one pair a pairs job emitted: the rows' payloads are their
// row numbers.
type emitted struct{ row1, row2 int }

// runOnce runs the scenario's job once over rt. retry turns on recovery.
func (sc *Scenario) runOnce(rt exec.Runtime, retry bool) (*outcome, error) {
	cfg := sc.cfg
	if retry {
		cfg.Retries = 2
	}
	out := &outcome{}
	var err error
	switch sc.job {
	case Count:
		out.res, err = exec.RunOverReplan(rt, sc.r1, sc.r2, sc.cond, sc.j, sc.plan, model, cfg)
	case Pairs:
		var s partition.Scheme
		if s, err = sc.plan(sc.j); err != nil {
			return nil, err
		}
		t1, t2 := rowTuples(sc.r1), rowTuples(sc.r2)
		out.pairs = make([][]emitted, s.Workers())
		out.res, err = exec.RunTuplesOver(rt, t1, t2, sc.cond, s, model, cfg,
			func(w int, a, b exec.Tuple[int]) {
				out.pairs[w] = append(out.pairs[w], emitted{a.Payload, b.Payload})
			})
	case Multiway:
		out.mw, err = multiway.ExecuteOver(rt, sc.q, sc.opts, cfg)
	case Stream:
		if !retry { // recovery asks the runtime for more than streams
			rt = windowRecords{StreamRuntime: rt.(exec.StreamRuntime), recs: &out.windows}
		}
		out.stream, err = streamjoin.Run(rt, sc.r2, sc.windows, sc.cond, sc.streamConfig())
	}
	return out, err
}

func rowTuples(keys []join.Key) []exec.Tuple[int] {
	ts := make([]exec.Tuple[int], len(keys))
	for i, k := range keys {
		ts[i] = exec.Tuple[int]{Key: k, Payload: i}
	}
	return ts
}

// nestedBound is the largest n1·n2 the oracles join by nested loop.
const nestedBound = 4 << 20

// wantTotal is the oracle total of a two-way join: a nested loop — over
// decoded (primary, secondary) fields for a composite condition — or, past
// nestedBound, localjoin's sort and sweep.
func (sc *Scenario) wantTotal() int64 {
	r1, r2 := sc.r1, sc.r2
	if sc.comp != nil {
		var n int64
		for _, a := range r1 {
			pa, sa := sc.comp.Decode(a)
			for _, b := range r2 {
				pb, sb := sc.comp.Decode(b)
				if pa == pb && max(sa-sb, sb-sa) <= sc.comp.Beta {
					n++
				}
			}
		}
		return n
	}
	if len(r1)*len(r2) > nestedBound {
		return localjoin.Count(r1, r2, sc.cond)
	}
	return localjoin.NestedLoopCount(r1, r2, sc.cond)
}

// chainTotals is the multiway oracle: each Mid row contributes its R1
// partners as intermediate, times its R3 partners as output.
func chainTotals(q multiway.Query) (out, inter int64) {
	for i, a := range q.Mid.A {
		var c1, c3 int64
		for _, k := range q.R1 {
			if q.CondA.Matches(k, a) {
				c1++
			}
		}
		for _, k := range q.R3 {
			if q.CondB.Matches(q.Mid.B[i], k) {
				c3++
			}
		}
		inter += c1
		out += c1 * c3
	}
	return out, inter
}

// reference is the in-process run every other runtime must reproduce, and
// the oracle totals it must reproduce itself.
type reference struct {
	out       *outcome
	want      int64 // two-way and stream total; multiway output
	wantInter int64
}

func (sc *Scenario) reference(t testing.TB, fleet int) *reference {
	t.Helper()
	ref := &reference{out: &outcome{}}
	switch sc.job {
	case Count, Pairs:
		s, err := sc.plan(sc.j)
		if err != nil {
			t.Fatalf("%v: plan: %v", sc, err)
		}
		ref.out.res = exec.Run(sc.r1, sc.r2, sc.cond, s, model, sc.cfg)
		ref.want = sc.wantTotal()
		// Routing is per tuple, so the shuffle volume cannot depend on how
		// the relations are sharded across mappers.
		cfg := sc.cfg
		cfg.Mappers = 1 + sc.mappers%4
		if r := exec.Run(sc.r1, sc.r2, sc.cond, s, model, cfg); r.NetworkTuples != ref.out.res.NetworkTuples {
			t.Fatalf("%v: %d network tuples at %d mappers, %d at %d", sc,
				r.NetworkTuples, cfg.Mappers, ref.out.res.NetworkTuples, sc.mappers)
		}
	case Multiway:
		mw, err := multiway.Execute(sc.q, sc.opts, sc.cfg)
		if err != nil {
			t.Fatalf("%v: in-process pipeline: %v", sc, err)
		}
		ref.out.mw = mw
		ref.want, ref.wantInter = chainTotals(sc.q)
	case Stream:
		rt := windowRecords{StreamRuntime: exec.LocalStreamRuntime{Workers: fleet}, recs: &ref.out.windows}
		st, err := streamjoin.Run(rt, sc.r2, sc.windows, sc.cond, sc.streamConfig())
		if err != nil {
			t.Fatalf("%v: in-process stream: %v", sc, err)
		}
		ref.out.stream = st
		ref.want = sc.wantTotal()
	}
	err := sc.checkOracle(ref.out, ref)
	if sc.job == Pairs && err == nil {
		// The in-process pair sequences are what every other runtime repeats.
		var o *outcome
		if o, err = sc.runOnce(exec.Local{}, false); err == nil {
			err = sc.checkSame(o, ref)
			ref.out.pairs = o.pairs
		}
	}
	if err != nil {
		t.Fatalf("%v: in process: %v", sc, err)
	}
	return ref
}

// jobStages lists the stages each worker job kind runs, by the kind's name
// in a worker's Snapshot: a run's workers of that kind, summed, spend time
// in every one. A contribution only commits its share.
var jobStages = map[string][]stage.Stage{
	"count":   {stage.Build, stage.Probe},
	"pairs":   {stage.Probe},
	"plan":    {stage.Probe, stage.Summarize, stage.Route},
	"peer":    {stage.Build, stage.Probe},
	"stream":  {stage.Summarize, stage.Probe},
	"contrib": nil,
}

// records returns the stage records a run's replies carried, by the kind of
// worker job that sent them; a kind the run ran without a record of its own
// (a contribution) is there with none. A recovered stream's window replies
// stay inside its driver.
func (o *outcome) records() map[string][]stage.Record {
	switch {
	case o.pairs != nil:
		return map[string][]stage.Record{"pairs": o.res.Stages}
	case o.res != nil:
		return map[string][]stage.Record{"count": o.res.Stages}
	case o.mw != nil:
		recs := map[string][]stage.Record{"plan": o.mw.Stages[0].Exec.Stages, "peer": o.mw.Stages[1].Exec.Stages}
		if len(recs["plan"])*len(recs["peer"]) > 1 { // some sender is not its receiver
			recs["contrib"] = nil
		}
		return recs
	case o.windows != nil:
		return map[string][]stage.Record{"stream": o.windows}
	}
	return nil
}

// checkStages holds stage records, by job kind, to the stages each kind
// runs: the kind's workers, summed, spent time in every one.
func checkStages(recs map[string][]stage.Record) error {
	for kind, rs := range recs {
		var sum stage.Record
		for i := range rs {
			sum.Add(&rs[i])
		}
		for _, s := range jobStages[kind] {
			if sum[s] <= 0 {
				return fmt.Errorf("%s jobs' workers spent no time in stage %d: %v", kind, s, sum)
			}
		}
	}
	return nil
}

// checkOracle holds one run to its stage records and to the oracles that do
// not run the engine.
func (sc *Scenario) checkOracle(o *outcome, ref *reference) error {
	if err := checkStages(o.records()); err != nil {
		return err
	}
	switch sc.job {
	case Count:
		if o.res.Output != ref.want {
			return fmt.Errorf("output %d, oracle %d", o.res.Output, ref.want)
		}
	case Pairs:
		if o.pairs == nil {
			return nil // exec.Run, the count the pairs job is held to
		}
		if o.res.Output != ref.want {
			return fmt.Errorf("output %d, oracle %d", o.res.Output, ref.want)
		}
		return sc.checkPairs(o.pairs, ref.want)
	case Multiway:
		if o.mw.Output != ref.want || o.mw.Intermediate != ref.wantInter {
			return fmt.Errorf("out=%d mid=%d, oracle out=%d mid=%d",
				o.mw.Output, o.mw.Intermediate, ref.want, ref.wantInter)
		}
		// Region schemes replicate a match to every region holding its key,
		// so only an undercount of the delivered intermediate is wrong.
		var in int64
		for _, w := range o.mw.Stages[1].Exec.Workers {
			in += w.InputR1
		}
		if in < o.mw.Intermediate {
			return fmt.Errorf("stage-2 workers received %d intermediate tuples, stage 1 matched %d",
				in, o.mw.Intermediate)
		}
	case Stream:
		if o.stream.Total != ref.want {
			return fmt.Errorf("stream total %d, oracle %d", o.stream.Total, ref.want)
		}
	}
	return nil
}

// checkPairs reads the pair contract outside-in. Each worker emits its R1
// rows in arrival order, which is row order, so one row's pairs are
// contiguous; its partners ascend by R2 key, then R2 row. Over all workers
// every matching row pair appears exactly once and nothing else does.
func (sc *Scenario) checkPairs(perWorker [][]emitted, want int64) error {
	n2 := len(sc.r2)
	seen := make([]bool, len(sc.r1)*n2)
	var total int64
	for w, ps := range perWorker {
		for i, p := range ps {
			a, b := sc.r1[p.row1], sc.r2[p.row2]
			if !sc.cond.Matches(a, b) {
				return fmt.Errorf("worker %d pair %d: rows (%d, %d) keys (%d, %d) do not match", w, i, p.row1, p.row2, a, b)
			}
			if seen[p.row1*n2+p.row2] {
				return fmt.Errorf("worker %d: rows (%d, %d) emitted twice", w, p.row1, p.row2)
			}
			seen[p.row1*n2+p.row2] = true
			total++
			if i == 0 {
				continue
			}
			q := ps[i-1]
			switch {
			case q.row1 > p.row1:
				return fmt.Errorf("worker %d pair %d: R1 row %d after row %d", w, i, p.row1, q.row1)
			case q.row1 == p.row1 && (sc.r2[q.row2] > b || sc.r2[q.row2] == b && q.row2 > p.row2):
				return fmt.Errorf("worker %d pair %d: R1 row %d's partner row %d (key %d) after row %d (key %d)",
					w, i, p.row1, p.row2, b, q.row2, sc.r2[q.row2])
			}
		}
	}
	if total != want {
		return fmt.Errorf("%d distinct pairs emitted, oracle %d", total, want)
	}
	return nil
}

// checkSame holds a run to the in-process reference: per-worker metrics
// equal, pair sequences equal.
func (sc *Scenario) checkSame(o *outcome, ref *reference) error {
	if err := sc.checkOracle(o, ref); err != nil {
		return err
	}
	switch sc.job {
	case Count, Pairs:
		r, l := o.res, ref.out.res
		if !reflect.DeepEqual(r.Workers, l.Workers) {
			return fmt.Errorf("per-worker metrics %+v, exec.Run %+v", r.Workers, l.Workers)
		}
		if r.NetworkTuples != l.NetworkTuples || r.MemoryBytes != l.MemoryBytes ||
			r.MaxWork != l.MaxWork || r.TotalWork != l.TotalWork {
			return fmt.Errorf("aggregates %v, exec.Run %v", r, l)
		}
		if sc.job == Pairs && ref.out.pairs != nil && !reflect.DeepEqual(o.pairs, ref.out.pairs) {
			return errors.New("per-worker pair sequences differ from the in-process run's")
		}
	case Multiway:
		for si := range ref.out.mw.Stages {
			if r, l := o.mw.Stages[si].Exec.Workers, ref.out.mw.Stages[si].Exec.Workers; !reflect.DeepEqual(r, l) {
				return fmt.Errorf("stage %d per-worker metrics %+v, in process %+v", si+1, r, l)
			}
		}
	case Stream:
		if !reflect.DeepEqual(o.stream, ref.out.stream) {
			return fmt.Errorf("stream accounting %+v, in process %+v", o.stream, ref.out.stream)
		}
	}
	return nil
}

// fleet is a set of loopback workers under admission control, worker i
// behind taps[i] when that is set.
type fleet struct {
	workers []*netexec.Worker
	addrs   []string
}

func startFleet(t testing.TB, n int, taps []*faultnet.Script) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i < len(taps) && taps[i] != nil {
			ln = faultnet.Wrap(ln, taps[i])
		}
		w := netexec.ListenWorkerOn(ln)
		w.SetAdmission(netexec.AdmissionConfig{MaxInFlight: 2, MaxQueue: 64})
		go func() { _ = w.Serve() }()
		f.workers = append(f.workers, w)
		f.addrs = append(f.addrs, w.Addr())
	}
	return f
}

// idle waits until every worker but stalled holds nothing (nil: every
// worker). A run that gave back all it took leaves each worker's Holdings at
// the zero value: no job in flight, no byte charged, no transfer open, no
// admission slot taken or waited for.
func (f *fleet) idle(stalled *netexec.Worker) error {
	deadline := time.Now().Add(5 * time.Second)
	for i, w := range f.workers {
		if w == stalled {
			continue
		}
		for h := w.Snapshot().Holdings; h != (netexec.Holdings{}); h = w.Snapshot().Holdings {
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %d still holds %+v", i, h)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// tallied holds a fault-free fleet's job tallies to the kinds of job its
// runs ran (records): each kind finished a job on some worker, and those
// workers' tallies pass checkStages.
func (f *fleet) tallied(ran map[string][]stage.Record) error {
	tallies := map[string][]stage.Record{}
	for _, w := range f.workers {
		for kind, t := range w.Snapshot().Jobs {
			if _, ok := ran[kind]; ok && t.Finals > 0 {
				tallies[kind] = append(tallies[kind], t.Stages)
			}
		}
	}
	for kind := range ran {
		if tallies[kind] == nil {
			return fmt.Errorf("the workers tallied no finished %s job", kind)
		}
	}
	if err := checkStages(tallies); err != nil {
		return fmt.Errorf("tally: %w", err)
	}
	return nil
}

func (f *fleet) close() {
	for _, w := range f.workers {
		_ = w.Close()
	}
}

// Run executes the scenario and checks every oracle; after it, faulted or
// not, every fleet worker holds nothing and the goroutine count is back at
// its baseline.
func (sc *Scenario) Run(t testing.TB) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	defer func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<20)
			t.Errorf("%v: goroutines leaked: baseline %d, now %d\n%s",
				sc, baseline, n, buf[:runtime.Stack(buf, true)])
		}
	}()
	switch sc.rt {
	case Local:
		sc.reference(t, sc.j)
	case Session:
		sc.runSession(t)
	case Pool:
		sc.runPool(t)
	}
}

// checkRelay holds a session's multiway and stream runs to zero pairs
// through the coordinator since the session had relayed the given count.
func (sc *Scenario) checkRelay(sess *netexec.Session, relayed int64) error {
	if n := sess.RelayedPairs() - relayed; n != 0 && (sc.job == Multiway || sc.job == Stream) {
		return fmt.Errorf("%d pairs transited the coordinator", n)
	}
	return nil
}

func dial(t testing.TB, sc *Scenario, addrs []string, to netexec.Timeouts) *netexec.Session {
	t.Helper()
	sess, err := netexec.DialTenant(context.Background(), "", addrs, to)
	if err != nil {
		t.Fatalf("%v: dial: %v", sc, err)
	}
	return sess
}

func (sc *Scenario) runSession(t testing.TB) {
	width := sc.j
	if sc.fault != nil {
		width++ // the spare the recovery moves onto
	}
	ref := sc.reference(t, width)
	var counts []*faultnet.Script
	if sc.fault != nil {
		for range width {
			counts = append(counts, faultnet.NewScript())
		}
	}
	f := startFleet(t, width, counts)
	sess := dial(t, sc, f.addrs, netexec.Timeouts{Dial: 2 * time.Second})
	o, err := sc.runOnce(sess, false)
	if err == nil {
		err = sc.checkSame(o, ref)
	}
	if err == nil {
		err = sc.checkRelay(sess, 0)
	}
	if err == nil && sc.also != nil {
		err = sc.also(sess, o)
	}
	if err == nil {
		err = f.tallied(o.records())
	}
	if err == nil {
		err = f.idle(nil)
	}
	_ = sess.Close()
	f.close()
	if err == nil {
		err = f.idle(nil)
	}
	if err != nil {
		t.Fatalf("%v: %v", sc, err)
	}
	if sc.fault != nil {
		sc.runFaulted(t, ref, width, counts)
	}
}

// faultFrames lists the frames a fault may strike for a job kind: each one
// its receiver needs to finish its part, so striking it fails the job. A
// multiway job's contributions reach the victim on sessions of their own, in
// frames the coordinator sends too (shared). A stall strikes only the
// coordinator's session, the victim's first connection (a stalled receiver
// starves its sender, whom the coordinator would blame), so of the shared
// frames only the first OPEN, which it always carries. The one outbound
// frame is a stage-1 job's summary REPLY (see drawFrame).
func faultFrames(job Job) (session []byte, shared []byte, out []byte) {
	switch job {
	case Count:
		return []byte{faultnet.FrameOpen, faultnet.FrameStreamBase, faultnet.FrameStreamBaseEnd,
			faultnet.FrameStreamWin, faultnet.FrameStreamWinEnd, faultnet.FrameEOS}, nil, nil
	case Multiway:
		return []byte{faultnet.FrameStreamWin, faultnet.FrameStreamWinEnd, faultnet.FramePlan2},
			[]byte{faultnet.FrameOpen, faultnet.FrameEOS, faultnet.FrameStreamBase, faultnet.FrameStreamBaseEnd},
			[]byte{faultnet.FrameReply}
	}
	// A stream recovers inside its window loop; the first epoch's base ship
	// precedes it.
	return []byte{faultnet.FrameStreamWin, faultnet.FrameStreamWinEnd}, nil, nil
}

// drawFrame picks the victim and the frame among those the fault-free run
// carried to a worker, and the frame's index among that run's count. A
// pinned frame and index narrow the choice.
func (sc *Scenario) drawFrame(counts []*faultnet.Script) bool {
	var cands []faultSpec
	pin := sc.pin.Fault
	session, shared, out := faultFrames(sc.job)
	stall := sc.fault.action == faultnet.ActStall
	for w, count := range counts {
		add := func(dir faultnet.Dir, frames []byte, shared bool) {
			for _, fr := range frames {
				if pin != nil && pin.Frame != faultnet.FrameAny && (pin.Dir != dir || pin.Frame != fr) {
					continue
				}
				n := count.Seen(dir, fr)
				switch {
				case dir == faultnet.Out:
					// A worker's first REPLY is its stage-1 summary (a peer
					// open's acknowledgment follows every summary), and only a
					// stage-1 job is sent a PLAN2: a later reply may be the
					// pipeline's last, which nothing would need to retry.
					n = min(n, count.Seen(faultnet.In, faultnet.FramePlan2))
				case shared && stall && fr == faultnet.FrameOpen:
					n = min(n, 1)
				case shared && stall:
					n = 0
				}
				if n > 0 && (pin == nil || n >= pin.N) {
					cands = append(cands, faultSpec{victim: w, dir: dir, frame: fr, n: n})
				}
			}
		}
		add(faultnet.In, session, false)
		add(faultnet.Out, out, false)
		add(faultnet.In, shared, true)
	}
	if len(cands) == 0 {
		return false
	}
	rng := stats.NewRNG(sc.seed ^ 0xfa17)
	c := cands[rng.Intn(len(cands))]
	c.action, c.n = sc.fault.action, 1+rng.Intn(c.n)
	if pin != nil && pin.N > 0 {
		c.n = pin.N
	}
	*sc.fault = c
	return true
}

// runFaulted repeats the run on a fresh fleet whose victim the drawn fault
// strikes. It must recover onto the spare, leave exactly one worker out, and
// reproduce the fault-free reference at the survivor width.
func (sc *Scenario) runFaulted(t testing.TB, ref *reference, width int, counts []*faultnet.Script) {
	if !sc.drawFrame(counts) {
		t.Fatalf("%v: no worker carried a frame the fault may strike", sc)
	}
	var victim atomic.Pointer[netexec.Worker]
	rule := faultnet.Rule{Dir: sc.fault.dir, Frame: sc.fault.frame,
		N: sc.fault.n, Action: sc.fault.action, Fn: func() { _ = victim.Load().Close() }}
	if rule.Action == faultnet.ActStall {
		rule.Conn = 1 // the coordinator's session, the victim's first (see faultFrames)
	}
	script := faultnet.NewScript(rule)
	taps := make([]*faultnet.Script, width)
	taps[sc.fault.victim] = script
	f := startFleet(t, width, taps)
	victim.Store(f.workers[sc.fault.victim])
	to := netexec.Timeouts{Dial: 2 * time.Second, Job: 10 * time.Second}
	if sc.fault.action == faultnet.ActStall {
		// A wedged worker keeps its TCP peer alive: only the job deadline
		// cuts the stall, and the IO deadline a write blocked on its full
		// socket.
		to.Job, to.IO = 500*time.Millisecond, 2*time.Second
	}
	sess := dial(t, sc, f.addrs, to)
	o, err := sc.runOnce(sess, true)
	switch {
	case err != nil:
		err = fmt.Errorf("recovery failed: %w", err)
	case !script.Fired():
		err = errors.New("fault never injected; the run proves nothing")
	case sc.job == Stream:
		// The stream's epochs and makespan record the recovery; its total
		// may not move.
		err = sc.checkOracle(o, ref)
		if err == nil && o.stream.Faults == 0 {
			err = errors.New("the stream recorded no fault")
		}
	default:
		err = sc.checkSame(o, ref)
	}
	if err == nil {
		err = sc.checkRelay(sess, 0)
	}
	if err == nil {
		if _, n, serr := sess.Survivors(); serr != nil || n != width-1 {
			err = fmt.Errorf("survivors after recovery: %d (%v), want %d", n, serr, width-1)
		}
	}
	if err == nil {
		// A stalled victim keeps what its stalled job holds for as long as
		// the connection is open: faultnet's stall blocks the worker's read
		// until the worker closes it, and the fleet sets no Timeouts.IO to
		// cut it. Closing the fleet releases it, and then it too holds
		// nothing.
		var stalled *netexec.Worker
		if sc.fault.action == faultnet.ActStall {
			stalled = victim.Load()
		}
		err = f.idle(stalled)
	}
	_ = sess.Close()
	f.close()
	if err == nil {
		err = f.idle(nil)
	}
	if err != nil {
		t.Fatalf("%v: %v", sc, err)
	}
}

// poolJobs is how many jobs each pool tenant runs, one after another.
const poolJobs = 4

// tenants are the pool runtime's two tenants.
var tenants = [2]string{"alpha", "beta"}

// tenantJobs draws each pool tenant's jobs: tenant 0's first is the scenario
// itself, tenant 1's first a job of the same kind over its own relations,
// and the rest alternate count and pairs jobs unless the pin fixes the kind.
// Every job is drawn from a seed of its own under the same pin and J, so no
// two jobs share relations, configuration or reference.
func (sc *Scenario) tenantJobs() [2][]*Scenario {
	var jobs [2][]*Scenario
	for i := range jobs {
		for k := 0; k < poolJobs; k++ {
			if i == 0 && k == 0 {
				jobs[i] = append(jobs[i], sc)
				continue
			}
			pin := sc.pin
			pin.Runtime, pin.J, pin.Job = Pool, sc.j, sc.job
			if k > 0 && sc.pin.Job == AnyJob {
				pin.Job = []Job{Count, Pairs}[(i+k)%2]
			}
			job := Draw(sc.seed^uint64(i*poolJobs+k)<<56, pin)
			job.from = fmt.Sprintf("seed %d tenant %s job %d", sc.seed, tenants[i], k)
			jobs[i] = append(jobs[i], job)
		}
	}
	return jobs
}

// runPool runs two tenants of one fleet at once, each its own jobs in turn,
// and holds every job to its own in-process reference: a frame crossed
// between the tenants changes some job's result.
func (sc *Scenario) runPool(t testing.TB) {
	jobs := sc.tenantJobs()
	var refs [2][]*reference
	for i, js := range jobs {
		for _, job := range js {
			refs[i] = append(refs[i], job.reference(t, sc.j))
		}
	}
	f := startFleet(t, sc.j, nil)
	defer f.close()
	pool, err := netexec.NewPool(f.addrs, netexec.Timeouts{Dial: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sessions := make([]*netexec.Session, len(tenants))
	for i, tn := range tenants {
		if sessions[i], err = pool.Session(context.Background(), tn); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
	}
	if n := pool.OpenSessions(); n["alpha"] != 1 || n["beta"] != 1 {
		t.Fatalf("%v: open sessions %v, want one each for alpha and beta", sc, n)
	}
	errs := make([]error, len(tenants))
	ran := make([]map[string][]stage.Record, len(tenants))
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		ran[i] = map[string][]stage.Record{}
		go func() {
			defer wg.Done()
			defer sess.Close()
			for k, job := range jobs[i] {
				relayed := sess.RelayedPairs()
				o, err := job.runOnce(sess, false)
				if err == nil {
					err = job.checkSame(o, refs[i][k])
				}
				if err == nil {
					err = job.checkRelay(sess, relayed)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%v: %w", job, err)
					return
				}
				maps.Copy(ran[i], o.records())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	maps.Copy(ran[0], ran[1])
	err = f.tallied(ran[0])
	if err == nil {
		err = f.idle(nil)
	}
	pool.Close()
	f.close()
	if err == nil {
		err = f.idle(nil)
	}
	if err != nil {
		t.Fatalf("%v: %v", sc, err)
	}
}

// Row is a named scenario: settings a seed's draw does not pin by itself,
// run through the generator's checks plus the row's own.
type Row struct {
	Name string
	*Scenario
}

// Rows are the named scenarios, each pinning one regression.
func Rows() []Row {
	return []Row{
		// A skewed pipeline's stage 2 is the CSIO plan built from the
		// workers' distributed statistics, not a silent CI fallback, and its
		// peer jobs open while stage 1 still runs (the overlap counter moves).
		{"skewed-multiway-j2", skewedMultiway(900, 2, join.NewBand(2))},
		{"skewed-multiway-j4", skewedMultiway(1100, 4, join.Equi{})},
		// A stream whose distribution flips mid-way fires a drift replan, and
		// replanning beats the frozen plan's modeled makespan.
		{"stream-drift-replan", flipStream()},
	}
}

// skewedMultiway is a Zipf chain through the peer shuffle.
func skewedMultiway(seed uint64, j int, condB join.Condition) *Scenario {
	const n, domain = 800, 400
	sc := &Scenario{seed: seed, workload: "zipf", n1: n, n2: n, domain: domain,
		scheme: "CSIO per stage", j: j, mappers: 2, job: Multiway, rt: Session,
		cfg:  exec.Config{Seed: seed + 6, Mappers: 2},
		opts: core.Options{J: j, Model: model, Seed: seed + 5},
		q: multiway.Query{
			R1: workload.Zipfian(n, domain, 0.9, seed+1),
			Mid: multiway.MidRelation{
				A: workload.Zipfian(n, domain, 0.9, seed+2),
				B: workload.Zipfian(n, domain, 1.1, seed+3),
			},
			R3:    workload.Zipfian(n, domain, 0.9, seed+4),
			CondA: join.NewBand(1),
			CondB: condB,
		}}
	sc.also = func(sess *netexec.Session, o *outcome) error {
		if s2 := o.mw.Stages[1].Exec.Scheme; s2 != "CSIO@sess" {
			return fmt.Errorf("stage 2 ran %q, want the distributed-statistics CSIO plan", s2)
		}
		if sess.OverlappedStage2() <= 0 {
			return errors.New("no stage-2 stream overlapped stage 1")
		}
		return nil
	}
	return sc
}

// flipStream is 20k base keys over a wide range and twelve 2k windows, the
// last ten collapsed into a fortieth of it.
func flipStream() *Scenario {
	rng := stats.NewRNG(61)
	uniform := func(n int, span int64) []join.Key {
		return workload.Uniform(n, span, rng.Uint64())
	}
	sc := &Scenario{workload: "flip", n2: 20000, domain: 400_000, cond: join.NewBand(25),
		scheme: "CSIO from summaries", j: 4, mappers: 2, job: Stream, rt: Session,
		cfg:  exec.Config{Seed: 6, Mappers: 2},
		opts: core.Options{J: 4, Model: model, Seed: 5}}
	sc.r2 = uniform(sc.n2, 400_000)
	for i := 0; i < 12; i++ {
		span := int64(400_000)
		if i >= 2 {
			span = 10_000
		}
		sc.windows = append(sc.windows, uniform(2000, span))
	}
	sc.r1 = slices.Concat(sc.windows...)
	sc.n1 = len(sc.r1)
	sc.also = func(sess *netexec.Session, o *outcome) error {
		cfg := sc.streamConfig()
		cfg.FreezePlan = true
		frozen, err := streamjoin.Run(sess, sc.r2, sc.windows, sc.cond, cfg)
		switch {
		case err != nil:
			return fmt.Errorf("frozen run: %w", err)
		case o.stream.Replans < 1:
			return errors.New("the distribution flip fired no replan")
		case frozen.Total != o.stream.Total:
			return fmt.Errorf("frozen total %d, live %d", frozen.Total, o.stream.Total)
		case o.stream.Makespan >= frozen.Makespan:
			return fmt.Errorf("replanning did not pay: modeled makespan %.0f, frozen %.0f",
				o.stream.Makespan, frozen.Makespan)
		}
		return nil
	}
	return sc
}
