package exec_test

// Golden determinism table: for a fixed seed the join output, the tuples
// shipped and the modeled makespan of every scenario below are exact
// integers (max_work a sum of integer-weighted counts), on any machine and
// at any GOMAXPROCS. A planner, routing or engine change that moves one is
// either a bug or a deliberate re-plan — in the second case the failure
// prints the observed cell as a table literal to paste over the old one.
// Wall time is not looked at here; that is the benchmark module's job
// (DESIGN.md "How this repo is measured").

import (
	"fmt"
	"testing"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/multiway"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/stats"
	"ewh/internal/streamjoin"
)

const (
	goldenN    = 200000
	goldenSeed = 42
	goldenJ    = 8
)

// goldenTriple is what a cell pins: join output, network tuples, modeled
// makespan (max per-worker work).
type goldenTriple struct {
	output, network int64
	maxWork         float64
}

func (g goldenTriple) String() string {
	return fmt.Sprintf("goldenTriple{%d, %d, %v}", g.output, g.network, g.maxWork)
}

func tripleOf(r *exec.Result) goldenTriple {
	return goldenTriple{r.Output, r.NetworkTuples, r.MaxWork}
}

// goldenEnv is the shared input of every cell: three relations drawn in
// order from one RNG, the two content-insensitive schemes and the CSIO plan
// of the band join.
type goldenEnv struct {
	r1, r2 []join.Key
	midB   []join.Key
	r3     []join.Key
	hash   partition.Scheme
	ci     partition.Scheme
	csio   partition.Scheme
	band   join.Condition
}

func newGoldenEnv(t *testing.T) *goldenEnv {
	t.Helper()
	rng := stats.NewRNG(goldenSeed)
	draw := func() []join.Key {
		ks := make([]join.Key, goldenN)
		for i := range ks {
			ks[i] = rng.Int64n(goldenN)
		}
		return ks
	}
	e := &goldenEnv{band: join.NewBand(2)}
	e.r1, e.r2 = draw(), draw()
	e.midB, e.r3 = make([]join.Key, goldenN), make([]join.Key, goldenN)
	for i := range e.midB { // interleaved draws, as the rows were recorded
		e.midB[i] = rng.Int64n(goldenN)
		e.r3[i] = rng.Int64n(goldenN)
	}
	hash, err := partition.NewHash(goldenJ, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.hash, e.ci = hash, partition.NewCI(goldenJ)
	plan, err := core.PlanCSIO(e.r1, e.r2, e.band,
		core.Options{J: goldenJ, Model: cost.DefaultBand, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	e.csio = plan.Scheme
	return e
}

var goldenCfg = exec.Config{Seed: goldenSeed, Mappers: 4}

// goldenScenario runs one cell and reports its triple.
type goldenScenario func() (goldenTriple, error)

// keyJoin is a bare-key join of R1 against r2 (empty: a pure shuffle).
func (e *goldenEnv) keyJoin(rt exec.Runtime, r2 []join.Key, cond join.Condition,
	scheme partition.Scheme) goldenScenario {

	return func() (goldenTriple, error) {
		res, err := exec.RunOver(rt, e.r1, r2, cond, scheme, cost.DefaultBand, goldenCfg)
		if err != nil {
			return goldenTriple{}, err
		}
		return tripleOf(res), nil
	}
}

// localCount is the merge-sweep count with no shuffle around it.
func (e *goldenEnv) localCount() (goldenTriple, error) {
	return goldenTriple{output: localjoin.Count(e.r1, e.r2, e.band)}, nil
}

// tuplePairsShuffle ships tuple relation R1 as a pairs job's flat key blocks
// (its payloads stay with the driver) against nothing.
func (e *goldenEnv) tuplePairsShuffle(rt exec.Runtime) goldenScenario {
	return func() (goldenTriple, error) {
		ts := make([]exec.Tuple[join.Key], len(e.r1))
		for i, k := range e.r1 {
			ts[i] = exec.Tuple[join.Key]{Key: k, Payload: k * 3}
		}
		res, err := exec.RunTuplesOver(rt, ts, nil, join.Equi{}, e.hash, cost.DefaultBand,
			goldenCfg,
			func(int, exec.Tuple[join.Key], exec.Tuple[join.Key]) {})
		if err != nil {
			return goldenTriple{}, err
		}
		return tripleOf(res), nil
	}
}

// chain3 is the 3-way chain R1 ⋈(band 1) Mid ⋈(equi) R3 through the peer
// shuffle: network is summed over the stages, maxWork is the worse stage.
func (e *goldenEnv) chain3(rt exec.Runtime) goldenScenario {
	return func() (goldenTriple, error) {
		q := multiway.Query{R1: e.r1, Mid: multiway.MidRelation{A: e.r2, B: e.midB}, R3: e.r3,
			CondA: join.NewBand(1), CondB: join.Equi{}}
		res, err := multiway.ExecuteOver(rt, q,
			core.Options{J: goldenJ, Model: cost.DefaultBand, Seed: goldenSeed}, goldenCfg)
		if err != nil {
			return goldenTriple{}, err
		}
		g := goldenTriple{output: res.Output}
		for _, st := range res.Stages {
			if st.Exec == nil {
				continue
			}
			g.network += st.Exec.NetworkTuples
			g.maxWork = max(g.maxWork, st.Exec.MaxWork)
		}
		return g, nil
	}
}

// skewFlipStream is a continuous join whose windows are uniform over the
// wide keyspace twice and then collapse into a narrow range: the drift
// detector must catch the flip and replan, or the cell pins nothing.
func skewFlipStream(rt exec.Runtime) goldenScenario {
	return func() (goldenTriple, error) {
		rng := stats.NewRNG(goldenSeed + 61)
		draw := func(count int, span int64) []join.Key {
			ks := make([]join.Key, count)
			for i := range ks {
				ks[i] = rng.Int64n(span)
			}
			return ks
		}
		base := draw(goldenN/10, 2*goldenN)
		var windows [][]join.Key
		for i := 0; i < 2; i++ {
			windows = append(windows, draw(goldenN/100, 2*goldenN))
		}
		for i := 0; i < 8; i++ {
			windows = append(windows, draw(goldenN/100, goldenN/20))
		}
		res, err := streamjoin.Run(rt, base, windows, join.NewBand(25), streamjoin.Config{
			Opts:  core.Options{J: goldenJ, Model: cost.DefaultBand, Seed: goldenSeed},
			Exec:  goldenCfg,
			Stats: exec.StatsSpec{Seed: goldenSeed},
		})
		if err != nil {
			return goldenTriple{}, err
		}
		if res.Replans < 1 {
			return goldenTriple{}, fmt.Errorf("the skew flip fired no replan; the cell pins nothing")
		}
		g := goldenTriple{output: res.Total, maxWork: res.Makespan}
		for _, ws := range res.Windows {
			g.network += int64(ws.Input)
		}
		return g, nil
	}
}

// TestGoldenDeterministicTriples holds the record: scenario × runtime
// (exec.Local, one loopback session dialed once), one run per cell. To
// re-record a cell after a deliberate planner or routing change, run the
// test and paste the line it prints over the cell's first two columns. The
// names are the rows of the retired engine-benchmark baseline
// (EXPERIMENTS.md "Retired baselines" keeps their last wall times).
func TestGoldenDeterministicTriples(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-tuple scenarios are slow in -short mode")
	}
	e := newGoldenEnv(t)
	var local exec.Runtime = exec.Local{}
	addrs := make([]string, max(goldenJ, e.csio.Workers()))
	for i := range addrs {
		w, err := netexec.ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = w.Addr()
		go func() { _ = w.Serve() }()
		t.Cleanup(func() { _ = w.Close() })
	}
	dialed, err := netexec.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dialed.Close() })
	var sess exec.Runtime = dialed
	none, equi := []join.Key{}, join.Equi{}

	for _, c := range []struct {
		name string
		want goldenTriple
		run  goldenScenario
	}{
		{"shuffle-hash", goldenTriple{0, 200000, 25267}, e.keyJoin(local, none, equi, e.hash)},
		{"shuffle-ci-replicated", goldenTriple{0, 800000, 100338}, e.keyJoin(local, none, e.band, e.ci)},
		{"run-csio-band", goldenTriple{999359, 400032, 80137.2}, e.keyJoin(local, e.r2, e.band, e.csio)},
		{"exec-hashjoin-equi", goldenTriple{199566, 400000, 55436}, e.keyJoin(local, e.r2, equi, e.hash)},
		{"localjoin-band-count", goldenTriple{999359, 0, 0}, e.localCount},
		{"netexec-session-shuffle", goldenTriple{0, 200000, 25267}, e.keyJoin(sess, none, equi, e.hash)},
		{"netexec-session-csio-band", goldenTriple{999359, 400032, 80137.2}, e.keyJoin(sess, e.r2, e.band, e.csio)},
		{"netexec-session-hashjoin-overlap", goldenTriple{199566, 400000, 55436}, e.keyJoin(sess, e.r2, equi, e.hash)},
		{"netexec-session-tuple-pairs", goldenTriple{0, 200000, 25267}, e.tuplePairsShuffle(sess)},
		{"netexec-peer-multiway-csio", goldenTriple{601514, 1199247, 119054.8}, e.chain3(sess)},
		// The pipelined peer path is the only stage-2 path now; this second run
		// on the same session also pins that a repeat leaves the triple alone.
		{"netexec-peer-multiway-pipelined", goldenTriple{601514, 1199247, 119054.8}, e.chain3(sess)},
		{"netexec-stream-drift", goldenTriple{51576, 20005, 17272}, skewFlipStream(sess)},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("table has %v; observed, as the cell's first columns:\n\t{%q, %v,", c.want, c.name, got)
			}
		})
	}
}
