package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

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

// ExecBenchRow is one engine micro-measurement. WallNS is the minimum of
// three repetitions, the most noise-robust point estimate on shared machines.
type ExecBenchRow struct {
	Name          string  `json:"name"`
	Scheme        string  `json:"scheme"`
	N1            int     `json:"n1"`
	N2            int     `json:"n2"`
	Mappers       int     `json:"mappers"`
	WallNS        int64   `json:"wall_ns"`
	Output        int64   `json:"output"`
	NetworkTuples int64   `json:"network_tuples"`
	MaxWork       float64 `json:"max_work"`
}

// ExecBenchReport is the machine-readable engine benchmark ewhbench emits as
// BENCH_exec.json so successive PRs can track the hot-path trajectory. CPUs
// records the recording machine's core count — provenance for telling a
// single-core-recorded baseline from a genuine multi-core one (the
// regression gate compares GOMAXPROCS, not CPUs).
type ExecBenchReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUs       int            `json:"cpus,omitempty"`
	Scale      int            `json:"scale"`
	Seed       uint64         `json:"seed"`
	Rows       []ExecBenchRow `json:"rows"`
}

const execBenchReps = 5

// StreamDriftRow names the continuous-join benchmark entry: a stream job
// whose window distribution flips mid-stream, forcing a drift-triggered
// replan every run (the row errors out if the flip fires none).
const StreamDriftRow = "netexec-stream-drift"

// ExecBench times the engine's hot paths: the shuffle (fan-out-1 and
// replicating), the full CSIO band-join execution, the local merge-sweep
// count in isolation, and the distributed (netexec) path: session jobs,
// multiway pipelines and a continuous join over loopback TCP workers.
func ExecBench(cfg Config) (*ExecBenchReport, error) {
	cfg.Defaults()
	n := 200000 * cfg.Scale
	rep := &ExecBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
		Scale: cfg.Scale, Seed: cfg.Seed}

	rng := stats.NewRNG(cfg.Seed)
	r1 := make([]join.Key, n)
	r2 := make([]join.Key, n)
	for i := range r1 {
		r1[i] = rng.Int64n(int64(n))
	}
	for i := range r2 {
		r2[i] = rng.Int64n(int64(n))
	}
	empty := []join.Key{}

	hash, err := partition.NewHash(cfg.J, nil)
	if err != nil {
		return nil, err
	}
	ci := partition.NewCI(cfg.J)
	band := join.NewBand(2)
	csio, err := core.PlanCSIO(r1, r2, band, core.Options{J: cfg.J, Model: cost.DefaultBand, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("execbench: plan CSIO: %w", err)
	}

	runRow := func(name string, s partition.Scheme, ra, rb []join.Key, cond join.Condition,
		engine exec.JoinEngine) {
		var best *exec.Result
		for i := 0; i < execBenchReps; i++ {
			res := exec.Run(ra, rb, cond, s, cost.DefaultBand,
				exec.Config{Seed: cfg.Seed, Mappers: 4, Engine: engine})
			if best == nil || res.WallTime < best.WallTime {
				best = res
			}
		}
		rep.Rows = append(rep.Rows, ExecBenchRow{
			Name: name, Scheme: s.Name(), N1: len(ra), N2: len(rb), Mappers: 4,
			WallNS: best.WallTime.Nanoseconds(), Output: best.Output,
			NetworkTuples: best.NetworkTuples, MaxWork: best.MaxWork,
		})
	}

	runRow("shuffle-hash", hash, r1, empty, join.Equi{}, exec.EngineAuto)
	runRow("shuffle-ci-replicated", ci, r1, empty, band, exec.EngineAuto)
	runRow("run-csio-band", csio.Scheme, r1, r2, band, exec.EngineAuto)
	// The equi hot path under the hash engine (auto resolves to the same
	// path): Local consumes the chunked scatter and insert-while-probes — the
	// row the PR-9 local-join work is tracked by (its merge twin is the
	// localjoin row below; the distributed twin is
	// netexec-session-hashjoin-overlap).
	runRow("exec-hashjoin-equi", hash, r1, r2, join.Equi{}, exec.EngineHash)

	var bestCount time.Duration
	var out int64
	for i := 0; i < execBenchReps; i++ {
		start := time.Now()
		out = localjoin.Count(r1, r2, band)
		if d := time.Since(start); bestCount == 0 || d < bestCount {
			bestCount = d
		}
	}
	rep.Rows = append(rep.Rows, ExecBenchRow{
		Name: "localjoin-band-count", Scheme: "-", N1: n, N2: n, Mappers: 1,
		WallNS: bestCount.Nanoseconds(), Output: out,
	})

	// Distributed path over loopback TCP. The shuffle rows ship R1 against
	// an empty R2, so the workers' local join is a no-op and the wall time
	// is the wire path end to end: batch-route, encode, ship, decode.
	workers := cfg.J
	if w := csio.Scheme.Workers(); w > workers {
		workers = w
	}
	addrs := make([]string, workers)
	for i := range addrs {
		w, err := netexec.ListenWorker("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("execbench: loopback worker: %w", err)
		}
		go func() { _ = w.Serve() }()
		defer w.Close()
		addrs[i] = w.Addr()
	}
	// The workers are dialed ONCE — every rep is a numbered job over the open
	// connections. The payload row ships each tuple with an 8-byte payload
	// segment against an empty R2, isolating the payload wire path (encode,
	// ship, decode into pooled flat buffers).
	sess, err := netexec.Dial(addrs)
	if err != nil {
		return nil, fmt.Errorf("execbench: dial session: %w", err)
	}
	defer sess.Close()
	runNetRow := func(name string, s partition.Scheme, ra, rb []join.Key, cond join.Condition) error {
		var best *exec.Result
		for i := 0; i < execBenchReps; i++ {
			res, err := exec.RunOver(sess, ra, rb, cond, s, cost.DefaultBand,
				exec.Config{Seed: cfg.Seed, Mappers: 4})
			if err != nil {
				return fmt.Errorf("execbench: %s: %w", name, err)
			}
			if best == nil || res.WallTime < best.WallTime {
				best = res
			}
		}
		rep.Rows = append(rep.Rows, ExecBenchRow{
			Name: name, Scheme: best.Scheme, N1: len(ra), N2: len(rb), Mappers: 4,
			WallNS: best.WallTime.Nanoseconds(), Output: best.Output,
			NetworkTuples: best.NetworkTuples, MaxWork: best.MaxWork,
		})
		return nil
	}
	if err := runNetRow("netexec-session-shuffle", hash, r1, empty, join.Equi{}); err != nil {
		return nil, err
	}
	if err := runNetRow("netexec-session-csio-band", csio.Scheme, r1, r2, band); err != nil {
		return nil, err
	}
	// The distributed insert-while-probe row: an equi count job whose chunks
	// feed the workers' hash builds as they decode (relation 2 probes the
	// sealed build chunk by chunk, never materializing). The auto engine
	// resolves to hash for equi, so this is the default session equi path.
	if err := runNetRow("netexec-session-hashjoin-overlap", hash, r1, r2, join.Equi{}); err != nil {
		return nil, err
	}

	payTuples := make([]exec.Tuple[join.Key], n)
	for i, k := range r1 {
		payTuples[i] = exec.Tuple[join.Key]{Key: k, Payload: k * 3}
	}
	encKey := func(dst []byte, p join.Key) []byte {
		return binary.LittleEndian.AppendUint64(dst, uint64(p))
	}
	var bestPay *exec.Result
	for i := 0; i < execBenchReps; i++ {
		res, err := exec.RunTuplesOver(sess, payTuples, nil, join.Equi{}, hash,
			cost.DefaultBand, exec.Config{Seed: cfg.Seed, Mappers: 4}, encKey, encKey,
			func(int, exec.Tuple[join.Key], exec.Tuple[join.Key]) {})
		if err != nil {
			return nil, fmt.Errorf("execbench: netexec-session-payload: %w", err)
		}
		if bestPay == nil || res.WallTime < bestPay.WallTime {
			bestPay = res
		}
	}
	rep.Rows = append(rep.Rows, ExecBenchRow{
		Name: "netexec-session-payload", Scheme: bestPay.Scheme, N1: n, N2: 0, Mappers: 4,
		WallNS: bestPay.WallTime.Nanoseconds(), Output: bestPay.Output,
		NetworkTuples: bestPay.NetworkTuples, MaxWork: bestPay.MaxWork,
	})

	// Multiway pipeline rows over the same session, all through the direct
	// worker→worker peer shuffle (the intermediate never transits the
	// coordinator) — once with the pre-broadcast content-insensitive Hash
	// stage-2 plan and once with the distributed-statistics CSIO plan
	// (workers summarize their intermediates, the coordinator replans and
	// broadcasts a second PLAN frame); the csio-vs-hash delta prices the
	// statistics exchange.
	midB := make([]join.Key, n)
	r3 := make([]join.Key, n)
	for i := range midB {
		midB[i] = rng.Int64n(int64(n))
		r3[i] = rng.Int64n(int64(n))
	}
	q := multiway.Query{
		R1:    r1,
		Mid:   multiway.MidRelation{A: r2, B: midB},
		R3:    r3,
		CondA: join.NewBand(1),
		CondB: join.Equi{},
	}
	mopts := core.Options{J: cfg.J, Model: cost.DefaultBand, Seed: cfg.Seed}
	runMwayRow := func(name string,
		run func(exec.Runtime, multiway.Query, core.Options, exec.Config) (*multiway.Result, error)) error {

		var best *multiway.Result
		var bestWall time.Duration
		for i := 0; i < execBenchReps; i++ {
			start := time.Now()
			res, err := run(sess, q, mopts, exec.Config{Seed: cfg.Seed, Mappers: 4})
			wall := time.Since(start)
			if err != nil {
				return fmt.Errorf("execbench: %s: %w", name, err)
			}
			if best == nil || wall < bestWall {
				best, bestWall = res, wall
			}
		}
		var net int64
		var maxWork float64
		scheme := ""
		for _, st := range best.Stages {
			if st.Exec == nil {
				continue
			}
			net += st.Exec.NetworkTuples
			if st.Exec.MaxWork > maxWork {
				maxWork = st.Exec.MaxWork
			}
			if scheme != "" {
				scheme += "+"
			}
			scheme += st.Exec.Scheme
		}
		rep.Rows = append(rep.Rows, ExecBenchRow{
			Name: name, Scheme: scheme, N1: n, N2: n, Mappers: 4,
			WallNS: bestWall.Nanoseconds(), Output: best.Output,
			NetworkTuples: net, MaxWork: maxWork,
		})
		return nil
	}
	peerMode := func(mode multiway.Stage2Mode) func(exec.Runtime, multiway.Query, core.Options, exec.Config) (*multiway.Result, error) {
		return func(rt exec.Runtime, q multiway.Query, opts core.Options, cfg exec.Config) (*multiway.Result, error) {
			return multiway.ExecuteOverStage2(rt, q, opts, cfg, mode)
		}
	}
	if err := runMwayRow("netexec-peer-multiway", peerMode(multiway.Stage2Hash)); err != nil {
		return nil, err
	}
	if err := runMwayRow("netexec-peer-multiway-csio", peerMode(multiway.Stage2CSIO)); err != nil {
		return nil, err
	}
	// The fully pipelined configuration: Auto picks the stats-deferred CSIO
	// replan, and the session overlaps the stage-2 peer opens and R3
	// chunk-streaming with stage 1 — the row that prices the end-to-end
	// dataflow with every barrier removed.
	if err := runMwayRow("netexec-peer-multiway-pipelined", peerMode(multiway.Stage2Auto)); err != nil {
		return nil, err
	}

	// The continuous-join row: a long-lived stream job over the same session
	// whose window distribution flips mid-stream, so every rep exercises the
	// whole drift path — per-window summaries, the drift comparison, at least
	// one mid-stream replan with a live base re-partition, and the epoch
	// cutover on the wire. Output is the stream's match total (deterministic,
	// exact-gated); MaxWork is the modeled makespan the replan is supposed to
	// keep down, so a drift-detection or replanning regression moves a gated
	// number even when wall time hides it.
	sbase, swindows := streamDriftWorkload(n, cfg.Seed)
	scond := join.NewBand(25)
	scfg := streamjoin.Config{
		Opts:  core.Options{J: cfg.J, Model: cost.DefaultBand, Seed: cfg.Seed},
		Exec:  exec.Config{Seed: cfg.Seed, Mappers: 4},
		Stats: exec.StatsSpec{Seed: cfg.Seed},
	}
	var bestStream *streamjoin.Result
	var bestStreamWall time.Duration
	for i := 0; i < execBenchReps; i++ {
		start := time.Now()
		res, err := streamjoin.Run(sess, sbase, swindows, scond, scfg)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("execbench: %s: %w", StreamDriftRow, err)
		}
		if res.Replans < 1 {
			return nil, fmt.Errorf("execbench: %s: the skew flip fired no replan; the row measures nothing", StreamDriftRow)
		}
		if bestStream == nil || wall < bestStreamWall {
			bestStream, bestStreamWall = res, wall
		}
	}
	var streamShipped, streamN1 int64
	for _, ws := range bestStream.Windows {
		streamShipped += int64(ws.Input)
	}
	for _, w := range swindows {
		streamN1 += int64(len(w))
	}
	rep.Rows = append(rep.Rows, ExecBenchRow{
		Name: StreamDriftRow, Scheme: "csio-stream", N1: int(streamN1), N2: len(sbase), Mappers: 4,
		WallNS: bestStreamWall.Nanoseconds(), Output: bestStream.Total,
		NetworkTuples: streamShipped, MaxWork: bestStream.Makespan,
	})
	return rep, nil
}

// streamDriftWorkload builds the skew-flip stream the StreamDriftRow runs:
// two windows uniform over the wide keyspace, then the distribution
// collapses into a narrow range for the rest of the stream — the flip the
// drift detector must catch and replan through.
func streamDriftWorkload(n int, seed uint64) (base []join.Key, windows [][]join.Key) {
	rng := stats.NewRNG(seed + 61)
	draw := func(count int, span int64) []join.Key {
		ks := make([]join.Key, count)
		for i := range ks {
			ks[i] = rng.Int64n(span)
		}
		return ks
	}
	base = draw(n/10, int64(2*n))
	for i := 0; i < 2; i++ {
		windows = append(windows, draw(n/100, int64(2*n)))
	}
	for i := 0; i < 8; i++ {
		windows = append(windows, draw(n/100, int64(n/20)))
	}
	return base, windows
}

// WriteExecBenchJSON runs ExecBench, writes the report to path, echoes a
// one-line summary per row to w, and returns the report so callers (the
// ewhbench CLI's -baseline gate) can compare it without re-reading the file.
func WriteExecBenchJSON(w io.Writer, cfg Config, path string) (*ExecBenchReport, error) {
	rep, err := ExecBench(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-26s %-10s wall=%8.2fms out=%d net=%d\n",
			r.Name, r.Scheme, float64(r.WallNS)/1e6, r.Output, r.NetworkTuples)
	}
	if err := writeReportJSON(path, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeReportJSON persists a report in the committed-baseline shape.
func writeReportJSON(path string, rep *ExecBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
