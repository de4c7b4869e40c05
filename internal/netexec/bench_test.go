package netexec

import (
	"bytes"
	"testing"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/partition"
)

// startBenchWorkers mirrors startWorkerSet for benchmarks.
func startBenchWorkers(b *testing.B, n int) []string {
	b.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := ListenWorker("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = w.Addr()
		go func() { _ = w.Serve() }()
		b.Cleanup(func() { _ = w.Close() })
	}
	return addrs
}

// benchSession dials a persistent session to n fresh loopback workers
// (untimed setup): each timed iteration is one numbered job over the
// already-open connections.
func benchSession(b *testing.B, n int) *Session {
	b.Helper()
	sess, err := Dial(startBenchWorkers(b, n))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = sess.Close() })
	return sess
}

// BenchmarkLoopbackShuffleSession isolates the wire path: R2 is empty, so
// the workers' local join is a no-op and the wall time is routing, encode,
// ship, decode.
func BenchmarkLoopbackShuffleSession(b *testing.B) {
	const n = 200000
	r1 := randKeys(n, n, 1)
	hash, err := partition.NewHash(4, nil)
	if err != nil {
		b.Fatal(err)
	}
	sess := benchSession(b, 4)
	cfg := exec.Config{Seed: 2, Mappers: 4}
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.RunOver(sess, r1, nil, join.Equi{}, hash, model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.NetworkTuples != n {
			b.Fatalf("shipped %d tuples, want %d", res.NetworkTuples, n)
		}
	}
}

// BenchmarkLoopbackTuplePairsSession times the tuple driver's flat-block path
// in isolation: a pairs job ships R1's 200k keys (the payloads stay with the
// driver) against an empty R2, so the wall time is route, project, encode,
// ship, decode into pooled flat buffers.
func BenchmarkLoopbackTuplePairsSession(b *testing.B) {
	const n = 200000
	keys := randKeys(n, n, 7)
	r1 := make([]exec.Tuple[join.Key], n)
	for i, k := range keys {
		r1[i] = exec.Tuple[join.Key]{Key: k, Payload: k * 3}
	}
	var r2 []exec.Tuple[join.Key]
	hash, err := partition.NewHash(4, nil)
	if err != nil {
		b.Fatal(err)
	}
	sess := benchSession(b, 4)
	cfg := exec.Config{Seed: 8, Mappers: 4}
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.RunTuplesOver(sess, r1, r2, join.Equi{}, hash, model, cfg,
			func(int, exec.Tuple[join.Key], exec.Tuple[join.Key]) {})
		if err != nil {
			b.Fatal(err)
		}
		if res.NetworkTuples != n {
			b.Fatalf("shipped %d tuples, want %d", res.NetworkTuples, n)
		}
	}
}

// BenchmarkLoopbackBandJoinSession is the end-to-end counterpart: a full
// band join over the wire, dominated by shuffle + local join together.
func BenchmarkLoopbackBandJoinSession(b *testing.B) {
	const n = 100000
	r1 := randKeys(n, n, 3)
	r2 := randKeys(n, n, 4)
	cond := join.NewBand(2)
	ci := partition.NewCI(4)
	sess := benchSession(b, 4)
	cfg := exec.Config{Seed: 5, Mappers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunOver(sess, r1, r2, cond, ci, model, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlFrameCodec times the gob control-frame codec on the wire's
// own path, one sub-job's worth per op: its jobOpen and its metrics, each
// through writeV3GobFrame and back through readV3FrameHeader and
// readGobPayload, with the fresh encoder and decoder every frame gets.
func BenchmarkControlFrameCodec(b *testing.B) {
	spec, err := join.SpecOf(join.NewBand(2))
	if err != nil {
		b.Fatal(err)
	}
	open := jobOpen{WorkerID: 3, Cond: spec}
	m := metrics{InputR1: 50000, InputR2: 50000, Output: 1 << 20, Nanos: 1 << 24, BuildOverlapped: 4}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeV3GobFrame(&buf, frameV3OpenJob, 1, open); err != nil {
			b.Fatal(err)
		}
		if err := writeV3GobFrame(&buf, frameV3Metrics, 1, m); err != nil {
			b.Fatal(err)
		}
		var gotOpen jobOpen
		var gotM metrics
		for _, v := range []any{&gotOpen, &gotM} {
			_, _, n, err := readV3FrameHeader(&buf)
			if err == nil {
				err = readGobPayload(&buf, n, v)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if gotOpen.WorkerID != open.WorkerID || gotM.Output != m.Output {
			b.Fatalf("round trip decoded %+v and %+v", gotOpen, gotM)
		}
	}
}
