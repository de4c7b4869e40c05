package netexec

import (
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
