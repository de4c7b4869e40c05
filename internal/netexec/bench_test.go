package netexec

import (
	"bytes"
	"slices"
	"testing"

	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/wire"
)

// benchSession dials a persistent session to n fresh loopback workers
// (untimed setup): each timed iteration is one numbered job over the
// already-open connections.
func benchSession(b *testing.B, n int) *Session {
	b.Helper()
	_, addrs := startWorkers(b, nil, make([]*faultnet.Script, n)...)
	sess, err := Dial(addrs)
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

// BenchmarkControlFrameCodec times the control-record codec on the wire's
// own path, one sub-job's worth per op: its OPEN and its final REPLY, each
// through writeCtl and back through readFrameHeader and readCtl.
func BenchmarkControlFrameCodec(b *testing.B) {
	spec, err := join.SpecOf(join.NewBand(2))
	if err != nil {
		b.Fatal(err)
	}
	o := open{Kind: kindCount, WorkerID: 3, Cond: spec}
	m := reply{Final: true, InputR1: 50000, InputR2: 50000, Output: 1 << 20, Stages: jobStages(), BuildOverlapped: 4}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeCtl(&buf, wire.Open, 1, &o); err != nil {
			b.Fatal(err)
		}
		if err := writeCtl(&buf, wire.Reply, 1, &m); err != nil {
			b.Fatal(err)
		}
		var gotOpen open
		var gotM reply
		for _, rec := range []ctlRecord{&gotOpen, &gotM} {
			_, _, n, err := readFrameHeader(&buf)
			if err == nil {
				err = readCtl(&buf, n, maxControlPayload, rec)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if gotOpen.WorkerID != o.WorkerID || gotM.Output != m.Output {
			b.Fatalf("round trip decoded %+v and %+v", gotOpen, gotM)
		}
	}
}

// BenchmarkKeyFrameCodec times the key-frame codec on its own, in memory: a
// 64 Ki-key base run framed by writeStreamBaseKeys into a reused buffer, and
// its keys decoded back by readKeysLE into a reused block, the step
// readKeyFrame takes for every key frame a worker receives. ns/key is per key
// of the run.
func BenchmarkKeyFrameCodec(b *testing.B) {
	const n = 64 << 10
	keys := randKeys(n, 1<<40, 9)
	var buf bytes.Buffer
	if err := writeStreamBaseKeys(&buf, 1, 0, keys); err != nil {
		b.Fatal(err)
	}
	payload := slices.Clone(buf.Bytes()[wire.HeaderLen+streamBaseHdrLen:])
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := writeStreamBaseKeys(&buf, 1, 0, keys); err != nil {
				b.Fatal(err)
			}
		}
		if !bytes.Equal(buf.Bytes()[wire.HeaderLen+streamBaseHdrLen:], payload) {
			b.Fatal("the last frame differs from the first")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
	})
	b.Run("read", func(b *testing.B) {
		dst := make([]join.Key, n)
		r := bytes.NewReader(payload)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(payload)
			if err := readKeysLE(r, dst); err != nil {
				b.Fatal(err)
			}
		}
		if !slices.Equal(dst, keys) {
			b.Fatal("decoded keys differ from the written ones")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
	})
}
