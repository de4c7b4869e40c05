package netexec

import (
	"bytes"
	"runtime"
	"testing"

	"ewh/internal/exec"
	"ewh/internal/join"
)

// FuzzControlRecord throws arbitrary payloads at the control-record decoders,
// one arm each for OPEN, PLAN2 and REPLY (PLANCANCEL is a bare u64). Decoding
// must never panic, never allocate more than a small constant times the
// payload, and whatever decodes must re-encode byte for byte: a decoder that
// skipped a byte or a field would answer a frame its writer never framed.
func FuzzControlRecord(f *testing.F) {
	arms := []func() ctlRecord{
		func() ctlRecord { return new(open) },
		func() ctlRecord { return new(plan2) },
		func() ctlRecord { return new(reply) },
	}
	spec := join.Spec{Kind: "band", Beta: 2}
	stats := exec.StatsSpec{Cap: 64, Buckets: 8, Seed: 5, Adaptive: true}
	for kind := kindCount; kind < numKinds; kind++ {
		f.Add(byte(0), (&open{Kind: kind, WorkerID: 3, Cond: spec, Stats: stats, Token: 9, Senders: 4}).append(nil))
	}
	f.Add(byte(1), (&plan2{Plan: []byte("EWHP\x01\x00"), Self: -1, Peers: []string{"127.0.0.1:1", "[::1]:2"}}).append(nil))
	for _, r := range []reply{
		{Window: 7, Epoch: 2, InputR1: 40, Output: 12, Summary: []byte("EWHS")},
		{Final: true, InputR1: 5, InputR2: 6, Output: 30, Nanos: 1 << 20, BuildOverlapped: 3, PeerCounts: []int64{1, 2}},
		{Final: true, Err: "worker shutting down", Code: codeDraining},
		{Final: true, Err: "transfer 9: refused", FaultAddr: "127.0.0.1:7001"},
	} {
		f.Add(byte(2), r.append(nil))
	}
	f.Fuzz(func(t *testing.T, sel byte, payload []byte) {
		// TotalAlloc is process-wide: the smaller of two decodes' counts is
		// this decode's, unless another goroutine allocated during both.
		var rec ctlRecord
		var err error
		grew := ^uint64(0)
		for range 2 {
			rec = arms[int(sel)%len(arms)]()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = decodeCtl(payload, rec)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 1024+16*uint64(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		if got := rec.append(nil); !bytes.Equal(got, payload) {
			t.Fatalf("%T decoded %+v from %x, re-encodes as %x", rec, rec, payload, got)
		}
	})
}

// TestControlRecordPeerBound pins the one list bound the records carry: a
// PLAN2 may name maxPeerSenders peers and a REPLY carry as many peer counts,
// and one more is refused before the list is allocated.
func TestControlRecordPeerBound(t *testing.T) {
	for _, n := range []int{maxPeerSenders, maxPeerSenders + 1} {
		for _, c := range []struct{ sent, got ctlRecord }{
			{&plan2{Peers: make([]string, n)}, new(plan2)},
			{&reply{Final: true, PeerCounts: make([]int64, n)}, new(reply)},
		} {
			err := decodeCtl(c.sent.append(nil), c.got)
			if refused := err != nil; refused != (n > maxPeerSenders) {
				t.Errorf("%T with %d entries: decode returned %v", c.sent, n, err)
			}
		}
	}
}
