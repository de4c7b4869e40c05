package netexec

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/stage"
)

// FuzzControlRecord throws arbitrary payloads at the control-record decoders,
// one arm each for OPEN, PLAN2 and REPLY. Decoding
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
	stats := exec.StatsSpec{Seed: 5}
	for kind := kindCount; kind < numKinds; kind++ {
		f.Add(byte(0), (&open{Kind: kind, WorkerID: 3, Cond: spec, Stats: stats, Token: 9, Senders: 4}).append(nil))
	}
	// An OPEN in version 10's layout, the summary's cap and buckets (u32
	// each) before its seed and an adaptive byte after it, is refused.
	o := open{Kind: kindPlan, WorkerID: 3, Cond: spec, Stats: stats, Token: 9, Senders: 4}
	v11 := o.append(nil)
	seedAt := len(v11) - 8 - 8 - 4
	v10 := le.AppendUint32(le.AppendUint32(slices.Clone(v11[:seedAt]), 64), 8)
	v10 = append(append(v10, v11[seedAt:seedAt+8]...), 1)
	v10 = append(v10, v11[seedAt+8:]...)
	if len(v10) != len(v11)+9 || decodeCtl(v10, new(open)) == nil {
		f.Fatal("an OPEN in version 10's layout decoded")
	}
	f.Add(byte(0), v10)
	f.Add(byte(1), (&plan2{Plan: []byte("EWHP\x01\x00"), Self: -1, Peers: []string{"127.0.0.1:1", "[::1]:2"}}).append(nil))
	// A REPLY cut off inside its stage record is refused.
	full := (&reply{Final: true, Stages: jobStages()}).append(nil)
	cut := full[:1+4+4+8*4+8*2+3]
	if decodeCtl(cut, new(reply)) == nil {
		f.Fatal("a REPLY cut off inside its stage record decoded")
	}
	f.Add(byte(2), cut)
	for _, r := range []reply{
		{Window: 7, Epoch: 2, InputR1: 40, Output: 12, Summary: []byte("EWHS"), Stages: jobStages()},
		{Final: true, InputR1: 5, InputR2: 6, Output: 30, Stages: jobStages(), BuildOverlapped: 3, PeerCounts: []int64{1, 2}},
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

// jobStages is a stage record with every stage a REPLY carries set, each to
// its own value.
func jobStages() (r stage.Record) {
	for s := stage.FirstJob; s < stage.NumStages; s++ {
		r[s] = int64(s)<<20 + 1
	}
	return r
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
