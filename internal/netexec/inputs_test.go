package netexec

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/multiway"
	"ewh/internal/stage"
	"ewh/internal/streamjoin"
)

// cloneAll deep-copies relations to compare them with afterwards.
func cloneAll(rels [][]join.Key) [][]join.Key {
	out := make([][]join.Key, len(rels))
	for i, r := range rels {
		out[i] = slices.Clone(r)
	}
	return out
}

// requireUntouched fails unless every relation still holds its keys in the
// order it was handed over: a worker sorts only the copies it owns.
func requireUntouched(t *testing.T, runtime string, names []string, got, want [][]join.Key) {
	t.Helper()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("%s reordered the caller's %s", runtime, names[i])
		}
	}
}

// TestStreamRunLeavesCallersRelations runs the drift-replanning stream, whose
// first and replanned epochs are planned from the caller's own window keys,
// on the in-process runtime and on a loopback session: the base and every
// window end byte-identical to what the caller passed. Each runtime's stream
// handle, sent shares directly, leaves them as sent too, and both reply alike.
func TestStreamRunLeavesCallersRelations(t *testing.T) {
	base, windows := streamFlipWorkload()
	cond := join.NewBand(25)
	want := streamRefCount(windows, base, cond)
	rels := append([][]join.Key{base}, windows...)
	names := make([]string, len(rels))
	names[0] = "base"
	for i := range windows {
		names[i+1] = fmt.Sprintf("window %d", i)
	}
	orig := cloneAll(rels)
	_, addrs := startWorkerSet(t, 4)
	runtimes := []struct {
		name string
		rt   exec.StreamRuntime
	}{
		{"the in-process stream runtime", exec.LocalStreamRuntime{Workers: 4}},
		{"a session", dialSession(t, addrs)},
	}
	var handleReplies []exec.WindowReply
	for _, r := range runtimes {
		res, err := streamjoin.Run(r.rt, base, windows, cond, streamjoin.Config{
			Opts:  core.Options{J: 4, Model: model, Seed: 5},
			Exec:  exec.Config{Seed: 6},
			Stats: exec.StatsSpec{Seed: 7},
		})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Total != want || res.Replans < 1 {
			t.Fatalf("%s: total %d with %d replans, want %d after at least one replan", r.name, res.Total, res.Replans, want)
		}
		requireUntouched(t, r.name, names, rels, orig)

		h, err := r.rt.OpenStream(exec.StreamSpec{Cond: cond, Stats: exec.StatsSpec{Seed: 8}})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		shares := cloneAll([][]join.Key{base[:5000], windows[0][:500], windows[1][:500], windows[2][:500]})
		sent := cloneAll(shares)
		err = h.SendBase(1, [][]join.Key{shares[0], shares[0], shares[0], shares[0]})
		if err == nil {
			err = h.SendWindow(0, 1, shares)
		}
		var replies []exec.WindowReply
		if err == nil {
			replies, err = h.Collect(0, 1)
		}
		if cerr := h.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s stream handle: %v", r.name, err)
		}
		requireUntouched(t, r.name+"'s stream handle", []string{"share 0", "share 1", "share 2", "share 3"}, shares, sent)
		for i := range replies {
			replies[i].Stages = stage.Record{} // wall time, which no two runs share
		}
		if handleReplies == nil {
			handleReplies = replies
		} else if !reflect.DeepEqual(replies, handleReplies) {
			t.Errorf("%s replied %+v, the in-process runtime %+v", r.name, replies, handleReplies)
		}
	}
}

// TestMultiwayLeavesCallersRelations runs a 3-way chain, whose stage-1
// workers sort their matches, on exec.Local and on a loopback session: R1,
// the middle relation's two columns and R3 end byte-identical to what the
// caller passed.
func TestMultiwayLeavesCallersRelations(t *testing.T) {
	q := multiway.Query{
		R1:    randKeys(3000, 2000, 81),
		Mid:   multiway.MidRelation{A: randKeys(3000, 2000, 82), B: randKeys(3000, 2000, 83)},
		R3:    randKeys(3000, 2000, 84),
		CondA: join.NewBand(1),
		CondB: join.NewBand(2),
	}
	rels := [][]join.Key{q.R1, q.Mid.A, q.Mid.B, q.R3}
	names := []string{"R1", "Mid.A", "Mid.B", "R3"}
	orig := cloneAll(rels)
	opts, cfg := core.Options{J: 4, Model: model, Seed: 85}, exec.Config{Seed: 86}
	_, addrs := startWorkerSet(t, opts.J)
	runtimes := []struct {
		name string
		rt   exec.Runtime
	}{
		{"exec.Local", exec.Local{}},
		{"a session", dialSession(t, addrs)},
	}
	var want int64 = -1
	for _, r := range runtimes {
		res, err := multiway.ExecuteOver(r.rt, q, opts, cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if want < 0 {
			want = res.Output
		}
		if res.Output != want || res.Intermediate == 0 {
			t.Fatalf("%s: output %d over %d intermediate tuples, want %d over some", r.name, res.Output, res.Intermediate, want)
		}
		requireUntouched(t, r.name, names, rels, orig)
	}
}
