package netexec

import (
	"context"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"ewh/internal/exec"
	"ewh/internal/join"
)

// TestStreamRefusesOversizedShare pins the coordinator side of the stream
// cap: a base or window share past MaxRelationTuples is refused before any
// frame is written (both end frames carry the total as a u32, and the worker
// buffers every key), and the refusal leaves the stream usable. The share is
// address space no byte of which may be touched — reading it would fault —
// so "before any frame" is literal.
func TestStreamRefusesOversizedShare(t *testing.T) {
	const tuples = MaxRelationTuples + 1
	mem, err := syscall.Mmap(-1, 0, 8*tuples, syscall.PROT_NONE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot reserve %d bytes of address space: %v", 8*tuples, err)
	}
	defer func() { _ = syscall.Munmap(mem) }()
	share := unsafe.Slice((*join.Key)(unsafe.Pointer(&mem[0])), tuples)

	_, addrs := startWorkerSet(t, 1)
	sess, err := DialTenant(context.Background(), "", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream(exec.StreamSpec{Cond: join.Equi{},
		Stats: exec.StatsSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendBase(1, [][]join.Key{share}); err == nil || !strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("oversized base share: SendBase returned %v", err)
	}
	if err := st.SendBase(1, [][]join.Key{{1, 2, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := st.SendWindow(0, 1, [][]join.Key{share}); err == nil || !strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("oversized window share: SendWindow returned %v", err)
	}
	if err := st.SendWindow(0, 1, [][]join.Key{{2, 2, 3, 9}}); err != nil {
		t.Fatal(err)
	}
	reps, err := st.Collect(0, 1)
	if err != nil || reps[0].Count != 5 {
		t.Fatalf("after the refusals: Collect returned %+v, %v; want count 5", reps, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
