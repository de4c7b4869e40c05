package netexec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/wire"
)

func TestFaultClassificationWorkerKill(t *testing.T) {
	// A worker dying under an established session classifies as a lost
	// connection on exactly that worker, retryable, and Survivors derives a
	// session over the rest.
	ws, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)
	r1 := randKeys(500, 250, 910)
	r2 := randKeys(500, 250, 911)
	scheme, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 1}); err != nil {
		t.Fatalf("healthy run: %v", err)
	}

	_ = ws[1].Close()
	_, err = exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 2})
	if err == nil {
		t.Fatal("job across a dead worker succeeded")
	}
	faults := Faults(err)
	if len(faults) != 1 {
		t.Fatalf("want 1 fault, got %d: %v", len(faults), err)
	}
	f := faults[0]
	if f.Kind != FaultConnLost && f.Kind != FaultTimeout {
		t.Fatalf("kind %v (%v), want connection lost", f.Kind, f)
	}
	if f.Worker != 1 || f.Addr != addrs[1] {
		t.Fatalf("fault names worker %d (%s), want 1 (%s)", f.Worker, f.Addr, addrs[1])
	}
	if !f.RetryableFault() || !exec.RetryableFault(err) {
		t.Fatalf("worker death not retryable: %v", err)
	}
	if !strings.Contains(err.Error(), addrs[1]) {
		t.Fatalf("error text lost the address: %v", err)
	}

	srt, n, serr := sess.Survivors()
	if serr != nil || n != 1 {
		t.Fatalf("Survivors: %d workers, %v", n, serr)
	}
	scheme1, err := partition.NewHash(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	local := exec.Run(r1, r2, join.Equi{}, scheme1, model, exec.Config{Seed: 3})
	got, err := exec.RunOver(srt, r1, r2, join.Equi{}, scheme1, model, exec.Config{Seed: 3})
	if err != nil {
		t.Fatalf("job on survivors: %v", err)
	}
	if got.Output != local.Output {
		t.Fatalf("survivor output %d, local %d", got.Output, local.Output)
	}
}

func TestFaultClassificationDialRefused(t *testing.T) {
	leakCheck(t)
	// A refused dial is a typed FaultDial carrying the address, not a bare
	// string.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	_, err = Dial([]string{addr})
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	var f *WorkerFault
	if !errors.As(err, &f) {
		t.Fatalf("no WorkerFault in %v", err)
	}
	if f.Kind != FaultDial || f.Addr != addr || !f.RetryableFault() {
		t.Fatalf("fault %+v, want retryable dial fault at %s", f, addr)
	}
	if !strings.Contains(err.Error(), "netexec: dial "+addr) {
		t.Fatalf("error text changed shape: %v", err)
	}
}

func TestWorkerFaultClassification(t *testing.T) {
	// Worker-side job error replies, classified by their code: a drain
	// refusal (codeDraining) is the one retryable worker error, whatever its
	// text says; a reply naming a peer fault address indicts the peer.
	c := &sessConn{addr: "127.0.0.1:7000"}
	for _, r := range []struct {
		name  string
		rep   reply
		kind  FaultKind
		addr  string
		retry bool
	}{
		{"drain refusal", reply{Err: "worker shutting down", Code: codeDraining}, FaultWorkerJob, c.addr, true},
		{"deterministic error", reply{Err: "stage-2 plan: bad artifact"}, FaultWorkerJob, c.addr, false},
		// A peer's drain refusal wrapped into this job's error is not this
		// worker draining: only the code says so.
		{"uncoded error naming a drain", reply{Err: "transfer 9: peer said: worker shutting down"},
			FaultWorkerJob, c.addr, false},
		{"peer fault", reply{Err: "transfer 9: peer 127.0.0.1:7001: connection refused", FaultAddr: "127.0.0.1:7001"},
			FaultPeer, "127.0.0.1:7001", true},
		{"admission", reply{Err: "queue full", Code: codeAdmission}, FaultAdmission, c.addr, false},
		{"quota", reply{Err: "over budget", Code: codeQuota}, FaultQuota, c.addr, false},
	} {
		f := c.workerFault("stage job", 4, 1, &r.rep)
		if f.Kind != r.kind || f.Addr != r.addr || f.RetryableFault() != r.retry {
			t.Errorf("%s: %+v, want kind %v at %s, retryable %v", r.name, f, r.kind, r.addr, r.retry)
		}
		if !strings.Contains(f.Error(), "stage job 4 on worker 1") {
			t.Errorf("%s: error text changed shape: %v", r.name, f)
		}
	}
}

func TestJobLivenessDeadline(t *testing.T) {
	leakCheck(t)
	// A worker that accepts the job and goes silent — the TCP peer stays
	// healthy, so only Timeouts.Job can detect it. The fake worker drains
	// everything it is sent and never replies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, conn)
				_ = conn.Close()
			}()
		}
	}()

	sess, err := DialTenant(context.Background(), "", []string{ln.Addr().String()}, Timeouts{Job: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r1 := randKeys(100, 50, 920)
	r2 := randKeys(100, 50, 921)
	scheme, err := partition.NewHash(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 4})
	if err == nil {
		t.Fatal("job against a silent worker succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("liveness deadline took %v", d)
	}
	var f *WorkerFault
	if !errors.As(err, &f) || f.Kind != FaultTimeout || !f.RetryableFault() {
		t.Fatalf("want retryable timeout fault, got %v", err)
	}
	// The unresponsive worker's connection is poisoned: no later job may
	// land on it.
	if _, n, serr := sess.Survivors(); serr == nil || n != 0 {
		t.Fatalf("silent worker still listed as survivor (%d, %v)", n, serr)
	}
}

func TestDialContextCancelPromptly(t *testing.T) {
	leakCheck(t)
	// The satellite fix: a dial blocked in the kernel handshake (full accept
	// backlog, no dial timeout configured) must return promptly when its
	// context is cancelled. Backlog saturation needs an unaccepting listener
	// with a tiny queue, which takes raw syscalls.
	if runtime.GOOS != "linux" {
		t.Skip("backlog saturation is linux-specific")
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	sa := &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}
	if err := syscall.Bind(fd, sa); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 1); err != nil {
		t.Fatal(err)
	}
	bound, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	port := bound.(*syscall.SockaddrInet4).Port
	addr := net.JoinHostPort("127.0.0.1", itoa(port))

	// Fill the queue until a short-deadline dial times out — from then on,
	// new connects hang in the handshake.
	var parked []net.Conn
	defer func() {
		for _, c := range parked {
			_ = c.Close()
		}
	}()
	saturated := false
	for i := 0; i < 64; i++ {
		c, err := net.DialTimeout("tcp", addr, 150*time.Millisecond)
		if err != nil {
			saturated = true
			break
		}
		parked = append(parked, c)
	}
	if !saturated {
		t.Skip("could not saturate the accept backlog on this kernel")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = DialTenant(ctx, "", []string{addr}, Timeouts{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial into a saturated backlog succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in the chain, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled dial took %v to return", elapsed)
	}
	var f *WorkerFault
	if !errors.As(err, &f) || f.Kind != FaultDial {
		t.Fatalf("cancelled dial not classified as a dial fault: %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// leafFrames reads internal/wire's frame types off its source as "NAME
// #number": Open byte = 10 reads "OPEN #10".
func leafFrames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../wire/wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string]bool{}
	for _, d := range f.Decls {
		if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.CONST {
			for _, spec := range d.Specs {
				v := spec.(*ast.ValueSpec)
				if typ, ok := v.Type.(*ast.Ident); !ok || typ.Name != "byte" {
					continue
				}
				for i, name := range v.Names {
					frames[strings.ToUpper(name.Name)+" #"+v.Values[i].(*ast.BasicLit).Value] = true
				}
			}
		}
	}
	return frames
}

// TestDesignFrameTableMatchesWire holds internal/wire to DESIGN.md, the
// normative statement of the framing: a wrong constant shared by both ends
// passes every round trip, so only the document pins it. "Transport" states
// the magic, the version and the frame header's fields, each checked against
// the constants and against the bytes Prelude and PutHeader write; every
// frame type must appear in the frame table under its number, and every row
// must name a live type.
func TestDesignFrameTableMatchesWire(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, transport, ok := strings.Cut(string(doc), "\n## Transport\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"Transport\" section")
	}
	transport, table, ok := strings.Cut(transport, "### Frame table")
	if !ok {
		t.Fatal("DESIGN.md has no \"Frame table\" section")
	}
	table, _, _ = strings.Cut(table, "\n#")

	magic := regexp.MustCompile("`\"(.+?)\"`").FindStringSubmatch(transport)
	version := regexp.MustCompile(`version \*\*(\d+)\*\*`).FindStringSubmatch(transport)
	header := regexp.MustCompile("`((?:\\[\\w+ u\\d+\\])+)\\[payload\\]`").FindStringSubmatch(transport)
	if magic == nil || version == nil || header == nil {
		t.Fatalf("DESIGN.md \"Transport\" states no magic, version or frame header: %q %q %q", magic, version, header)
	}
	if magic[1] != string(wire.Magic[:]) {
		t.Errorf("DESIGN.md's magic is %q, wire.Magic %q", magic[1], wire.Magic[:])
	}
	if version[1] != strconv.Itoa(wire.Version) {
		t.Errorf("DESIGN.md's session version is %s, wire.Version %d", version[1], wire.Version)
	}
	v, _ := strconv.Atoi(version[1])
	want := binary.LittleEndian.AppendUint16([]byte(magic[1]), uint16(v))
	if got := wire.Prelude(uint16(v), "t"); !bytes.Equal(got, append(want, 1, 't')) || wire.PreludeLen != len(want) || !wire.IsSession(got) {
		t.Errorf("Prelude(%d, \"t\") = % x, PreludeLen %d; DESIGN.md's reads % x", v, got, wire.PreludeLen, append(want, 1, 't'))
	}
	// A header of distinct field values, laid out as DESIGN.md's fields say.
	vals := map[string]uint32{"type": 0xa1, "job": 0x04030201, "len": 0x08070605}
	want = nil
	for _, f := range regexp.MustCompile(`\[(\w+) u(\d+)\]`).FindAllStringSubmatch(header[1], -1) {
		bits, _ := strconv.Atoi(f[2])
		want = binary.LittleEndian.AppendUint64(want, uint64(vals[f[1]]))[:len(want)+bits/8]
	}
	got := make([]byte, wire.HeaderLen)
	wire.PutHeader(got, byte(vals["type"]), vals["job"], int(vals["len"]))
	if typ, job, n := wire.Header(got); !bytes.Equal(got, want) || typ != byte(vals["type"]) || job != vals["job"] || n != vals["len"] {
		t.Errorf("a %d-byte header reads % x; DESIGN.md's %s reads % x", wire.HeaderLen, got, header[1], want)
	}

	// "NAME #number", e.g. Open byte = 10 and the row "| 10 | OPEN |".
	frames, rows := leafFrames(t), map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (\d+) \| ([A-Z0-9]+)\b`).FindAllStringSubmatch(table, -1) {
		rows[m[2]+" #"+m[1]] = true
	}
	for f := range frames {
		if !rows[f] {
			t.Errorf("wire frame %s has no row in DESIGN.md's frame table", f)
		}
	}
	for f := range rows {
		if !frames[f] {
			t.Errorf("DESIGN.md's frame table row %s names no frame type in internal/wire", f)
		}
	}
}
