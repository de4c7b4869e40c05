package netexec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ewh/internal/join"
)

// startPeerTarget starts one worker to receive mesh contributions.
func startPeerTarget(t *testing.T) *Worker {
	t.Helper()
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// meshSend streams one contribution to the worker over a real TCP mesh
// connection, as a remote stage-1 sender would.
func meshSend(t *testing.T, w *Worker, token uint64, sender int, keys []join.Key, pays [][]byte) *peerConn {
	t.Helper()
	pc := &peerConn{addr: w.Addr()}
	if err := pc.sendContribution(Timeouts{}, token, sender, keys, pays); err != nil {
		t.Fatalf("sender %d: %v", sender, err)
	}
	return pc
}

// awaitTransfer binds the transfer and waits for assembly.
func awaitTransfer(t *testing.T, w *Worker, token uint64, counts []int64) *peerJobState {
	t.Helper()
	st := w.peerState(token)
	w.bindPeerCounts(token, counts)
	select {
	case <-st.ready:
	case <-time.After(10 * time.Second):
		t.Fatal("transfer never assembled")
	}
	return st
}

// TestPeerPayloadRoundTrip streams two payload-bearing contributions over
// real TCP and checks the assembled block: keys sender-major, one payload per
// tuple, offsets consistent — including empty payloads.
func TestPeerPayloadRoundTrip(t *testing.T) {
	w := startPeerTarget(t)
	token := newPeerToken()

	mk := func(sender, n int) ([]join.Key, [][]byte) {
		keys := make([]join.Key, n)
		pays := make([][]byte, n)
		for i := range keys {
			keys[i] = join.Key(1000*sender + i)
			if i%7 == 3 {
				pays[i] = []byte{} // empty payloads must survive the trip
			} else {
				pays[i] = []byte(strings.Repeat(fmt.Sprintf("s%d-%d|", sender, i), i%5+1))
			}
		}
		return keys, pays
	}
	k0, p0 := mk(0, 257)
	k1, p1 := mk(1, 64)
	pc0 := meshSend(t, w, token, 0, k0, p0)
	defer pc0.close()
	pc1 := meshSend(t, w, token, 1, k1, p1)
	defer pc1.close()

	st := awaitTransfer(t, w, token, []int64{int64(len(k0)), int64(len(k1))})
	st.mu.Lock()
	flat, flatPay, flatOff, stErr := st.flat, st.flatPay, st.flatOff, st.err
	st.flat, st.flatPay, st.flatOff = nil, nil, nil
	st.mu.Unlock()
	w.finishPeerState(token)
	if stErr != nil {
		t.Fatalf("transfer failed: %v", stErr)
	}

	wantKeys := append(append([]join.Key{}, k0...), k1...)
	wantPays := append(append([][]byte{}, p0...), p1...)
	if len(flat) != len(wantKeys) {
		t.Fatalf("assembled %d keys, want %d", len(flat), len(wantKeys))
	}
	for i, k := range wantKeys {
		if flat[i] != k {
			t.Fatalf("key %d = %d, want %d", i, flat[i], k)
		}
	}
	if len(flatOff) != len(wantKeys)+1 || flatOff[0] != 0 {
		t.Fatalf("offset vector has %d entries, want %d starting at 0", len(flatOff), len(wantKeys)+1)
	}
	for i, p := range wantPays {
		got := flatPay[flatOff[i]:flatOff[i+1]]
		if !bytes.Equal(got, p) {
			t.Fatalf("payload %d = %q, want %q", i, got, p)
		}
	}
}

// TestPeerPayloadMixedPresence checks that a transfer where only some
// senders attach payloads fails instead of assembling a block with holes.
func TestPeerPayloadMixedPresence(t *testing.T) {
	w := startPeerTarget(t)
	token := newPeerToken()

	keys := []join.Key{1, 2, 3}
	pays := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	pc0 := meshSend(t, w, token, 0, keys, pays)
	defer pc0.close()
	pc1 := meshSend(t, w, token, 1, keys, nil) // keys-only
	defer pc1.close()

	st := awaitTransfer(t, w, token, []int64{3, 3})
	st.mu.Lock()
	stErr := st.err
	st.mu.Unlock()
	if stErr == nil || !strings.Contains(stErr.Error(), "payloads from") {
		t.Fatalf("mixed-presence transfer err = %v, want all-or-none failure", stErr)
	}
	w.dropPeerState(token)
}

// TestPeerPayloadKeysOnlyUnchanged pins the compatibility path: a transfer
// with no payload frames assembles with a nil payload segment.
func TestPeerPayloadKeysOnlyUnchanged(t *testing.T) {
	w := startPeerTarget(t)
	token := newPeerToken()

	keys := []join.Key{7, 8, 9}
	pc := meshSend(t, w, token, 0, keys, nil)
	defer pc.close()

	st := awaitTransfer(t, w, token, []int64{3})
	st.mu.Lock()
	flatPay, flatOff, stErr := st.flatPay, st.flatOff, st.err
	st.mu.Unlock()
	if stErr != nil {
		t.Fatalf("transfer failed: %v", stErr)
	}
	if flatPay != nil || flatOff != nil {
		t.Fatalf("keys-only transfer assembled a payload segment (%d bytes, %d offsets)",
			len(flatPay), len(flatOff))
	}
	w.dropPeerState(token)
}
