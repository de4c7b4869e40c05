// Command ewhworker runs a join worker server for the networked execution
// mode: it accepts persistent sessions from ewhcoord coordinators (and from
// fellow workers shipping their stage-1 contributions), joins the tuples each
// numbered job ships and reports its metrics.
//
// On SIGINT/SIGTERM the worker shuts down gracefully: it stops accepting,
// drains every in-flight job (bounded by -drain), then exits 0.
//
//	ewhworker -addr 127.0.0.1:7071
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ewh/internal/netexec"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "address to listen on")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight jobs")
	timeout := flag.Duration("timeout", 0, "dial and per-operation IO deadline on session and peer connections (0: none)")
	maxInFlight := flag.Int("max-inflight", 0, "admission control: concurrent join executions (0: unlimited)")
	maxQueue := flag.Int("max-queue", 0, "with -max-inflight: per-tenant queued jobs before typed rejection (0: unbounded)")
	queueDeadline := flag.Duration("queue-deadline", 0, "with -max-inflight: max queue wait before typed rejection (0: wait forever)")
	tenantBytes := flag.Int64("tenant-max-bytes", 0, "default per-tenant byte budget: received keys, stage-1 matches, peer transfers (0: unlimited)")
	cacheBytes := flag.Int64("build-cache-bytes", netexec.DefaultBuildCacheBytes, "cache budget in bytes for count jobs' sealed build sides (<= 0: disable sharing)")
	weights := netexec.TenantWeights{}
	flag.Var(weights, "tenant-weight", "tenant scheduling weight as name=w (repeatable); weighted tenants keep the default tenant budgets")
	flag.Parse()
	// A negative duration would arm a deadline already past, and a negative
	// count would read as "off".
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"timeout", *timeout < 0}, {"drain", *drain < 0}, {"queue-deadline", *queueDeadline < 0},
		{"max-inflight", *maxInFlight < 0}, {"max-queue", *maxQueue < 0},
		{"tenant-max-bytes", *tenantBytes < 0},
	} {
		if f.negative {
			usage("-%s %v: cannot be negative", f.name, flag.Lookup(f.name).Value)
		}
	}
	// The queue bounds belong to admission control, which -max-inflight arms.
	flag.Visit(func(f *flag.Flag) {
		if *maxInFlight == 0 && (f.Name == "max-queue" || f.Name == "queue-deadline") {
			usage("-%s %v: admission control is off without -max-inflight", f.Name, f.Value)
		}
	})

	w, err := netexec.ListenWorker(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ewhworker:", err)
		os.Exit(1)
	}
	if *cacheBytes != netexec.DefaultBuildCacheBytes {
		w.SetBuildCacheBytes(*cacheBytes)
	}
	w.SetTimeouts(netexec.Timeouts{Dial: *timeout, IO: *timeout})
	if *maxInFlight > 0 {
		w.SetAdmission(netexec.AdmissionConfig{
			MaxInFlight: *maxInFlight, MaxQueue: *maxQueue, QueueDeadline: *queueDeadline})
	}
	base := netexec.TenantPolicy{MaxBytes: *tenantBytes}
	if *tenantBytes > 0 {
		w.SetDefaultTenantPolicy(base)
	}
	weights.Apply(w, base)
	fmt.Println("ewhworker listening on", w.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	signaled := make(chan struct{})
	shutdownErr := make(chan error, 1)
	go func() {
		sig := <-sigc
		close(signaled)
		fmt.Fprintf(os.Stderr, "ewhworker: %v: draining in-flight jobs (up to %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutdownErr <- w.Shutdown(ctx)
	}()

	if err := w.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "ewhworker:", err)
		os.Exit(1)
	}
	// Serve returns the moment the listener closes; when a signal caused
	// that, wait out the drain before exiting.
	select {
	case <-signaled:
		if err := <-shutdownErr; err != nil {
			fmt.Fprintf(os.Stderr, "ewhworker: drain timed out: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ewhworker: drained, exiting")
	default:
	}
}

// usage rejects a flag value before anything runs: one line naming the flag,
// exit status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ewhworker: "+format+"\n", args...)
	os.Exit(2)
}
