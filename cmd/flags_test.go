// Package cmd_test runs the built binaries: what a flag value does to a
// process (exit status, stderr) is only observable from outside it.
package cmd_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTools builds the three commands into a fresh directory and returns it.
// The go command keys this package's cached result by what the test binary
// links and by the files the test opens, and the binary links none of the
// packages the commands build from. So buildTools also reads the directory
// of each of them, which puts every file's size and modification time in
// that key: an edit to any package the commands run reruns these tests.
func buildTools(t *testing.T) string {
	t.Helper()
	tools := []string{"./ewhcoord", "./ewhplan", "./ewhworker"}
	bin := t.TempDir()
	if out, err := exec.Command("go", append([]string{"build", "-o", bin}, tools...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	deps, err := exec.Command("go", append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}, tools...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, dir := range strings.Split(strings.TrimSpace(string(deps)), "\n") {
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatalf("reading %s, a package the commands build from: %v", dir, err)
		}
	}
	return bin
}

// TestBadSizesAreUsageErrors pins that a flag value the run cannot serve is
// refused where the flags are parsed — exit status 2 and one line naming the
// flag — instead of reaching a panic (stats.NewZipf, join.NewBand, a nil
// result), arming a deadline already past (a negative -timeout or -drain) or
// being silently ignored (an unknown -workload or -scheme, a negative
// -retries or worker count, a queue bound without -max-inflight, -j beside a
// fleet that sets J, or any flag the chosen run never reads). A worker that
// accepts its flags serves until killed, so each run is bounded.
func TestBadSizesAreUsageErrors(t *testing.T) {
	bin := buildTools(t)
	// mode puts the tool on the path that reads the flag (-seed is read by
	// every ewhcoord run); zipf is the ewhplan workload that reads -n, -z and
	// -beta, bcb the one that reads -x.
	for _, c := range []struct{ tool, mode, flag, value string }{
		{"ewhcoord", "-seed=42", "-n", "0"}, {"ewhcoord", "-seed=42", "-n", "-5"}, {"ewhcoord", "-seed=42", "-j", "0"},
		{"ewhcoord", "-seed=42", "-z", "-1"}, {"ewhcoord", "-seed=42", "-beta", "-1"},
		{"ewhcoord", "-multiway", "-beta", "2"},
		{"ewhcoord", "-stream=3", "-planin", "p.plan"}, {"ewhcoord", "-stream=3", "-retries", "2"},
		{"ewhcoord", "-workers=x,y", "-j", "4"}, {"ewhcoord", "-planin=p.plan", "-j", "4"},
		{"ewhcoord", "-seed=42", "-timeout", "-1s"}, {"ewhcoord", "-seed=42", "-job-timeout", "-1s"},
		{"ewhcoord", "-seed=42", "-retries", "-1"},
		{"ewhworker", "-addr=127.0.0.1:0", "-timeout", "-1s"}, {"ewhworker", "-addr=127.0.0.1:0", "-drain", "-1s"},
		{"ewhworker", "-max-inflight=1", "-queue-deadline", "-1s"}, {"ewhworker", "-max-inflight=1", "-max-queue", "-1"},
		{"ewhworker", "-addr=127.0.0.1:0", "-max-inflight", "-1"},
		{"ewhworker", "-addr=127.0.0.1:0", "-tenant-max-bytes", "-1"},
		{"ewhworker", "-addr=127.0.0.1:0", "-max-queue", "3"}, {"ewhworker", "-addr=127.0.0.1:0", "-queue-deadline", "1s"},
		{"ewhplan", "-workload=zipf", "-n", "0"}, {"ewhplan", "-workload=bcb", "-x", "0"},
		{"ewhplan", "-workload=zipf", "-j", "-2"}, {"ewhplan", "-workload=zipf", "-z", "-0.5"},
		{"ewhplan", "-workload=zipf", "-beta", "-1"}, {"ewhplan", "-workload=bcb", "-beta", "-2"},
		{"ewhplan", "-scheme=csio", "-workload", "nosuch"}, {"ewhplan", "-workload=zipf", "-scheme", "nosuch"},
		{"ewhplan", "-workload=zipf", "-x", "5"}, {"ewhplan", "-workload=bcb", "-n", "500"},
		{"ewhplan", "-workload=uniform", "-z", "0.5"}, {"ewhplan", "-workload=bicd", "-beta", "2"},
		{"ewhplan", "-workload=beocd", "-beta", "2"}, {"ewhplan", "-workload=zipf", "-p", "7"},
		{"ewhplan", "-planin=p.plan", "-j", "4"}, {"ewhplan", "-planin=p.plan", "-workload", "zipf"},
	} {
		var stderr bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, filepath.Join(bin, c.tool), c.mode, c.flag, c.value)
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s %s: ended with %v, want exit status 2\n%s", c.tool, c.flag, c.value, err, &stderr)
			continue
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if strings.Contains(msg, "\n") || !strings.HasPrefix(msg, c.tool+": "+c.flag+" "+c.value+":") {
			t.Errorf("%s %s %s: stderr is not one line naming the flag:\n%s", c.tool, c.flag, c.value, msg)
		}
	}
}
