// Package cmd_test runs the built binaries: what a flag value does to a
// process (exit status, stderr) is only observable from outside it.
package cmd_test

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBadSizesAreUsageErrors pins that a flag value the run cannot serve is
// refused where the flags are parsed — exit status 2 and one line naming the
// flag — instead of reaching a panic (stats.NewZipf, join.NewBand, a nil
// result), arming a deadline already past (a negative -timeout or -drain) or
// being silently ignored (-drift outside (0,1], a negative -retries or
// -queue-deadline, or any ewhcoord flag its mode never reads). A worker that
// accepts its flags serves until killed, so each run is bounded.
func TestBadSizesAreUsageErrors(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./ewhcoord", "./ewhplan", "./ewhworker").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// mode puts the tool on the path that reads the flag; zipf is the ewhplan
	// workload that reads -n, -z and -beta.
	for _, c := range []struct{ tool, mode, flag, value string }{
		{"ewhcoord", "-jobs=1", "-n", "0"}, {"ewhcoord", "-jobs=1", "-n", "-5"}, {"ewhcoord", "-jobs=1", "-j", "0"},
		{"ewhcoord", "-jobs=1", "-z", "-1"}, {"ewhcoord", "-stream=3", "-window-rows", "-1"},
		{"ewhcoord", "-jobs=1", "-beta", "-1"}, {"ewhcoord", "-n=500", "-jobs", "0"}, {"ewhcoord", "-stream=3", "-drift", "7"},
		{"ewhcoord", "-multiway", "-beta", "2"}, {"ewhcoord", "-multiway", "-jobs", "2"},
		{"ewhcoord", "-stream=3", "-jobs", "2"}, {"ewhcoord", "-stream=3", "-planin", "p.plan"},
		{"ewhcoord", "-stream=3", "-retries", "2"}, {"ewhcoord", "-stream=3", "-retry-backoff", "1s"},
		{"ewhcoord", "-jobs=1", "-window-rows", "5"}, {"ewhcoord", "-jobs=1", "-drift", "0.5"},
		{"ewhcoord", "-jobs=1", "-freeze-plan", "true"},
		{"ewhcoord", "-jobs=1", "-timeout", "-1s"}, {"ewhcoord", "-jobs=1", "-job-timeout", "-1s"},
		{"ewhcoord", "-jobs=1", "-retries", "-1"}, {"ewhcoord", "-jobs=1", "-retry-backoff", "-1s"},
		{"ewhworker", "-addr=127.0.0.1:0", "-timeout", "-1s"}, {"ewhworker", "-addr=127.0.0.1:0", "-drain", "-1s"},
		{"ewhworker", "-addr=127.0.0.1:0", "-queue-deadline", "-1s"},
		{"ewhplan", "-workload=zipf", "-n", "0"}, {"ewhplan", "-workload=zipf", "-x", "0"},
		{"ewhplan", "-workload=zipf", "-j", "-2"}, {"ewhplan", "-workload=zipf", "-z", "-0.5"},
		{"ewhplan", "-workload=zipf", "-beta", "-1"}, {"ewhplan", "-workload=bcb", "-beta", "-2"},
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
