// Package cmd_test runs the built binaries: what a flag value does to a
// process (exit status, stderr) is only observable from outside it.
package cmd_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadSizesAreUsageErrors pins that a size flag the generators cannot
// serve is refused where the flags are parsed — exit status 2 and one line
// naming the flag — instead of reaching stats.NewZipf's panic.
func TestBadSizesAreUsageErrors(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./ewhcoord", "./ewhplan").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct{ tool, flag, value string }{
		{"ewhcoord", "-n", "0"}, {"ewhcoord", "-n", "-5"}, {"ewhcoord", "-j", "0"},
		{"ewhcoord", "-z", "-1"}, {"ewhcoord", "-window-rows", "-1"},
		{"ewhplan", "-n", "0"}, {"ewhplan", "-x", "0"}, {"ewhplan", "-j", "-2"}, {"ewhplan", "-z", "-0.5"},
	} {
		// zipf is the ewhplan workload that reads both -n and -z.
		args := []string{c.flag, c.value}
		if c.tool == "ewhplan" {
			args = append([]string{"-workload", "zipf"}, args...)
		}
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, c.tool), args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
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
