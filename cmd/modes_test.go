package cmd_test

import (
	"bufio"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestModesRunEndToEnd runs each ewhcoord mode over real sockets at n = 20000
// and pins its printed total. A total does not depend on the plan, so an
// artifact executed over a smaller listed fleet (shrunk, or replaced by the
// CI plan) prints the same total as over the fleet it was planned for.
func TestModesRunEndToEnd(t *testing.T) {
	bin := buildTools(t)
	run := func(tool string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, tool), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	plan := filepath.Join(t.TempDir(), "zipf.ewhp")
	run("ewhplan", "-workload", "zipf", "-n", "20000", "-j", "4", "-planout", plan)

	// Two ewhworker processes make the listed fleet the artifact shrinks to.
	var addrs []string
	for i := 0; i < 2; i++ {
		w := exec.Command(filepath.Join(bin, "ewhworker"), "-addr", "127.0.0.1:0")
		stdout, err := w.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Process.Kill(); _ = w.Wait() })
		line, err := bufio.NewReader(stdout).ReadString('\n')
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ewhworker listening on ")
		if err != nil || !ok {
			t.Fatalf("ewhworker did not report its address: %q, %v", line, err)
		}
		addrs = append(addrs, addr)
	}

	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-n", "20000", "-beta", "2", "-j", "4"}, []string{"out=243384"}},
		{[]string{"-n", "20000", "-j", "4", "-multiway"}, []string{"= 187981", "intermediate 149429"}},
		{[]string{"-n", "20000", "-j", "4", "-stream", "6"}, []string{"total 314342 matches"}},
		{[]string{"-planin", plan, "-n", "20000"}, []string{"J=4 out=335563"}},
		{[]string{"-planin", plan, "-n", "20000", "-workers", strings.Join(addrs, ",")}, []string{"J=2 out=335563"}},
	} {
		out := run("ewhcoord", c.args...)
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("ewhcoord %s: output lacks %q:\n%s", strings.Join(c.args, " "), want, out)
			}
		}
	}

	// The artifact routes for the band it was planned for (β = 3): under
	// another band its tuples would miss regions, so the run is refused.
	out, err := exec.Command(filepath.Join(bin, "ewhcoord"), "-planin", plan, "-n", "20000", "-beta", "5").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(string(out), "ewhcoord: -planin "+plan+": ") {
		t.Errorf("ewhcoord -planin under another band: ended with %v, want exit status 2 naming -planin\n%s", err, out)
	}
}
