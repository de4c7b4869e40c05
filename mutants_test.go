package ewh_test

import (
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var runMutants = flag.Bool("mutants", false, "plant each defect of the mutant table in a copy of the module and require its test to fail")

// mutant is a planted defect and the test that must catch it: in a copy of
// the module, file's one occurrence of old becomes new, and
// go test -run '^test$' pkg must report test failed. A row whose old string
// is not found exactly once fails, so the table keeps in step with the code.
type mutant struct {
	name, file, old, new, pkg, test string
}

var mutants = []mutant{
	// localjoin.FormOf's one budget comparison, at each family's edge.
	{"dense edge inclusive", "internal/localjoin/localjoin.go",
		"return n == 0 || uint64(hi)-uint64(lo) < directBytesPerKey/slotBytes[f]*uint64(n)",
		"span, budget := uint64(hi)-uint64(lo), directBytesPerKey/slotBytes[f]*uint64(n)\n\treturn n == 0 || span < budget || f == Dense && span == budget",
		"./internal/localjoin", "TestResidentFormBySpan"},
	{"table edge inclusive", "internal/localjoin/localjoin.go",
		"return n == 0 || uint64(hi)-uint64(lo) < directBytesPerKey/slotBytes[f]*uint64(n)",
		"span, budget := uint64(hi)-uint64(lo), directBytesPerKey/slotBytes[f]*uint64(n)\n\treturn n == 0 || span < budget || f == Table && span == budget",
		"./internal/localjoin", "TestResidentFormBySpan"},

	// The summary sizes exec owns, each halved.
	{"stage sample cap halved", "internal/exec/stages.go", "stageSampleCap  = 4096", "stageSampleCap  = 2048",
		"./internal/exec", "TestSummarySizesBelongToTheirStep"},
	{"stage buckets halved", "internal/exec/stages.go", "stageBuckets    = 256", "stageBuckets    = 128",
		"./internal/exec", "TestSummarySizesBelongToTheirStep"},
	{"window sample cap halved", "internal/exec/stages.go", "WindowSampleCap = 1024", "WindowSampleCap = 512",
		"./internal/exec", "TestSummarySizesBelongToTheirStep"},
	{"window buckets halved", "internal/exec/stages.go", "WindowBuckets   = 64", "WindowBuckets   = 32",
		"./internal/exec", "TestSummarySizesBelongToTheirStep"},

	// The rank table's two-slot band read and its build's total.
	{"band interior one key long", "internal/localjoin/ranktable.go",
		"d < uint64(len(below)) {", "d <= uint64(len(below)) {",
		"./internal/localjoin", "FuzzEngineCount"},
	{"pair runs' interior one key long", "internal/localjoin/ranktable.go",
		"d < r.band.keys {", "d <= r.band.keys {",
		"./internal/exec", "FuzzJoinPairs"},
	{"total check dropped", "internal/localjoin/ranktable.go",
		"return int(below) == n", "return true",
		"./internal/localjoin", "TestResidentFormBySpan"},
	{"interior's first key one lower, counts", "internal/localjoin/ranktable.go",
		"uint64(t.lo) + uint64(beta) + 1", "uint64(t.lo) + uint64(beta)",
		"./internal/localjoin", "FuzzEngineCount"},
	{"interior's first key one lower, pairs", "internal/localjoin/ranktable.go",
		"uint64(t.lo) + uint64(beta) + 1", "uint64(t.lo) + uint64(beta)",
		"./internal/exec", "FuzzJoinPairs"},

	// The framing: both ends read one constant, so only DESIGN.md pins it.
	{"wire magic", "internal/wire/wire.go", "'H', 'B'}", "'H', 'X'}",
		"./internal/netexec", "TestDesignFrameTableMatchesWire"},
	{"wire version", "internal/wire/wire.go", "const Version = 11", "const Version = 12",
		"./internal/netexec", "TestDesignFrameTableMatchesWire"},
	{"wire header length", "internal/wire/wire.go", "HeaderLen = 9", "HeaderLen = 10",
		"./internal/netexec", "TestDesignFrameTableMatchesWire"},
	{"wire frame number", "internal/wire/wire.go", "Open  byte = 10", "Open  byte = 11",
		"./internal/netexec", "TestDesignFrameTableMatchesWire"},
}

// TestMutants runs the mutant table under -mutants (go test -run TestMutants
// . -mutants): each row in its own copy of the module, built with -trimpath
// so the packages a row leaves alone come from the build cache.
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("the mutant table runs under -mutants")
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := copyModule(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds %q %d times, want once", m.file, m.old, n)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "test", "-trimpath", "-count=1", "-run", "^"+m.test+"$", m.pkg)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err == nil || !strings.Contains(string(out), "--- FAIL: "+m.test+" ") {
				t.Errorf("%s survived %s (go test: %v):\n%s", m.test, m.name, err, out)
			}
		})
	}
}

// copyModule copies the module's files into dir, leaving out dot entries
// (.git, .github, build outputs).
func copyModule(dir string) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != "." && strings.HasPrefix(d.Name(), ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		to := filepath.Join(dir, path)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
