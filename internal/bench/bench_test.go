package bench

import (
	"bytes"
	"strings"
	"testing"

	"ewh/internal/cost"
)

func testCfg() Config { return Config{Scale: 1, J: 4, Seed: 42} }

func TestMakeJoinIDs(t *testing.T) {
	for _, id := range TableIVJoins {
		spec, err := MakeJoin(id, testCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if spec.InputSize() == 0 {
			t.Fatalf("%s: empty input", id)
		}
	}
	if _, err := MakeJoin("nope", testCfg()); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := MakeJoin("BCB-x", testCfg()); err == nil {
		t.Error("bad BCB beta accepted")
	}
}

func TestCalibrateThroughputPositive(t *testing.T) {
	tp := CalibrateThroughput(cost.DefaultBand, 1)
	if tp <= 0 {
		t.Fatalf("throughput %v", tp)
	}
	if tp.Seconds(float64(tp)) < 0.99 || tp.Seconds(float64(tp)) > 1.01 {
		t.Error("Seconds(1 second of work) != 1s")
	}
	if Throughput(0).Seconds(100) != 0 {
		t.Error("zero throughput should yield 0 seconds")
	}
}

func TestRunSchemeAll(t *testing.T) {
	cfg := testCfg()
	spec, err := MakeJoin("BCB-2", Config{Scale: 1, J: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink for test speed.
	spec.R1 = spec.R1[:20000]
	spec.R2 = spec.R2[:20000]
	tp := CalibrateThroughput(spec.Model, cfg.Seed)
	var outputs []int64
	for _, s := range Schemes {
		r, err := RunScheme(spec, s, cfg, tp)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.TotalSeconds < 0 || r.JoinSeconds < 0 {
			t.Fatalf("%s: negative seconds", s)
		}
		outputs = append(outputs, r.Output)
	}
	// All schemes compute the same join.
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Fatalf("schemes disagree on output: %v", outputs)
	}
	if _, err := RunScheme(spec, "bogus", cfg, tp); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// TestDriversSmoke runs every driver in the Drivers table end to end at a
// small configuration: each must succeed, print something, and — where the
// experiment has a shape worth pinning — print the lines named here.
func TestDriversSmoke(t *testing.T) {
	wantIn := map[string][]string{
		"fig1":  {"CI", "CSI", "CSIO", "exact output size: 29"},
		"tab4":  TableIVJoins,
		"tab3":  {"MonotonicBSP"},
		"worst": {"fallback=true"}, // worst-case 2 must trip the fallback
		"equi":  {"HashPRPD"},
		"steal": {"K=8"},
	}
	for _, d := range Drivers {
		t.Run(d.ID, func(t *testing.T) {
			if testing.Short() && wantIn[d.ID] == nil {
				t.Skip("pure smoke run; slow in -short mode")
			}
			var buf bytes.Buffer
			if err := d.Run(&buf, testCfg()); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("no output")
			}
			for _, want := range wantIn[d.ID] {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("output missing %q:\n%s", want, buf.String())
				}
			}
			delete(wantIn, d.ID)
		})
	}
	for id := range wantIn {
		t.Errorf("expectation for %q names no driver", id)
	}
}

// TestCSIOBeatsCIAndCSIOnMakespan gates the paper's §VI claim on the modeled
// makespan (max region weight — no wall clock, deterministic for the seed):
// over the eight Table IV joins, CSIO is within 5% of the better of CI and
// CSI everywhere, and strictly better than both on every BCB-β row. The 5%
// is where the claim is thin, not slack: on BEOCD CSIO trails CI by 1.6%
// at J=8 and 3.2% at J=4.
func TestCSIOBeatsCIAndCSIOnMakespan(t *testing.T) {
	for _, j := range []int{4, 8} {
		cfg := Config{Scale: 1, J: j, Seed: 42}
		for _, id := range TableIVJoins {
			spec, err := MakeJoin(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			work := map[string]float64{}
			for _, s := range Schemes {
				r, err := RunScheme(spec, s, cfg, 1) // throughput only scales the seconds fields, unread here
				if err != nil {
					t.Fatalf("J=%d %s %s: %v", j, id, s, err)
				}
				work[s] = r.MaxWork
			}
			ci, csi, csio := work["CI"], work["CSI"], work["CSIO"]
			if csio > 1.05*min(ci, csi) {
				t.Errorf("J=%d %s: CSIO %.0f is more than 5%% over min(CI %.0f, CSI %.0f)", j, id, csio, ci, csi)
			}
			if strings.HasPrefix(id, "BCB-") && (csio >= ci || csio >= csi) {
				t.Errorf("J=%d %s: CSIO %.0f does not beat CI %.0f and CSI %.0f", j, id, csio, ci, csi)
			}
			t.Logf("J=%d %-7s CI %8.0f  CSI %8.0f  CSIO %8.0f", j, id, ci, csi, csio)
		}
	}
}
