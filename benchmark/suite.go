package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a fresh process, so that no workload's peak
// memory, caches or pooled buffers bleed into the next, and returns its
// output and parsed result line. The child has ended when child returns.
func child(o options, workload string, seed uint64, trace int) ([]byte, *resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if o.ops > 0 {
		args = append(args, "-ops", strconv.Itoa(o.ops))
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if trace != 0 && o.traceOut != "" {
		args = append(args, "-traceout", workload+"."+o.traceOut)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return out, nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return out, &line, nil
}

// runSuite runs every workload untraced and then traced and prints both
// tables: workloads × end-to-end metrics and layers × workloads.
func runSuite(o options) error {
	results := map[[2]string]float64{} // (workload, metric) → value
	ok := true
	for _, w := range workloads {
		for trace := range 2 {
			out, line, err := child(o, w.Name, o.seed, trace)
			os.Stdout.Write(out)
			if err != nil {
				return err
			}
			fmt.Println()
			ok = ok && line.Correct
			for name, v := range line.Metrics {
				results[[2]string{w.Name, name}] = v.Value
			}
		}
	}
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		fmt.Printf("%-42s", "metric")
		for _, w := range workloads {
			fmt.Printf(" %16s", w.Name)
		}
		fmt.Println()
		for _, d := range table {
			fmt.Printf("%-42s", d.Name+" ("+d.Unit+")")
			for _, w := range workloads {
				fmt.Printf(" %16.4f", results[[2]string{w.Name, d.Name}])
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if !ok {
		return fmt.Errorf("at least one workload was not correct")
	}
	return nil
}

// runAA is the benchmark's check on itself: the same code measured o.aa times
// per workload, on consecutive seeds as the driver does, must agree with
// itself within each end-to-end metric's bound. The spread is the distance
// between the first and third quartile as a share of the median.
func runAA(o options) error {
	if o.aa < 2 {
		return fmt.Errorf("-aa %d: need at least 2 runs to compare", o.aa)
	}
	pass := true
	for _, w := range workloads {
		values := map[string][]float64{}
		for k := range o.aa {
			_, line, err := child(o, w.Name, o.seed+uint64(k), 0)
			if err != nil {
				return err
			}
			if !line.Correct {
				return fmt.Errorf("%s (seed %d): run was not correct", w.Name, o.seed+uint64(k))
			}
			for name, v := range line.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			vs := values[d.Name]
			s := spread(vs)
			verdict := "PASS"
			switch {
			case d.Name == "setup_s":
				verdict = "not gated on spread"
			case s > d.Bound:
				verdict, pass = "FAIL", false
			case s > d.Bound/3:
				verdict = "PASS (above a third of the bound)"
			}
			fmt.Printf("%-17s %-13s median %14.4f  spread %.4f  bound %.2f  %s  %.4f\n",
				w.Name, d.Name, median(vs), s, d.Bound, verdict, vs)
		}
	}
	if !pass {
		return fmt.Errorf("a metric's spread exceeds its bound")
	}
	return nil
}
