// Command ewhbench regenerates the paper's evaluation tables and figures at
// a configurable scale. Run with -exp all (default) or a comma-separated
// subset of the ids in bench.Drivers (ewhbench -h lists them).
//
//	ewhbench -exp fig4a,fig4h -j 16 -scale 2 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"ewh/internal/bench"
)

func main() {
	var ids []string
	for _, d := range bench.Drivers {
		ids = append(ids, d.ID)
	}
	var (
		exps  = flag.String("exp", "all", "experiments to run: 'all' or comma-separated ids of "+strings.Join(ids, ", "))
		scale = flag.Int("scale", 1, "dataset scale multiplier (1 ≈ paper ÷ 1000)")
		j     = flag.Int("j", 8, "number of joiner machines J")
		seed  = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()
	cfg := bench.Config{Scale: *scale, J: *j, Seed: *seed}

	// Resolve every requested id before running anything, so a typo fails
	// at once instead of after minutes of experiments.
	want := map[string]bool{}
	if *exps != "all" {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "ewhbench: unknown experiment %q (known: %s)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	for _, d := range bench.Drivers {
		if *exps != "all" && !want[d.ID] {
			continue
		}
		tables, err := d.Run(cfg)
		if err == nil {
			err = bench.Print(os.Stdout, tables)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ewhbench: %s: %v\n", d.ID, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
