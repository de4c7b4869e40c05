// Command ewhplan builds a partitioning plan for a generated workload and
// prints the resulting equi-weight histogram regions — a quick way to see
// what the planner does without running the join. With -planout the plan is
// persisted as a binary artifact (scheme, regions, routing seed) that any
// executor — ewhcoord -planin, or a coordinator process on another machine —
// loads and executes identically: plan once, execute many.
//
//	ewhplan -workload bcb -x 19200 -beta 3 -j 8
//	ewhplan -workload bicd -n 60000 -j 16 -scheme csi -p 500
//	ewhplan -workload zipf -j 8 -planout band.ewhp
//	ewhplan -planin band.ewhp
package main

import (
	"flag"
	"fmt"
	"os"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "bcb", "workload: bcb | bicd | beocd | uniform | zipf")
		scheme  = flag.String("scheme", "csio", "scheme: csio | csi | ci")
		n       = flag.Int("n", 60000, "rows per relation (bicd/beocd/uniform/zipf)")
		x       = flag.Int("x", 19200, "dense-segment size (bcb); relations hold 5x rows")
		beta    = flag.Int64("beta", 3, "band half-width (bcb/uniform/zipf)")
		z       = flag.Float64("z", 0.25, "zipf skew (bicd/zipf)")
		j       = flag.Int("j", 8, "number of machines J")
		p       = flag.Int("p", 1000, "CSI bucket count")
		seed    = flag.Uint64("seed", 42, "random seed")
		planout = flag.String("planout", "", "write the built plan as a binary artifact to this file")
		planin  = flag.String("planin", "", "load and describe a plan artifact instead of planning")
	)
	flag.Parse()
	switch {
	case *n < 1:
		usage("-n %d: need at least one row per relation", *n)
	case *x < 1:
		usage("-x %d: need a dense segment of at least one row", *x)
	case *j < 1:
		usage("-j %d: need at least one machine", *j)
	case *z < 0:
		usage("-z %v: the zipf skew cannot be negative", *z)
	case *beta < 0:
		usage("-beta %d: the band half-width cannot be negative", *beta)
	}
	// reads names the flags each workload reads; a flag the chosen run never
	// reads is refused, not silently ignored.
	reads := map[string][]string{
		"bcb": {"x", "beta"}, "bicd": {"n", "z"}, "beocd": {"n"},
		"uniform": {"n", "beta"}, "zipf": {"n", "z", "beta"},
	}
	switch {
	case reads[*wl] == nil:
		usage("-workload %s: unknown workload (bcb | bicd | beocd | uniform | zipf)", *wl)
	case *scheme != "csio" && *scheme != "csi" && *scheme != "ci":
		usage("-scheme %s: unknown scheme (csio | csi | ci)", *scheme)
	}
	why := map[string]string{}
	for _, name := range []string{"n", "x", "beta", "z"} {
		why[name] = "-workload " + *wl + " never reads it"
	}
	for _, name := range reads[*wl] {
		delete(why, name)
	}
	if *scheme != "csi" {
		why["p"] = "-scheme " + *scheme + " never reads it"
	}
	if *planin != "" {
		for _, name := range []string{"workload", "scheme", "n", "x", "beta", "z", "j", "p", "seed", "planout"} {
			why[name] = "-planin never reads it"
		}
	}
	flag.Visit(func(f *flag.Flag) {
		if w, ok := why[f.Name]; ok {
			usage("-%s %v: %s", f.Name, f.Value, w)
		}
	})

	if *planin != "" {
		describeArtifact(*planin)
		return
	}

	var (
		r1, r2 []join.Key
		cond   join.Condition
		model  = cost.DefaultBand
	)
	switch *wl {
	case "bcb":
		r1, r2, cond = workload.BCB(*x, *beta, *seed)
	case "bicd":
		r1, r2, cond = workload.BICD(*n, *z, *seed)
	case "beocd":
		var err error
		r1, r2, cond, err = workload.BEOCD(*n, *seed)
		if err != nil {
			fatal(err)
		}
		model = cost.DefaultEquiBand
	case "uniform":
		r1 = workload.Uniform(*n, int64(*n), *seed)
		r2 = workload.Uniform(*n, int64(*n), *seed+1)
		cond = join.NewBand(*beta)
	case "zipf":
		r1 = workload.Zipfian(*n, int64(*n), *z, *seed)
		r2 = workload.Zipfian(*n, int64(*n), *z, *seed+1)
		cond = join.NewBand(*beta)
	}

	opts := core.Options{J: *j, Model: model, Seed: *seed}
	var (
		plan *core.Plan
		err  error
	)
	switch *scheme {
	case "csio":
		plan, err = core.PlanCSIO(r1, r2, cond, opts)
	case "csi":
		plan, err = core.PlanCSI(r1, r2, cond, *p, opts)
	case "ci":
		plan, err = core.PlanCI(opts)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload=%s condition=%v n1=%d n2=%d J=%d\n", *wl, cond, len(r1), len(r2), *j)
	fmt.Printf("scheme=%s workers=%d stats=%v fallback=%v\n",
		plan.Scheme.Name(), plan.Scheme.Workers(), plan.Stages.Total().Round(1e6), plan.Fallback)
	if plan.M > 0 {
		// m is scaled up from R1's input sample: exact only when that sample
		// holds all of R1.
		fmt.Printf("estimated output size m=%d (rho_oi=%.2f)\n",
			plan.M, float64(plan.M)/float64(len(r1)+len(r2)))
	}
	if len(plan.Regions) > 0 {
		fmt.Printf("ns=%d nc=%d estimated max region weight=%.0f\n",
			plan.NS, plan.NC, plan.EstimatedMaxWeight)
		fmt.Println("regions:")
		for i, r := range plan.Regions {
			fmt.Printf("  %2d: %v (input=%.0f output=%.0f)\n", i, r, r.Input, r.Output)
		}
	}

	if *planout != "" {
		data, err := planio.Encode(&planio.Artifact{Scheme: plan.Scheme, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*planout, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("plan artifact written to %s (%d bytes)\n", *planout, len(data))
	}
}

// describeArtifact loads a plan artifact and prints what it would execute.
func describeArtifact(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	a, err := planio.Decode(data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("artifact %s: scheme=%s workers=%d seed=%d (%d bytes)\n",
		path, a.Scheme.Name(), a.Scheme.Workers(), a.Seed, len(data))
	if rs, ok := a.Scheme.(*partition.RegionScheme); ok {
		if spec, ok := rs.Spec(); ok {
			cond, _ := spec.Condition() // Decode built the scheme from it
			fmt.Printf("routes for %v: a tuple goes only to the regions where it can join\n", cond)
		}
		fmt.Println("regions:")
		for i, r := range rs.Regions() {
			fmt.Printf("  %2d: %v (input=%.0f output=%.0f)\n", i, r, r.Input, r.Output)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ewhplan:", err)
	os.Exit(1)
}

// usage rejects a flag value before anything runs: one line naming the flag,
// exit status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ewhplan: "+format+"\n", args...)
	os.Exit(2)
}
