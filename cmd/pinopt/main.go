// Command pinopt runs concurrent pin access optimization only (no
// routing) and reports assignment quality for the LR and/or ILP solvers —
// the standalone view of the paper's §3.
//
// Usage:
//
//	pinopt -pins 800                 # LR on a synthetic sweep instance
//	pinopt -pins 200 -ilp            # LR and exact ILP side by side
//	pinopt -circuit ecc              # per-panel LR over a full circuit
//	pinopt -load edited.cprd -baseline original.cprd  # panel reuse across revisions
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"cpr/internal/assign"
	"cpr/internal/cache"
	"cpr/internal/cliutil"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/parallel"
	"cpr/internal/pinaccess"
	"cpr/internal/pipeline"
	"cpr/internal/synth"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "Table 2 circuit (per-panel optimization); empty uses -pins")
		pins       = flag.Int("pins", 400, "target pin count for a single whole-design instance")
		seed       = cliutil.Seed(77)
		runILP     = flag.Bool("ilp", false, "also solve exactly with branch-and-bound ILP")
		ilpTimeout = cliutil.ILPTimeout(60 * time.Second)
		ub         = flag.Int("ub", 200, "LR iteration upper bound")
		alpha      = flag.Float64("alpha", 0.95, "LR subgradient step exponent")
		workers    = cliutil.Workers()
		ruleEngine = cliutil.RuleEngine()
		loadPath   = flag.String("load", "", "load the design from a cpr-design file (per-panel optimization)")
		baseline   = cliutil.Baseline()
		tracePath  = cliutil.Trace()
		traceFmt   = cliutil.TraceFormat()
	)
	flag.Parse()

	ctx, flushTrace, err := cliutil.StartTrace(context.Background(), *tracePath, *traceFmt)
	if err != nil {
		fatal(err)
	}
	lrCfg := lagrange.Config{MaxIterations: *ub, Alpha: *alpha}
	if err := lrCfg.Validate(); err != nil {
		fatal(err)
	}

	if *circuit != "" || *loadPath != "" {
		d, err := loadOrSynth(*circuit, *loadPath)
		if err != nil {
			fatal(err)
		}
		runDesign(ctx, d, *workers, *ruleEngine, *baseline)
		if err := flushTrace(); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
		return
	}

	d, err := synth.Generate(synth.SweepSpec(*pins, *seed))
	if err != nil {
		fatal(err)
	}
	model, err := buildModel(d, *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance: %d pins, %d intervals, %d conflict sets\n",
		model.NumPins(), model.NumIntervals(), len(model.Conflicts.Sets))

	t0 := time.Now()
	lr := lagrange.Solve(model, lrCfg)
	lrTime := time.Since(t0)
	st := lr.Solution.Lengths(model.Set)
	fmt.Printf("LR : objective %.1f, %d iterations, converged=%v, cpu %v\n",
		lr.Solution.Objective, lr.Iterations, lr.Converged, lrTime)
	fmt.Printf("     lengths: total %d, mean %.2f, stddev %.2f\n", st.Total, st.Mean, st.StdDev)

	if *runILP {
		t0 = time.Now()
		sol, res, err := model.SolveILP(ilp.Config{TimeLimit: *ilpTimeout})
		ilpTime := time.Since(t0)
		if err != nil {
			fmt.Printf("ILP: failed (%v) after %v\n", err, ilpTime)
			return
		}
		fmt.Printf("ILP: objective %.1f (%s, %d nodes), cpu %v\n",
			sol.Objective, res.Status, res.Nodes, ilpTime)
		if sol.Objective > 0 {
			fmt.Printf("     LR/ILP objective ratio: %.4f\n", lr.Solution.Objective/sol.Objective)
		}
	}
}

// loadOrSynth materializes the design named by exactly one of -circuit
// or -load.
func loadOrSynth(circuit, loadPath string) (*design.Design, error) {
	if circuit != "" && loadPath != "" {
		return nil, fmt.Errorf("-circuit and -load are mutually exclusive")
	}
	if loadPath != "" {
		return cliutil.ReadDesign(loadPath)
	}
	spec, err := synth.SpecByName(circuit)
	if err != nil {
		return nil, err
	}
	return synth.Generate(spec)
}

// runDesign runs per-panel optimization over a full design. With a
// baseline, that revision is optimized first into a shared panel cache,
// so the main run reuses every panel the edit between the two revisions
// cannot have affected; the reuse counts are reported.
func runDesign(ctx context.Context, d *design.Design, workers int, ruleEngine, baseline string) {
	opts := core.Options{Workers: workers, RuleEngine: ruleEngine}
	if baseline != "" {
		base, err := cliutil.ReadDesign(baseline)
		if err != nil {
			fatal(err)
		}
		pc := cache.New[*pipeline.PanelArtifact](0)
		opts.PanelCache = pc
		if _, _, err := core.OptimizePinAccessContext(ctx, base, opts); err != nil {
			fatal(fmt.Errorf("baseline run: %w", err))
		}
	}
	rep, _, err := core.OptimizePinAccessContext(ctx, d, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("design %s: %d panels, %d pins, %d intervals, %d conflict sets\n",
		d.Name, len(rep.Panels), rep.TotalPins, rep.TotalIntervals, rep.TotalConflicts)
	fmt.Printf("objective %.1f in %v\n", rep.Objective, rep.Elapsed)
	converged := 0
	for _, p := range rep.Panels {
		if p.Converged {
			converged++
		}
	}
	fmt.Printf("panels converged without refinement: %d/%d\n", converged, len(rep.Panels))
	if pc, ok := opts.PanelCache.(*cache.Cache[*pipeline.PanelArtifact]); ok && pc != nil {
		st := pc.Stats()
		fmt.Printf("panel cache: %d hits, %d misses (reused %d/%d panels of the main run)\n",
			st.Hits, st.Misses, st.Hits, len(rep.Panels))
	}
}

func buildModel(d *design.Design, workers int) (*assign.Model, error) {
	pins := make([]int, len(d.Pins))
	for i := range pins {
		pins[i] = i
	}
	set, err := pinaccess.GenerateWithOptions(d, d.BuildTrackIndex(), pins, pinaccess.Options{Workers: parallel.Resolve(workers)})
	if err != nil {
		return nil, err
	}
	return assign.BuildWorkers(set, assign.SqrtProfit, parallel.Resolve(workers)), nil
}

func fatal(err error) { cliutil.Fatal("pinopt", err) }
