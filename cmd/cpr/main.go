// Command cpr routes a benchmark circuit with the concurrent pin access
// router or one of the paper's two baselines and prints a Table 2 style
// metrics row.
//
// Usage:
//
//	cpr -circuit ecc -mode cpr
//	cpr -circuit div -mode sequential
//	cpr -nets 500 -width 200 -height 100 -seed 7 -mode nopinopt
//	cpr -circuit ecc -mode cpr -optimizer ilp -ilp-timeout 30s
//	cpr -load edited.cprd -baseline original.cprd   # incremental (ECO) rerun
//	cpr -circuit ecc -trace ecc.trace.json          # Chrome trace of the pipeline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"cpr/internal/cliutil"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/grid"
	"cpr/internal/ilp"
	"cpr/internal/metrics"
	"cpr/internal/render"
	"cpr/internal/synth"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "Table 2 circuit name (ecc efc ctl alu div top); empty uses -nets/-width/-height")
		nets       = flag.Int("nets", 200, "net count for a custom synthetic circuit")
		width      = flag.Int("width", 200, "grid width for a custom circuit")
		height     = flag.Int("height", 100, "grid height for a custom circuit")
		seed       = cliutil.Seed(1)
		mode       = cliutil.Mode()
		optimizer  = cliutil.Optimizer()
		workers    = cliutil.Workers()
		ruleEngine = cliutil.RuleEngine()
		ilpTimeout = cliutil.ILPTimeout(30 * time.Second)
		verbose    = flag.Bool("v", false, "print pin optimization and stage details")
		progress   = flag.Bool("progress", false, "stream LR-iteration and negotiation-round progress to stderr while routing")
		baseline   = cliutil.Baseline()
		rerunMode  = cliutil.RerunMode()
		loadPath   = flag.String("load", "", "load the design from a cpr-design file instead of generating")
		savePath   = flag.String("save", "", "write the design to a cpr-design file before routing")
		svgPath    = flag.String("svg", "", "write the routed layout as SVG")
		asciiPanel = flag.Int("ascii", -1, "print the given panel's M2 occupancy as ASCII")
		tracePath  = cliutil.Trace()
		traceFmt   = cliutil.TraceFormat()
	)
	flag.Parse()

	ctx, flushTrace, err := cliutil.StartTrace(context.Background(), *tracePath, *traceFmt)
	if err != nil {
		fatal(err)
	}
	stopProgress := func() {}
	if *progress {
		ctx, stopProgress = startProgress(ctx)
	}

	var d *design.Design
	if *loadPath != "" {
		f, ferr := os.Open(*loadPath)
		if ferr != nil {
			fatal(ferr)
		}
		d, err = designio.Read(f)
		f.Close()
	} else {
		d, err = buildDesign(*circuit, *nets, *width, *height, *seed)
	}
	if err != nil {
		fatal(err)
	}
	if *savePath != "" {
		f, ferr := os.Create(*savePath)
		if ferr != nil {
			fatal(ferr)
		}
		if err := designio.Write(f, d); err != nil {
			fatal(err)
		}
		f.Close()
	}

	opts := core.Options{ILP: ilp.Config{TimeLimit: *ilpTimeout}, Workers: *workers, RuleEngine: *ruleEngine}
	if opts.Mode, err = core.ParseMode(*mode); err != nil {
		fatal(err)
	}
	if opts.Optimizer, err = core.ParseOptimizer(*optimizer); err != nil {
		fatal(err)
	}
	if opts.RerunMode, err = core.ParseRerunMode(*rerunMode); err != nil {
		fatal(err)
	}

	var res *core.RunResult
	if *baseline != "" {
		base, berr := cliutil.ReadDesign(*baseline)
		if berr != nil {
			fatal(berr)
		}
		baseRes, berr := core.RunContext(ctx, base, opts)
		if berr != nil {
			fatal(fmt.Errorf("baseline run: %w", berr))
		}
		res, err = core.RerunContext(ctx, baseRes, d, opts)
	} else {
		res, err = core.RunContext(ctx, d, opts)
	}
	stopProgress()
	if err != nil {
		fatal(err)
	}
	if err := flushTrace(); err != nil {
		fatal(fmt.Errorf("writing trace: %w", err))
	}
	if *svgPath != "" {
		f, ferr := os.Create(*svgPath)
		if ferr != nil {
			fatal(ferr)
		}
		if err := render.SVG(f, d, grid.New(d), res.Router, nil, render.SVGOptions{}); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if *asciiPanel >= 0 {
		if err := render.ASCII(os.Stdout, d, grid.New(d), res.Router, *asciiPanel); err != nil {
			fatal(err)
		}
	}

	fmt.Println(metrics.Header())
	fmt.Println(res.Metrics.Row())
	if inc := res.Incremental; inc != nil {
		fmt.Printf("incremental: reused %d/%d panels, recomputed %d\n",
			inc.Reused, inc.Panels, len(inc.Recomputed))
		if inc.Regions > 0 {
			fmt.Printf("incremental: spliced %d/%d regions (%d nets spliced, %d warm-started, %d rerouted)\n",
				inc.RegionsSpliced, inc.Regions, inc.NetsSpliced, inc.NetsWarm, inc.NetsRerouted)
		}
	}
	if *verbose {
		fmt.Printf("initial congested grids: %d\n", res.Metrics.InitialCongested)
		fmt.Printf("negotiation iterations:  %d\n", res.Metrics.NegotiationIters)
		fmt.Printf("congestion unrouted:     %d\n", res.Router.CongestionUnrouted)
		fmt.Printf("DRC unrouted:            %d\n", res.Router.DRCUnrouted)
		if res.PinOpt != nil {
			fmt.Printf("pin opt: %d pins, %d intervals, %d conflict sets, objective %.1f in %v\n",
				res.PinOpt.TotalPins, res.PinOpt.TotalIntervals,
				res.PinOpt.TotalConflicts, res.PinOpt.Objective, res.PinOpt.Elapsed)
		}
	}
}

func buildDesign(circuit string, nets, width, height int, seed int64) (*design.Design, error) {
	if circuit != "" {
		spec, err := synth.SpecByName(circuit)
		if err != nil {
			return nil, err
		}
		return synth.Generate(spec)
	}
	return synth.Generate(synth.Spec{
		Name: "custom", Nets: nets, Width: width, Height: height, Seed: seed,
	})
}

func fatal(err error) { cliutil.Fatal("cpr", err) }
