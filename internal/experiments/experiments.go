// Package experiments regenerates every table and figure of the paper's
// evaluation (§5):
//
//   - Table 2  — Rout.%, Via#, WL, cpu(s) for the sequential baseline
//     [12], the negotiation baseline without pin access optimization
//     [21], and CPR, over the six benchmark circuits.
//   - Figure 6(a) — LR vs ILP runtime versus pin count.
//   - Figure 6(b) — LR vs ILP objective versus pin count.
//   - Figure 7(a) — LR/ILP ratios of Rout./Via#/WL after routing.
//   - Figure 7(b) — congested routing grids with and without pin access
//     optimization, before the rip-up-and-reroute stage.
//
// Absolute values depend on the synthetic benchmark substrate (see
// DESIGN.md); the comparisons and trends are the reproduction targets.
package experiments

import (
	"fmt"
	"io"
	"time"

	"cpr/internal/assign"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/metrics"
	"cpr/internal/pinaccess"
	"cpr/internal/synth"
)

// Config selects circuits and effort for the experiment harness.
type Config struct {
	// Circuits restricts runs to these Table 2 circuit names
	// (default: all six).
	Circuits []string
	// Quick scales effort down: smaller Figure 6 sweeps and tighter ILP
	// limits, so every experiment finishes in seconds to minutes.
	Quick bool
	// ILPTimeLimit bounds each ILP solve (default 60s, quick 5s).
	ILPTimeLimit time.Duration
	// Workers bounds the optimization pipeline's concurrency per run
	// (0 = GOMAXPROCS, 1 = sequential); results are identical either way.
	Workers int
}

func (c Config) withDefaults() Config {
	if len(c.Circuits) == 0 {
		c.Circuits = []string{"ecc", "efc", "ctl", "alu", "div", "top"}
	}
	if c.ILPTimeLimit == 0 {
		if c.Quick {
			c.ILPTimeLimit = 5 * time.Second
		} else {
			c.ILPTimeLimit = 60 * time.Second
		}
	}
	return c
}

func (c Config) circuits() ([]*design.Design, error) {
	var out []*design.Design
	for _, name := range c.Circuits {
		spec, err := synth.SpecByName(name)
		if err != nil {
			return nil, err
		}
		d, err := synth.Generate(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Table2 reproduces the paper's Table 2: each circuit routed by the
// sequential pin access planning baseline [12], the negotiation router
// without pin access optimization [21], and CPR.
func Table2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	designs, err := cfg.circuits()
	if err != nil {
		return err
	}
	modes := []struct {
		label string
		mode  core.Mode
	}{
		{"Sequential pin access planning [12]", core.ModeSequential},
		{"Routing w/o pin access optimization [21]", core.ModeNoPinOpt},
		{"CPR", core.ModeCPR},
	}
	rows := make(map[core.Mode][]metrics.Routing)
	for _, d := range designs {
		for _, m := range modes {
			// Fresh design per run: routing mutates grid state.
			spec, _ := synth.SpecByName(d.Name)
			fresh := synth.MustGenerate(spec)
			res, err := core.Run(fresh, core.Options{Mode: m.mode, Workers: cfg.Workers})
			if err != nil {
				return fmt.Errorf("table2 %s/%s: %w", d.Name, m.label, err)
			}
			rows[m.mode] = append(rows[m.mode], res.Metrics)
		}
	}
	for _, m := range modes {
		fmt.Fprintf(w, "--- %s ---\n", m.label)
		fmt.Fprintln(w, metrics.Header())
		for _, r := range rows[m.mode] {
			fmt.Fprintln(w, r.Row())
		}
		avg := metrics.Average(rows[m.mode])
		fmt.Fprintln(w, avg.Row())
	}
	// Ratio row: each mode's averages over CPR's (the paper normalizes
	// to CPR = 1.000).
	cprAvg := metrics.Average(rows[core.ModeCPR])
	fmt.Fprintln(w, "--- Ratios vs CPR (Rout, Via#, WL, cpu) ---")
	for _, m := range modes {
		r := metrics.RatioOf(metrics.Average(rows[m.mode]), cprAvg)
		fmt.Fprintf(w, "%-42s %.3f %.3f %.3f %.2f\n", m.label, r.Rout, r.Vias, r.WL, r.CPU)
	}
	return nil
}

// Fig6Point is one sweep sample of the LR-vs-ILP scalability study.
type Fig6Point struct {
	Pins         int
	LRSeconds    float64
	LRObjective  float64
	ILPSeconds   float64
	ILPObjective float64
	ILPStatus    string
	ILPRan       bool
}

// Fig6 runs the Figure 6 sweep: a single weighted-interval-assignment
// instance per pin count, solved by LR and (up to ilpMaxPins) by exact
// ILP. Returns the series for both runtime (6a) and objective (6b).
func Fig6(w io.Writer, cfg Config) ([]Fig6Point, error) {
	cfg = cfg.withDefaults()
	pinCounts := []int{100, 200, 400, 800, 1600, 3200, 6000}
	ilpMaxPins := 800
	if cfg.Quick {
		pinCounts = []int{50, 100, 200, 400}
		ilpMaxPins = 200
	}
	var points []Fig6Point
	fmt.Fprintf(w, "%8s %12s %12s %12s %12s %10s\n",
		"pins", "LR cpu(s)", "ILP cpu(s)", "LR obj", "ILP obj", "ILP status")
	for _, target := range pinCounts {
		d, err := synth.Generate(synth.SweepSpec(target, 77))
		if err != nil {
			return nil, err
		}
		model, err := wholeDesignModel(d)
		if err != nil {
			return nil, err
		}
		pt := Fig6Point{Pins: model.NumPins()}

		t0 := time.Now()
		lrRes := lagrange.Solve(model, lagrange.Config{})
		pt.LRSeconds = time.Since(t0).Seconds()
		pt.LRObjective = lrRes.Solution.Objective

		if pt.Pins <= ilpMaxPins {
			pt.ILPRan = true
			t0 = time.Now()
			sol, res, err := model.SolveILP(ilp.Config{TimeLimit: cfg.ILPTimeLimit})
			pt.ILPSeconds = time.Since(t0).Seconds()
			pt.ILPStatus = res.Status.String()
			if err == nil {
				pt.ILPObjective = sol.Objective
			}
		}
		ilpCPU, ilpObj, ilpStatus := "-", "-", "skipped (size cap)"
		if pt.ILPRan {
			ilpCPU = fmt.Sprintf("%.3f", pt.ILPSeconds)
			ilpObj = fmt.Sprintf("%.1f", pt.ILPObjective)
			ilpStatus = pt.ILPStatus
		}
		fmt.Fprintf(w, "%8d %12.3f %12s %12.1f %12s %10s\n",
			pt.Pins, pt.LRSeconds, ilpCPU, pt.LRObjective, ilpObj, ilpStatus)
		points = append(points, pt)
	}
	return points, nil
}

// wholeDesignModel builds one assignment model over every pin of the
// design (all panels together), as used by the Figure 6 scalability
// sweeps.
func wholeDesignModel(d *design.Design) (*assign.Model, error) {
	pins := make([]int, len(d.Pins))
	for i := range pins {
		pins[i] = i
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
	if err != nil {
		return nil, err
	}
	return assign.Build(set, assign.SqrtProfit), nil
}

// Fig7aRow holds one circuit's LR-over-ILP routing quality ratios.
type Fig7aRow struct {
	Circuit string
	Rout    float64
	Vias    float64
	WL      float64
}

// Fig7a reproduces Figure 7(a): route each circuit once with LR-based and
// once with ILP-based pin access optimization and report LR/ILP metric
// ratios. ILP solves that exceed the per-panel limits fall back to LR for
// that panel (reported by the core pipeline), which matches how the exact
// approach degrades at scale.
func Fig7a(w io.Writer, cfg Config) ([]Fig7aRow, error) {
	cfg = cfg.withDefaults()
	var rows []Fig7aRow
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "ckt", "Rout LR/ILP", "Via LR/ILP", "WL LR/ILP")
	for _, name := range cfg.Circuits {
		spec, err := synth.SpecByName(name)
		if err != nil {
			return nil, err
		}
		lrRun, err := core.Run(synth.MustGenerate(spec), core.Options{Mode: core.ModeCPR, Optimizer: core.OptLR, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		ilpRun, err := core.Run(synth.MustGenerate(spec), core.Options{
			Mode:      core.ModeCPR,
			Optimizer: core.OptILP,
			ILP:       ilp.Config{TimeLimit: cfg.ILPTimeLimit},
			Workers:   cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		ratio := metrics.RatioOf(lrRun.Metrics, ilpRun.Metrics)
		row := Fig7aRow{Circuit: name, Rout: ratio.Rout, Vias: ratio.Vias, WL: ratio.WL}
		fmt.Fprintf(w, "%-8s %10.3f %10.3f %10.3f\n", row.Circuit, row.Rout, row.Vias, row.WL)
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7bRow holds one circuit's initial congested grid counts.
type Fig7bRow struct {
	Circuit     string
	WithPinOpt  int
	WithoutOpt  int
	Reduction   float64
	RowRendered string
}

// Fig7b reproduces Figure 7(b): the number of congested routing grids
// before the rip-up-and-reroute stage, with and without concurrent pin
// access optimization.
func Fig7b(w io.Writer, cfg Config) ([]Fig7bRow, error) {
	cfg = cfg.withDefaults()
	var rows []Fig7bRow
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "ckt", "w/ pin opt", "w/o pin opt", "reduction")
	for _, name := range cfg.Circuits {
		spec, err := synth.SpecByName(name)
		if err != nil {
			return nil, err
		}
		withOpt, err := core.Run(synth.MustGenerate(spec), core.Options{Mode: core.ModeCPR, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		withoutOpt, err := core.Run(synth.MustGenerate(spec), core.Options{Mode: core.ModeNoPinOpt, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		row := Fig7bRow{
			Circuit:    name,
			WithPinOpt: withOpt.Metrics.InitialCongested,
			WithoutOpt: withoutOpt.Metrics.InitialCongested,
		}
		if row.WithPinOpt > 0 {
			row.Reduction = float64(row.WithoutOpt) / float64(row.WithPinOpt)
		}
		fmt.Fprintf(w, "%-8s %14d %14d %9.2fx\n",
			row.Circuit, row.WithPinOpt, row.WithoutOpt, row.Reduction)
		rows = append(rows, row)
	}
	return rows, nil
}
