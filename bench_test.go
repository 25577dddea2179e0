package cpr

// Benchmarks regenerating the paper's evaluation artifacts, one family per
// table and figure, on scaled-down instances so `go test -bench=.` stays
// in laptop territory. Full-size runs live in cmd/experiments.
//
//	BenchmarkTable2*       — Table 2  (three routing flows)
//	BenchmarkFig6aLR/ILP   — Fig 6(a) (assignment solver runtime scaling)
//	BenchmarkFig6bGap      — Fig 6(b) (LR vs ILP objective gap)
//	BenchmarkFig7a*        — Fig 7(a) (LR- vs ILP-based CPR routing)
//	BenchmarkFig7b*        — Fig 7(b) (initial congested grids)
//	BenchmarkAblation*     — design-choice ablations from DESIGN.md §5
//	Benchmark<module>      — micro-benchmarks of the core kernels

import (
	"fmt"
	"testing"
	"time"

	"cpr/internal/assign"
	"cpr/internal/cache"
	"cpr/internal/conflict"
	"cpr/internal/core"
	"cpr/internal/cutmask"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/lp"
	"cpr/internal/pinaccess"
	"cpr/internal/pipeline"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/tech"
)

// benchSpec is the Table 2 stand-in circuit used by routing benchmarks:
// ecc's density at roughly a quarter of its area.
var benchSpec = synth.Spec{Name: "bench", Nets: 400, Width: 300, Height: 160, Seed: 9}

// benchLargeSpec is the largest synthetic circuit in the benchmark suite
// (same pin density as benchSpec, 4x the area, 32 panels) — the instance
// the parallel-vs-sequential pairs below measure speedup on.
var benchLargeSpec = synth.Spec{Name: "benchlarge", Nets: 1600, Width: 600, Height: 320, Seed: 11}

func benchDesign(b *testing.B) *design.Design {
	b.Helper()
	d, err := synth.Generate(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchModel(b *testing.B, pins int, seed int64) *assign.Model {
	b.Helper()
	d, err := synth.Generate(synth.SweepSpec(pins, seed))
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, len(d.Pins))
	for i := range ids {
		ids[i] = i
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), ids)
	if err != nil {
		b.Fatal(err)
	}
	return assign.Build(set, assign.SqrtProfit)
}

// --- Table 2 ---------------------------------------------------------

func benchmarkTable2(b *testing.B, mode core.Mode) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDesign(b)
		b.StartTimer()
		res, err := core.Run(d, core.Options{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.RoutPct, "rout%")
		b.ReportMetric(float64(res.Metrics.Vias), "vias")
		b.ReportMetric(float64(res.Metrics.WL), "WL")
		b.ReportMetric(float64(res.Router.Search.Pushes), "pushes/op")
		b.ReportMetric(float64(res.Router.Search.Pops), "pops/op")
	}
}

func BenchmarkTable2CPR(b *testing.B)        { benchmarkTable2(b, core.ModeCPR) }
func BenchmarkTable2NoPinOpt(b *testing.B)   { benchmarkTable2(b, core.ModeNoPinOpt) }
func BenchmarkTable2Sequential(b *testing.B) { benchmarkTable2(b, core.ModeSequential) }

// --- Figure 6(a): solver runtime scaling -----------------------------

func BenchmarkFig6aLR(b *testing.B) {
	for _, pins := range []int{100, 200, 400, 800} {
		b.Run(fmt.Sprintf("pins=%d", pins), func(b *testing.B) {
			m := benchModel(b, pins, 77)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lagrange.Solve(m, lagrange.Config{})
			}
		})
	}
}

func BenchmarkFig6aILP(b *testing.B) {
	for _, pins := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("pins=%d", pins), func(b *testing.B) {
			m := benchModel(b, pins, 77)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.SolveILP(ilp.Config{TimeLimit: time.Minute}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 6(b): LR/ILP objective gap --------------------------------

func BenchmarkFig6bGap(b *testing.B) {
	m := benchModel(b, 200, 77)
	for i := 0; i < b.N; i++ {
		lrRes := lagrange.Solve(m, lagrange.Config{})
		ilpSol, _, err := m.SolveILP(ilp.Config{TimeLimit: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lrRes.Solution.Objective/ilpSol.Objective, "LR/ILP")
	}
}

// --- Figure 7(a): routing quality, LR- vs ILP-based CPR --------------

func benchmarkFig7a(b *testing.B, opt core.Optimizer) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDesign(b)
		b.StartTimer()
		res, err := core.Run(d, core.Options{
			Mode:      core.ModeCPR,
			Optimizer: opt,
			ILP:       ilp.Config{TimeLimit: 10 * time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.RoutPct, "rout%")
		b.ReportMetric(float64(res.Metrics.Vias), "vias")
	}
}

func BenchmarkFig7aLRBased(b *testing.B)  { benchmarkFig7a(b, core.OptLR) }
func BenchmarkFig7aILPBased(b *testing.B) { benchmarkFig7a(b, core.OptILP) }

// --- Figure 7(b): initial congested grids ----------------------------

func benchmarkFig7b(b *testing.B, mode core.Mode) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDesign(b)
		b.StartTimer()
		res, err := core.Run(d, core.Options{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.InitialCongested), "congestedGrids")
	}
}

func BenchmarkFig7bWithPinOpt(b *testing.B)    { benchmarkFig7b(b, core.ModeCPR) }
func BenchmarkFig7bWithoutPinOpt(b *testing.B) { benchmarkFig7b(b, core.ModeNoPinOpt) }

// --- Ablations (DESIGN.md §5) -----------------------------------------

func BenchmarkAblationProfitFn(b *testing.B) {
	for _, p := range []struct {
		name string
		fn   assign.ProfitFn
	}{{"sqrt", assign.SqrtProfit}, {"linear", assign.LinearProfit}} {
		b.Run(p.name, func(b *testing.B) {
			d, err := synth.Generate(synth.SweepSpec(400, 91))
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]int, len(d.Pins))
			for i := range ids {
				ids[i] = i
			}
			set, err := pinaccess.Generate(d, d.BuildTrackIndex(), ids)
			if err != nil {
				b.Fatal(err)
			}
			m := assign.Build(set, p.fn)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := lagrange.Solve(m, lagrange.Config{})
				st := res.Solution.Lengths(m.Set)
				b.ReportMetric(st.StdDev, "lenStdDev")
				b.ReportMetric(float64(st.Total), "lenTotal")
			}
		})
	}
}

func BenchmarkAblationTieBreak(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			m := benchModel(b, 400, 92)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := lagrange.Solve(m, lagrange.Config{DisableSameNetTieBreak: disable})
				b.ReportMetric(res.Solution.Objective, "objective")
			}
		})
	}
}

func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.5, 0.8, 0.95, 1.0} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			m := benchModel(b, 400, 93)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := lagrange.Solve(m, lagrange.Config{Alpha: alpha})
				b.ReportMetric(float64(res.Iterations), "iterations")
				b.ReportMetric(res.Solution.Objective, "objective")
			}
		})
	}
}

func BenchmarkAblationPostImprove(b *testing.B) {
	for _, skip := range []bool{false, true} {
		name := "on"
		if skip {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			m := benchModel(b, 400, 94)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := lagrange.Solve(m, lagrange.Config{SkipPostImprove: skip})
				b.ReportMetric(res.Solution.Objective, "objective")
			}
		})
	}
}

// --- Parallel pipeline: sequential-vs-parallel pairs -------------------
//
// Each family runs the identical workload at worker counts 1/2/4/8, so
// `go test -bench Workers` prints the speedup ladder directly. Results are
// byte-identical across worker counts (see internal/parallel); only the
// wall clock changes.

var benchWorkerCounts = []int{1, 2, 4, 8}

func BenchmarkPinOptWorkers(b *testing.B) {
	d, err := synth.Generate(benchLargeSpec)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, _, err := core.OptimizePinAccess(d, core.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Objective, "objective")
			}
		})
	}
}

func BenchmarkIntervalGenerationWorkers(b *testing.B) {
	d, err := synth.Generate(synth.SweepSpec(3000, 7))
	if err != nil {
		b.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	ids := make([]int, len(d.Pins))
	for i := range ids {
		ids[i] = i
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pinaccess.GenerateWithOptions(d, idx, ids, pinaccess.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConflictDetectionWorkers(b *testing.B) {
	d, err := synth.Generate(synth.SweepSpec(3000, 7))
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, len(d.Pins))
	for i := range ids {
		ids[i] = i
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), ids)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conflict.DetectWorkers(set.Intervals, w)
			}
		})
	}
}

// --- Micro-benchmarks of the core kernels -----------------------------

func BenchmarkIntervalGeneration(b *testing.B) {
	d, err := synth.Generate(synth.SweepSpec(800, 7))
	if err != nil {
		b.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	ids := make([]int, len(d.Pins))
	for i := range ids {
		ids[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pinaccess.Generate(d, idx, ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConflictDetection(b *testing.B) {
	d, err := synth.Generate(synth.SweepSpec(800, 7))
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, len(d.Pins))
	for i := range ids {
		ids[i] = i
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), ids)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conflict.Detect(set.Intervals)
	}
}

func BenchmarkSimplex(b *testing.B) {
	m := benchModel(b, 200, 7)
	p := m.BuildILP()
	relax := lp.NewProblem(p.NumVars)
	copy(relax.Objective, p.Objective)
	relax.Constraints = p.Constraints
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := lp.Solve(relax)
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkPanelPinOpt(b *testing.B) {
	d := benchDesign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.OptimizePinAccess(d, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCutMaskAnalysis(b *testing.B) {
	d := benchDesign(b)
	g := grid.New(d)
	res := router.New(d, g, router.Config{}).Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := cutmask.Analyze(d, g, res, cutmask.Params{})
		b.ReportMetric(float64(rep.MaskComplexity()), "cutShapes")
	}
}

// --- Incremental (ECO) re-optimization ---------------------------------
//
// BenchmarkIncremental pairs a cold full run with a Rerun after a
// single-pin edit on the 32-panel large circuit: the incremental path
// recomputes only the panels the edit dirtied and splices the previous
// artifacts for the rest (byte-identical results; see internal/core
// rerun tests). `go test -bench Incremental -benchtime 3x .` regenerates
// BENCH_incremental.json / results/incremental_speedup.txt.

// benchEditOnePin returns a copy of d with one pin moved one column, the
// canonical single-pin ECO edit. It scans for a pin whose move keeps the
// design valid.
func benchEditOnePin(b *testing.B, d *design.Design) *design.Design {
	b.Helper()
	for i := range d.Pins {
		edited := *d
		edited.Pins = append([]design.Pin(nil), d.Pins...)
		p := &edited.Pins[i]
		p.Shape.X0++
		p.Shape.X1++
		if p.Shape.X1 < edited.Width && edited.Validate() == nil {
			return &edited
		}
	}
	b.Fatal("no movable pin")
	return nil
}

func BenchmarkIncrementalRerun(b *testing.B) {
	d, err := synth.Generate(benchLargeSpec)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := core.Run(d, core.Options{Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	edited := benchEditOnePin(b, d)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Run(edited, core.Options{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PinOpt.Objective, "objective")
		}
	})
	for _, mode := range []core.RerunMode{core.RerunStrict, core.RerunEcoFast} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Rerun(prev, edited, core.Options{Workers: 8, RerunMode: mode})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.PinOpt.Objective, "objective")
				b.ReportMetric(float64(res.Incremental.Reused), "reusedPanels")
				b.ReportMetric(float64(res.Incremental.NetsSpliced), "netsSpliced")
				b.ReportMetric(float64(res.Incremental.NetsWarm), "netsWarm")
				b.ReportMetric(float64(res.Incremental.NetsRerouted), "netsRerouted")
			}
		})
	}
}

// --- Cross-engine comparison ------------------------------------------
//
// BenchmarkRuleEngines routes benchlarge under each multi-patterning
// rule engine and reports routing quality next to the engine's mask
// decomposition, so the cost of swapping sadp for lele or tpl rules is
// one bench run away. `go test -run '^$' -bench RuleEngines
// -benchtime 1x .` regenerates BENCH_rule_engines.json. The timed
// section is the full CPR flow; mask analysis runs off the clock.

func BenchmarkRuleEngines(b *testing.B) {
	for _, engine := range []string{tech.EngineSADP, tech.EngineLELE, tech.EngineTPL} {
		b.Run(engine, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := synth.Generate(benchLargeSpec)
				if err != nil {
					b.Fatal(err)
				}
				tc := *d.Tech
				tc.Patterning.Engine = engine
				d.Tech = &tc
				b.StartTimer()
				res, err := core.Run(d, core.Options{Workers: 8})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				g := grid.New(d)
				mask := tech.RulesFor(d.Tech).AnalyzeMask(cutmask.Segments(g, res.Router), d.Width, d.Height)
				if engine == tech.EngineTPL && mask.Uncolorable != 0 {
					b.Fatalf("tpl left %d uncolorable segments on benchlarge", mask.Uncolorable)
				}
				b.ReportMetric(res.PinOpt.Objective, "objective")
				b.ReportMetric(res.Metrics.RoutPct, "rout%")
				b.ReportMetric(float64(res.Metrics.Vias), "vias")
				b.ReportMetric(float64(mask.Stitches), "stitches")
				b.ReportMetric(float64(mask.Uncolorable), "uncolorable")
				b.StartTimer()
			}
		})
	}
}

// benchMultiSpec is the per-tile spec of the multi-region instance:
// three bench-density tiles separated by 300 empty columns, which is
// wider than twice the router's influence margin, so the tiles route as
// three provably independent regions. A single-pin edit dirties one
// tile and a strict rerun splices the other two byte-identically — the
// path benchlarge (one connected region) never exercises.
var benchMultiSpec = synth.Spec{Name: "benchmulti", Nets: 400, Width: 300, Height: 160, Seed: 13}

func BenchmarkIncrementalRerunMultiRegion(b *testing.B) {
	d, err := synth.GenerateMultiRegion(benchMultiSpec, 3, 300)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := core.Run(d, core.Options{Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	edited := benchEditOnePin(b, d)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Run(edited, core.Options{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PinOpt.Objective, "objective")
		}
	})
	b.Run("strict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Rerun(prev, edited, core.Options{Workers: 8, RerunMode: core.RerunStrict})
			if err != nil {
				b.Fatal(err)
			}
			if res.Incremental.RegionsSpliced == 0 {
				b.Fatal("multi-region edit spliced no regions; tiles are not independent")
			}
			b.ReportMetric(res.PinOpt.Objective, "objective")
			b.ReportMetric(float64(res.Incremental.Regions), "regions")
			b.ReportMetric(float64(res.Incremental.RegionsSpliced), "regionsSpliced")
			b.ReportMetric(float64(res.Incremental.NetsSpliced), "netsSpliced")
			b.ReportMetric(float64(res.Incremental.NetsRerouted), "netsRerouted")
		}
	})
}

// BenchmarkIncrementalPinOpt isolates the optimization phase (the part
// panel artifacts can skip; routing always runs in full): cold per-panel
// optimization vs the same design answered from a warmed panel cache.
func BenchmarkIncrementalPinOpt(b *testing.B) {
	d, err := synth.Generate(benchLargeSpec)
	if err != nil {
		b.Fatal(err)
	}
	edited := benchEditOnePin(b, d)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.OptimizePinAccess(edited, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		pc := cache.New[*pipeline.PanelArtifact](0)
		if _, _, err := core.OptimizePinAccess(d, core.Options{PanelCache: pc}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.OptimizePinAccess(edited, core.Options{PanelCache: pc}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
