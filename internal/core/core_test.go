package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"cpr/internal/design"
	"cpr/internal/lagrange"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/telemetry"
)

func miniCircuit(t testing.TB) *design.Design {
	t.Helper()
	d, err := synth.Generate(synth.Spec{Name: "mini", Nets: 60, Width: 80, Height: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunCPR(t *testing.T) {
	d := miniCircuit(t)
	res, err := Run(d, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	if res.PinOpt == nil {
		t.Fatal("CPR run must produce a pin optimization report")
	}
	if res.PinOpt.TotalPins != len(d.Pins) {
		t.Errorf("optimized %d pins, want %d", res.PinOpt.TotalPins, len(d.Pins))
	}
	if res.PinOpt.TotalIntervals < res.PinOpt.TotalPins {
		t.Error("fewer intervals than pins: every pin has at least its minimum interval")
	}
	if res.Metrics.RoutPct < 60 {
		t.Errorf("CPR routability %.1f%% suspiciously low on a small circuit", res.Metrics.RoutPct)
	}
	for _, pr := range res.PinOpt.Panels {
		if pr.Violations != 0 {
			t.Errorf("panel %d assignment has %d violations", pr.Panel, pr.Violations)
		}
	}
}

func TestRunNoPinOpt(t *testing.T) {
	d := miniCircuit(t)
	res, err := Run(d, Options{Mode: ModeNoPinOpt})
	if err != nil {
		t.Fatal(err)
	}
	if res.PinOpt != nil {
		t.Error("baseline must not report pin optimization")
	}
	if res.Metrics.TotalNets != 60 {
		t.Errorf("TotalNets = %d", res.Metrics.TotalNets)
	}
}

func TestRunSequential(t *testing.T) {
	d := miniCircuit(t)
	res, err := Run(d, Options{Mode: ModeSequential})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RoutedNets == 0 {
		t.Error("sequential baseline routed nothing")
	}
}

func TestCPRReducesInitialCongestion(t *testing.T) {
	// The headline claim behind Figure 7(b): pin access optimization
	// reduces initial congested grids versus no optimization.
	d := miniCircuit(t)
	cpr, err := Run(d, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	d2 := miniCircuit(t)
	base, err := Run(d2, Options{Mode: ModeNoPinOpt})
	if err != nil {
		t.Fatal(err)
	}
	if cpr.Metrics.InitialCongested > base.Metrics.InitialCongested {
		t.Errorf("CPR initial congestion %d > baseline %d; expected reduction",
			cpr.Metrics.InitialCongested, base.Metrics.InitialCongested)
	}
}

func TestRunILPOptimizer(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP optimizer on full circuit is slow")
	}
	d, err := synth.Generate(synth.Spec{Name: "tiny", Nets: 14, Width: 50, Height: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, Options{Mode: ModeCPR, Optimizer: OptILP})
	if err != nil {
		t.Fatal(err)
	}
	if res.PinOpt == nil || res.PinOpt.TotalPins == 0 {
		t.Fatal("ILP run produced no pin optimization")
	}
}

func TestILPObjectiveAtLeastLR(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP comparison is slow")
	}
	d, err := synth.Generate(synth.Spec{Name: "cmp", Nets: 14, Width: 50, Height: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	lrRep, _, err := OptimizePinAccess(d, Options{Optimizer: OptLR})
	if err != nil {
		t.Fatal(err)
	}
	ilpRep, _, err := OptimizePinAccess(d, Options{Optimizer: OptILP})
	if err != nil {
		t.Fatal(err)
	}
	if ilpRep.Objective < lrRep.Objective-1e-6 {
		t.Errorf("ILP objective %g below LR %g", ilpRep.Objective, lrRep.Objective)
	}
}

func TestRunRejectsInvalidDesign(t *testing.T) {
	d := design.New("bad", 0, 0, nil)
	if _, err := Run(d, Options{}); err == nil {
		t.Error("want error for invalid design")
	}
}

// TestRunRejectsInvalidRouterConfig: a NaN or infinite router cost, or a
// negative history increment, leaves the path search with offers that
// keep getting shorter, and the search once ran out of memory on them.
// Each bad setting must be refused before anything is built or routed.
func TestRunRejectsInvalidRouterConfig(t *testing.T) {
	d := mustGenerate(t, goldenSpecs[0])
	nan, inf := math.NaN(), math.Inf(1)
	for _, cfg := range []router.Config{
		{HistoryIncrement: -1},
		{HistoryIncrement: nan},
		{HistoryIncrement: inf},
		{PresentCostBase: nan},
		{PresentCostBase: -inf},
		{PresentCostGrowth: nan},
		{PresentCostGrowth: inf},
	} {
		for _, mode := range []Mode{ModeCPR, ModeNoPinOpt, ModeSequential} {
			reg := telemetry.NewRegistry()
			ctx := telemetry.WithRegistry(context.Background(), reg)
			_, err := RunContext(ctx, d, Options{Mode: mode, Router: cfg, Workers: 1})
			if err == nil {
				t.Errorf("%s %+v: want error", mode, cfg)
				continue
			}
			if runs := reg.Counter("cpr_runs_total", "", telemetry.L("mode", mode.String())).Value(); runs != 0 {
				t.Errorf("%s %+v: run started before the config was refused", mode, cfg)
			}
		}
	}
	// Negative present-cost settings stay legal: a round whose factor is
	// not positive prices history alone.
	if _, err := Run(d, Options{Router: router.Config{PresentCostBase: -1, PresentCostGrowth: -2}, Workers: 1}); err != nil {
		t.Errorf("negative present-cost settings: %v", err)
	}
}

// TestRunRejectsInvalidLRAlpha: a negative step exponent makes the LR
// steps grow until they are infinite, and the multipliers, penalties and
// gains then turn NaN; NaN or infinite exponents do the same at once.
// Run and OptimizePinAccess refuse them, and the default, fractional and
// unit exponents still run.
func TestRunRejectsInvalidLRAlpha(t *testing.T) {
	d := miniCircuit(t)
	for _, alpha := range []float64{math.NaN(), -1, -1000, math.Inf(1), math.Inf(-1)} {
		opts := Options{LR: lagrange.Config{Alpha: alpha}, Workers: 1}
		if _, err := Run(d, opts); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("Run with Alpha %v: err = %v, want an Alpha error", alpha, err)
		}
		if _, _, err := OptimizePinAccess(d, opts); err == nil {
			t.Errorf("OptimizePinAccess with Alpha %v: want error", alpha)
		}
	}
	for _, alpha := range []float64{0, 0.5, 1} {
		if _, err := Run(d, Options{LR: lagrange.Config{Alpha: alpha}, Workers: 1}); err != nil {
			t.Errorf("Run with Alpha %v: %v", alpha, err)
		}
	}
}

func TestModeAndOptimizerStrings(t *testing.T) {
	if ModeCPR.String() != "cpr" || ModeNoPinOpt.String() != "no-pinopt" ||
		ModeSequential.String() != "sequential" {
		t.Error("mode strings wrong")
	}
	if OptLR.String() != "lr" || OptILP.String() != "ilp" {
		t.Error("optimizer strings wrong")
	}
}

func TestCPUIncludesPinOptTime(t *testing.T) {
	d := miniCircuit(t)
	res, err := Run(d, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CPUSeconds < res.Router.Elapsed.Seconds() {
		t.Error("CPU time must include pin optimization time")
	}
}

func TestPanelSeedsCoverEveryPinExactlyOnce(t *testing.T) {
	d := miniCircuit(t)
	_, seeds, err := OptimizePinAccess(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, s := range seeds {
		for pid := range s.Solution.ByPin {
			seen[pid]++
		}
	}
	for i := range d.Pins {
		if seen[i] != 1 {
			t.Errorf("pin %d assigned %d times, want 1", i, seen[i])
		}
	}
}

func TestPanelSeedsAreConflictFreeAcrossPanels(t *testing.T) {
	// Interval reservations from different panels must never overlap on
	// the grid (different panels use disjoint track ranges).
	d := miniCircuit(t)
	_, seeds, err := OptimizePinAccess(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ x, y int }
	used := make(map[cell]int)
	for _, s := range seeds {
		rendered := map[int]bool{}
		for _, ivID := range s.Solution.ByPin {
			if rendered[ivID] {
				continue
			}
			rendered[ivID] = true
			iv := s.Set.Intervals[ivID]
			for x := iv.Span.Lo; x <= iv.Span.Hi; x++ {
				c := cell{x, iv.Track}
				if prev, ok := used[c]; ok && prev != iv.NetID {
					t.Fatalf("cell %v reserved by nets %d and %d", c, prev, iv.NetID)
				}
				used[c] = iv.NetID
			}
		}
	}
}

func TestParallelPinOptMatchesSequential(t *testing.T) {
	d := miniCircuit(t)
	seq, seqSeeds, err := OptimizePinAccess(d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, parSeeds, err := OptimizePinAccess(d, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Objective != par.Objective || seq.TotalIntervals != par.TotalIntervals {
		t.Errorf("parallel result differs: obj %g vs %g", seq.Objective, par.Objective)
	}
	if len(seqSeeds) != len(parSeeds) {
		t.Fatalf("seed count differs")
	}
	for i := range seqSeeds {
		a, b := seqSeeds[i].Solution.ByPin, parSeeds[i].Solution.ByPin
		if len(a) != len(b) {
			t.Fatalf("panel %d assignment size differs", i)
		}
		for pid, iv := range a {
			if b[pid] != iv {
				t.Fatalf("panel %d pin %d assigned %d vs %d", i, pid, iv, b[pid])
			}
		}
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{
		"":           ModeCPR,
		"cpr":        ModeCPR,
		"nopinopt":   ModeNoPinOpt,
		"sequential": ModeSequential,
	}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

func TestParseOptimizer(t *testing.T) {
	for in, want := range map[string]Optimizer{"": OptLR, "lr": OptLR, "ilp": OptILP} {
		if got, err := ParseOptimizer(in); err != nil || got != want {
			t.Errorf("ParseOptimizer(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseOptimizer("sat"); err == nil {
		t.Error("ParseOptimizer accepted an unknown optimizer")
	}
}
