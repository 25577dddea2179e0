package cpr

import (
	"bytes"
	"testing"
)

func demoDesign(t testing.TB) *Design {
	t.Helper()
	d, err := GenerateCircuit(Spec{Name: "demo", Nets: 60, Width: 100, Height: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFacadeQuickstart(t *testing.T) {
	d := demoDesign(t)
	res, err := Run(d, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalNets != 60 {
		t.Errorf("TotalNets = %d", res.Metrics.TotalNets)
	}
	if res.PinOpt == nil || res.PinOpt.TotalPins == 0 {
		t.Error("missing pin optimization report")
	}
}

func TestFacadeAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeCPR, ModeNoPinOpt, ModeSequential} {
		d := demoDesign(t)
		res, err := Run(d, Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Metrics.RoutedNets == 0 {
			t.Errorf("%v routed nothing", mode)
		}
	}
}

func TestFacadeAssignmentSolvers(t *testing.T) {
	d := demoDesign(t)
	m, err := BuildAssignmentModel(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr := SolveLR(m, LRConfig{})
	if err := m.CheckLegal(lr.Solution); err != nil {
		t.Fatalf("LR solution illegal: %v", err)
	}
	if m.NumPins() != len(d.Pins) {
		t.Errorf("model covers %d pins, want %d", m.NumPins(), len(d.Pins))
	}
}

// TestFacadeLRLegalOnPinSubset solves a model over a pin subset whose
// intervals also cover pins outside it: a's intervals reach same-net pin
// b and c's reach c2. Every requested pin must still get exactly one
// interval.
func TestFacadeLRLegalOnPinSubset(t *testing.T) {
	d := NewDesign("subset", 60, 10, DefaultTechnology())
	n := d.AddNet("n")
	a := d.AddPin("a", n, Rect{X0: 10, Y0: 2, X1: 10, Y1: 2})
	d.AddPin("b", n, Rect{X0: 14, Y0: 2, X1: 14, Y1: 2})
	m := d.AddNet("m")
	c := d.AddPin("c", m, Rect{X0: 40, Y0: 5, X1: 40, Y1: 5})
	d.AddPin("c2", m, Rect{X0: 50, Y0: 5, X1: 50, Y1: 5})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	model, err := BuildAssignmentModel(d, []int{a, c})
	if err != nil {
		t.Fatal(err)
	}
	res := SolveLR(model, LRConfig{})
	if err := model.CheckLegal(res.Solution); err != nil {
		t.Fatalf("LR solution illegal: %v", err)
	}
}

func TestFacadeCircuitRegistry(t *testing.T) {
	if len(TableCircuits()) != 6 {
		t.Error("want 6 Table 2 circuits")
	}
	spec, err := CircuitByName("div")
	if err != nil || spec.Nets != 5813 {
		t.Errorf("CircuitByName(div) = %+v, %v", spec, err)
	}
	if _, err := CircuitByName("bogus"); err == nil {
		t.Error("want error for unknown circuit")
	}
}

func TestFacadeManualDesign(t *testing.T) {
	d := NewDesign("manual", 30, 10, DefaultTechnology())
	n := d.AddNet("n")
	d.AddPin("p0", n, Rect{X0: 2, Y0: 4, X1: 2, Y1: 4})
	d.AddPin("p1", n, Rect{X0: 20, Y0: 4, X1: 20, Y1: 4})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RoutedNets != 1 {
		t.Errorf("routed %d, want 1", res.Metrics.RoutedNets)
	}
}

func TestFacadeExperimentEntryPoints(t *testing.T) {
	var buf bytes.Buffer
	points, err := RunFig6(&buf, ExperimentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || buf.Len() == 0 {
		t.Error("Fig6 produced no output")
	}
}

func TestFacadeOptimizePinAccess(t *testing.T) {
	d := demoDesign(t)
	rep, seeds, err := OptimizePinAccess(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPins != len(d.Pins) || len(seeds) == 0 {
		t.Errorf("report covers %d pins, %d seeds", rep.TotalPins, len(seeds))
	}
}

func TestFacadeSaveLoadRoundTrip(t *testing.T) {
	d := demoDesign(t)
	var buf bytes.Buffer
	if err := SaveDesign(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pins) != len(d.Pins) || len(got.Nets) != len(d.Nets) {
		t.Error("round trip lost structure")
	}
}

func TestFacadeRenderAndVerify(t *testing.T) {
	d := demoDesign(t)
	res, err := Run(d, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSVG(&buf, d, res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty SVG")
	}
	if errs := VerifyRouting(d, res); len(errs) != 0 {
		t.Errorf("verification failed: %v", errs[:min(3, len(errs))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
