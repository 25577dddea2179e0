package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"cpr/internal/synth"
)

// TestRunContextCanceledBeforeStart verifies a pre-canceled context stops
// the run before any work and surfaces context.Canceled.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	d := mustGenerate(t, synth.Spec{Name: "ctx-pre", Nets: 40, Width: 100, Height: 40, Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, d, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx: got %v, want context.Canceled", err)
	}
}

// TestRunContextDeadline verifies that a deadline expiring mid-run makes
// the pipeline abandon remaining work and report DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	d := mustGenerate(t, synth.Spec{Name: "ctx-dl", Nets: 300, Width: 260, Height: 120, Seed: 7})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	// The nanosecond deadline has fired by the time the first panel's
	// ctx check runs, so the error must surface from inside the panels.
	_, err := RunContext(ctx, d, Options{Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext past deadline: got %v, want context.DeadlineExceeded", err)
	}
}

// TestOptimizePinAccessContextCancelMidRun cancels while panels are being
// solved and verifies the optimization errors out instead of completing.
// The cancel comes from inside the first panel's LR solve, through its
// Stop hook, so it lands mid-run however fast the machine is.
func TestOptimizePinAccessContextCancelMidRun(t *testing.T) {
	d := mustGenerate(t, synth.Spec{Name: "ctx-mid", Nets: 300, Width: 260, Height: 120, Seed: 11})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workers: 1}
	opts.LR.Stop = func() bool {
		cancel()
		return false
	}
	_, _, err := OptimizePinAccessContext(ctx, d, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want wrapped context.Canceled", err)
	}
}

// TestRunContextNeverCanceledMatchesRun is the contract the cprd result
// cache depends on: threading a live-but-never-fired context through the
// pipeline must not perturb the result in any way.
func TestRunContextNeverCanceledMatchesRun(t *testing.T) {
	spec := synth.Spec{Name: "ctx-eq", Nets: 120, Width: 160, Height: 60, Seed: 13}
	base, err := Run(mustGenerate(t, spec), Options{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := RunContext(ctx, mustGenerate(t, spec), Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}

	bm, gm := base.Metrics.ZeroTimes(), got.Metrics.ZeroTimes()
	if !reflect.DeepEqual(bm, gm) {
		t.Errorf("metrics diverged:\n Run        %+v\n RunContext %+v", bm, gm)
	}
	if base.PinOpt == nil || got.PinOpt == nil {
		t.Fatalf("missing pin opt reports: %v %v", base.PinOpt, got.PinOpt)
	}
	brep, grep := reportFingerprint(base.PinOpt), reportFingerprint(got.PinOpt)
	if !reflect.DeepEqual(brep, grep) {
		t.Errorf("pin opt reports diverged:\n Run        %+v\n RunContext %+v", brep, grep)
	}
	if base.Router.RoutedNets != got.Router.RoutedNets ||
		base.Router.Vias != got.Router.Vias ||
		base.Router.Wirelength != got.Router.Wirelength {
		t.Errorf("router results diverged: Run %d/%d/%d, RunContext %d/%d/%d",
			base.Router.RoutedNets, base.Router.Vias, base.Router.Wirelength,
			got.Router.RoutedNets, got.Router.Vias, got.Router.Wirelength)
	}
}
