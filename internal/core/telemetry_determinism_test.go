package core

import (
	"bytes"
	"context"
	"testing"

	"cpr/internal/design"
	"cpr/internal/synth"
	"cpr/internal/telemetry"
)

// telemetryCtx returns a context carrying a fresh tracer and metrics
// registry, the way cmd/cpr -trace or the daemon wires them in.
func telemetryCtx() (context.Context, *telemetry.Tracer) {
	tr := telemetry.New()
	ctx := telemetry.WithTracer(context.Background(), tr)
	ctx = telemetry.WithRegistry(ctx, telemetry.NewRegistry())
	return ctx, tr
}

// TestTelemetryObservationalByteIdentical is the telemetry contract's
// regression gate: for every worker count, a run with tracing and
// metrics enabled must produce an outcome byte-identical to a run with
// telemetry absent. Any span attribute read that perturbs iteration
// order, any metric observation that reorders work, shows up here as a
// byte diff.
func TestTelemetryObservationalByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow telemetry sweep skipped in short mode")
	}
	spec := synth.Spec{Name: "telem-det", Nets: 160, Width: 150, Height: 60, Seed: 202, BlockageFraction: 0.04}
	var base []byte
	for _, workers := range determinismWorkers {
		for _, traced := range []bool{false, true} {
			d := mustGenerate(t, spec)
			ctx := context.Background()
			if traced {
				ctx, _ = telemetryCtx()
			}
			res, err := RunContext(ctx, d, Options{Mode: ModeCPR, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d traced=%v: %v", workers, traced, err)
			}
			dump := dumpRunResult(t, d, res)
			if base == nil {
				base = dump
				continue
			}
			if !bytes.Equal(dump, base) {
				t.Errorf("workers=%d traced=%v: outcome differs from workers=%d untraced (len %d vs %d)",
					workers, traced, determinismWorkers[0], len(dump), len(base))
			}
		}
	}
}

// TestTelemetryObservationalRerun extends the contract to the
// incremental path: a traced Rerun must match an untraced cold run of
// the edited design byte for byte.
func TestTelemetryObservationalRerun(t *testing.T) {
	spec := synth.Spec{Name: "telem-rerun", Nets: 80, Width: 100, Height: 40, Seed: 404}
	base := mustGenerate(t, spec)
	baseRes, err := Run(base, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic generation lets us materialize the edited revision
	// twice, once per flow.
	edit := func() *design.Design {
		d := mustGenerate(t, spec)
		d.Blockages = d.Blockages[:len(d.Blockages)/2]
		return d
	}

	coldD := edit()
	cold, err := Run(coldD, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	incD := edit()
	ctx, tr := telemetryCtx()
	inc, err := RerunContext(ctx, baseRes, incD, Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	got := dumpRunResult(t, incD, inc)
	want := dumpRunResult(t, coldD, cold)
	if !bytes.Equal(got, want) {
		t.Errorf("traced incremental rerun differs from untraced cold run (len %d vs %d)", len(got), len(want))
	}
	if tr.Find("run") == nil || tr.Find("pinopt") == nil {
		t.Errorf("rerun trace missing run/pinopt spans")
	}
}

// observabilityCtx wires the full observability stack the daemon
// enables: a tracer whose span boundaries feed an event bus (the flight
// recorder), a metrics registry, and a job-scoped emitter carrying the
// solver's LR-iteration and negotiation-round events.
func observabilityCtx() (context.Context, *telemetry.EventBus) {
	tr := telemetry.New()
	bus := telemetry.NewEventBus(0)
	em := telemetry.NewEmitter(bus, "det-test")
	tr.SetEmitter(em)
	ctx := telemetry.WithTracer(context.Background(), tr)
	ctx = telemetry.WithRegistry(ctx, telemetry.NewRegistry())
	ctx = telemetry.WithEmitter(ctx, em)
	return ctx, bus
}

// TestEventStreamObservationalByteIdentical extends the observational
// contract to the event layer: a run with event streaming, the flight
// recorder, and tracing all enabled must be byte-identical to a bare
// run, at every worker count. The emitter rides the solver's hot loops
// (LR iterations, negotiation rounds), so any event-induced reordering
// or allocation that perturbs results shows up here.
func TestEventStreamObservationalByteIdentical(t *testing.T) {
	spec := synth.Spec{Name: "events-det", Nets: 120, Width: 120, Height: 50, Seed: 303, BlockageFraction: 0.03}
	var base []byte
	for _, workers := range determinismWorkers {
		for _, observed := range []bool{false, true} {
			d := mustGenerate(t, spec)
			ctx := context.Background()
			var bus *telemetry.EventBus
			if observed {
				ctx, bus = observabilityCtx()
			}
			res, err := RunContext(ctx, d, Options{Mode: ModeCPR, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d observed=%v: %v", workers, observed, err)
			}
			if observed {
				var iters, spans int
				var roundPops int64
				for _, ev := range bus.Snapshot() {
					switch ev.Type {
					case "lr_iteration":
						iters++
					case "span_end":
						spans++
					case "negotiate_round":
						// Each round reports its own search work.
						_, ok1 := ev.Data["searches"].(int64)
						pops, ok2 := ev.Data["pops"].(int64)
						if !ok1 || !ok2 {
							t.Fatalf("workers=%d: negotiate_round event %v lacks its searches and pops", workers, ev.Data)
						}
						roundPops += pops
					}
				}
				if iters == 0 || spans == 0 || roundPops == 0 {
					t.Fatalf("workers=%d: recorder saw %d lr_iteration / %d span_end events and %d pops in negotiation rounds, want all > 0",
						workers, iters, spans, roundPops)
				}
			}
			dump := dumpRunResult(t, d, res)
			if base == nil {
				base = dump
				continue
			}
			if !bytes.Equal(dump, base) {
				t.Errorf("workers=%d observed=%v: outcome differs from workers=%d bare (len %d vs %d)",
					workers, observed, determinismWorkers[0], len(dump), len(base))
			}
		}
	}
}

// TestEventStreamObservationalEcoFastRerun pins the same contract on the
// eco-fast rerun path: with and without the observability stack, an
// eco-fast rerun from the same base must agree byte for byte.
func TestEventStreamObservationalEcoFastRerun(t *testing.T) {
	spec := synth.Spec{Name: "events-eco", Nets: 80, Width: 100, Height: 40, Seed: 606}
	baseRes, err := Run(mustGenerate(t, spec), Options{Mode: ModeCPR})
	if err != nil {
		t.Fatal(err)
	}
	edit := func() *design.Design {
		d := mustGenerate(t, spec)
		d.Blockages = d.Blockages[:len(d.Blockages)/2]
		return d
	}
	rerun := func(observed bool) []byte {
		t.Helper()
		d := edit()
		ctx := context.Background()
		if observed {
			ctx, _ = observabilityCtx()
		}
		res, err := RerunContext(ctx, baseRes, d, Options{Mode: ModeCPR, RerunMode: RerunEcoFast})
		if err != nil {
			t.Fatalf("observed=%v: %v", observed, err)
		}
		return dumpRunResult(t, d, res)
	}
	bare := rerun(false)
	observed := rerun(true)
	if !bytes.Equal(bare, observed) {
		t.Errorf("observed eco-fast rerun differs from bare one (len %d vs %d)", len(observed), len(bare))
	}
}

// TestTraceGoldenZeroedTimes pins the trace layout: two sequential runs
// of the same design must export byte-identical traces once timestamps
// are zeroed, in both the Chrome and raw JSON encodings. (Sequential
// because span IDs follow creation order; the *results* are identical
// at every worker count — see TestTelemetryObservationalByteIdentical —
// but concurrent span creation order is scheduler-dependent.)
func TestTraceGoldenZeroedTimes(t *testing.T) {
	spec := synth.Spec{Name: "telem-golden", Nets: 60, Width: 80, Height: 40, Seed: 505}
	export := func() (chrome, raw []byte) {
		t.Helper()
		d := mustGenerate(t, spec)
		ctx, tr := telemetryCtx()
		if _, err := RunContext(ctx, d, Options{Mode: ModeCPR, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		var cb, jb bytes.Buffer
		if err := tr.WriteChromeTrace(&cb, telemetry.ExportOptions{ZeroTimes: true}); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&jb, telemetry.ExportOptions{ZeroTimes: true}); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), jb.Bytes()
	}

	chrome1, raw1 := export()
	chrome2, raw2 := export()
	if !bytes.Equal(chrome1, chrome2) {
		t.Errorf("zero-time Chrome traces differ across identical runs")
	}
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("zero-time JSON traces differ across identical runs")
	}
	for _, name := range []string{"run", "pinopt", "panel", "generate", "conflicts", "assign", "route"} {
		if !bytes.Contains(chrome1, []byte(`"name": "`+name+`"`)) {
			t.Errorf("Chrome trace missing %q span", name)
		}
	}
	if !bytes.Contains(chrome1, []byte(`"ts": 0`)) || bytes.Contains(chrome1, []byte(`"ts": 1`)) {
		t.Errorf("ZeroTimes left nonzero timestamps in Chrome trace")
	}
}
