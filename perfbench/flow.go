package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/invariant"
	"cpr/internal/synth"
	"cpr/internal/verify"
)

// flowSizes are the net counts of the flow-cold designs: every round
// of the pool has one design of each size, so the median op is a
// 300-net design.
var flowSizes = []int{200, 250, 300, 350, 400}

// flowNominalOpSeconds sizes the pool from -seconds: the mean flow-cold
// op took about this long on a 2-core VM.
const flowNominalOpSeconds = 1.15

// flowSpec is a Table-2-density design of the given size: 120 grid
// cells per net at 16 panels of height, the density of the repository's
// 400-net bench circuit.
func flowSpec(nets int, seed int64) synth.Spec {
	return synth.Spec{Name: fmt.Sprintf("flow%d-%d", nets, seed), Nets: nets, Width: nets * 3 / 4, Height: 160, Seed: seed}
}

// flowOps returns the fixed op sequence of a flow-cold run and its
// warm-up design. The designs are a fixed pool, whole rounds over
// flowSizes with generator seeds 1, 2, ...; the workload seed orders
// them. It does not redraw them: between designs of one size, routing
// time varies by a quarter (negotiation takes 3 to 12 rounds), so a run
// of redrawn designs would measure the draw more than the program.
func flowOps(seed int64, seconds int) (ops []synth.Spec, warm synth.Spec) {
	rounds := max(1, int(math.Round(float64(seconds)/(flowNominalOpSeconds*float64(len(flowSizes))))))
	for i := 0; i < rounds*len(flowSizes); i++ {
		ops = append(ops, flowSpec(flowSizes[i%len(flowSizes)], int64(i+1)))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, flowSpec(300, 0)
}

// flowSpans are the span names of a replayed flow op whose summed time
// per op is a per-layer metric.
var flowSpans = []string{"grid.build", "router.partition", "pinaccess.generate", "conflict.model", "lagrange.solve", "pipeline.key"}

func flowOptions(workers int) core.Options {
	return core.Options{Mode: core.ModeCPR, Optimizer: core.OptLR, Workers: workers}
}

// flowSetup generates every design of the run and runs the warm-up op.
func flowSetup(cfg runConfig) ([]*design.Design, error) {
	ops, warm := flowOps(cfg.seed, cfg.seconds)
	designs, err := generate(ops)
	if err != nil {
		return nil, err
	}
	w, err := synth.Generate(warm)
	if err != nil {
		return nil, err
	}
	if _, err := core.Run(w, flowOptions(cfg.workers)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return designs, nil
}

func generate(specs []synth.Spec) ([]*design.Design, error) {
	designs := make([]*design.Design, len(specs))
	for i, spec := range specs {
		d, err := synth.Generate(spec)
		if err != nil {
			return nil, err
		}
		designs[i] = d
	}
	return designs, nil
}

// checkFlow checks one flow result off the clock: the routes verify
// clean against the design and every panel's assignment is legal. A
// non-nil t gets the verify.Check call's time as verify.check_ms.
func checkFlow(d *design.Design, res *core.RunResult, t *tally) error {
	g := grid.New(d)
	start := time.Now()
	rep := verify.Check(d, g, res.Router)
	if t != nil {
		t.add("verify.check_ms", ms(time.Since(start)), "ms")
	}
	if !rep.Ok() {
		return fmt.Errorf("%s: %d verify errors, first: %s", d.Name, len(rep.Errors), rep.Errors[0])
	}
	if res.Artifacts == nil || len(res.Artifacts.Panels) != len(res.PinOpt.Panels) {
		return fmt.Errorf("%s: panel artifacts missing", d.Name)
	}
	for _, a := range res.Artifacts.Panels {
		if err := invariant.CheckAssignment(a.Intervals.Set, a.Assignment.Solution); err != nil {
			return fmt.Errorf("%s panel %d: %w", d.Name, a.Panel, err)
		}
	}
	if res.Metrics.RoutedNets != res.Router.RoutedNets || res.Metrics.TotalNets != len(d.Nets) {
		return fmt.Errorf("%s: metrics disagree with the routing result", d.Name)
	}
	return nil
}

// flowBatch is flow-cold's op sequence over its designs.
func flowBatch(designs []*design.Design, workers int) batch {
	opts := flowOptions(workers)
	results := make([]*core.RunResult, len(designs))
	return batch{
		n: len(designs),
		run: func(i int) (err error) {
			results[i], err = core.Run(designs[i], opts)
			return err
		},
		check: func(i int, t *tally) (outcome, error) {
			d, res := designs[i], results[i]
			results[i] = nil // checked once; keep the heap to one result
			if err := checkFlow(d, res, t); err != nil {
				return outcome{}, err
			}
			return outcome{routed: res.Router.RoutedNets, nets: len(d.Nets), pins: res.PinOpt.TotalPins, objective: res.PinOpt.Objective,
				layers: res.PinOpt.Elapsed + res.Router.Elapsed}, nil
		},
		replay: func(tr *tracer, root int, t *tally, i int) (outcome, *pinOptReplay, error) {
			d := designs[i]
			route, po, err := replayFlow(tr, root, t, d, workers)
			if err != nil {
				return outcome{}, nil, err
			}
			return outcome{routed: route.RoutedNets, nets: len(d.Nets), pins: po.pins, objective: po.objective}, po, nil
		},
	}
}

func runFlowCold(cfg runConfig) (*report, error) {
	r := newReport()
	designs, err := timeSetups(r, func() ([]*design.Design, error) { return flowSetup(cfg) }, func([]*design.Design) {})
	if err != nil {
		return nil, err
	}
	clock, o := runBatch(r, flowBatch(designs, cfg.workers))
	r.setOps(clock)
	r.set("routed_pct", 100*float64(o.routed)/float64(max(1, o.nets)), "%", len(designs))
	r.set("objective_per_pin", o.objective/float64(max(1, o.pins)), "obj/pin", len(designs))
	r.setOK()
	r.close()
	return r, nil
}

func traceFlowCold(cfg runConfig) (*report, error) {
	designs, err := flowSetup(cfg)
	if err != nil {
		return nil, err
	}
	r := newReport()
	traceBatch(r, flowBatch(designs, cfg.workers), flowSpans...)
	return r, nil
}
