package main

import (
	"fmt"
	"math"
	"math/rand"

	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/invariant"
	"cpr/internal/synth"
)

// table2Circuits are the Table 2 circuits a pinopt-table2 run cycles
// over. top is left out: its generation and ops take seconds each and
// gave the least steady op metric.
var table2Circuits = []string{"ecc", "efc", "ctl", "alu", "div"}

// pinoptNominalCycleSeconds sizes the op sequence from -seconds: one
// pass over table2Circuits took about this long on a 2-core VM.
const pinoptNominalCycleSeconds = 1.5

// pinoptOps returns the Table 2 specs of a run and its op sequence:
// whole cycles over the circuits, each cycle in an order drawn from the
// workload seed. The circuits are the presets, generator seeds included.
// Redrawing them per workload seed was tried: LR convergence, and with
// it op time, moves by a sixth between draws of one circuit, which
// would swamp the bounds.
func pinoptOps(seed int64, seconds int) (specs []synth.Spec, order []int) {
	for _, name := range table2Circuits {
		spec, err := synth.SpecByName(name)
		if err != nil {
			panic(err) // table2Circuits names presets only
		}
		specs = append(specs, spec)
	}
	rng := rand.New(rand.NewSource(seed))
	cycles := max(1, int(math.Round(float64(seconds)/pinoptNominalCycleSeconds)))
	for i := 0; i < cycles; i++ {
		order = append(order, rng.Perm(len(specs))...)
	}
	return specs, order
}

func pinoptOptions(workers int) core.Options {
	return core.Options{Optimizer: core.OptLR, Workers: workers}
}

// pinoptSetup generates the circuits, runs the warm-up op on ecc, the
// smallest, and returns the op sequence as designs.
func pinoptSetup(cfg runConfig) ([]*design.Design, error) {
	specs, order := pinoptOps(cfg.seed, cfg.seconds)
	circuits, err := generate(specs)
	if err != nil {
		return nil, err
	}
	if _, _, err := core.OptimizePinAccess(circuits[0], pinoptOptions(cfg.workers)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ops := make([]*design.Design, len(order))
	for i, k := range order {
		ops[i] = circuits[k]
	}
	return ops, nil
}

// checkPinOpt checks one optimization off the clock: every pin has an
// interval set obeying Theorem 1 and a legal, conflict-free assignment.
func checkPinOpt(d *design.Design, rep *core.PinOptReport, seeds []core.PanelSeed) error {
	if rep.TotalPins != len(d.Pins) || len(seeds) != len(rep.Panels) {
		return fmt.Errorf("%s: %d of %d pins optimized over %d panels with %d seeds",
			d.Name, rep.TotalPins, len(d.Pins), len(rep.Panels), len(seeds))
	}
	for i, s := range seeds {
		if err := invariant.CheckIntervalSet(d, s.Set); err != nil {
			return fmt.Errorf("%s panel %d: %w", d.Name, rep.Panels[i].Panel, err)
		}
		if err := invariant.CheckAssignment(s.Set, s.Solution); err != nil {
			return fmt.Errorf("%s panel %d: %w", d.Name, rep.Panels[i].Panel, err)
		}
	}
	return nil
}

// pinoptBatch is pinopt-table2's op sequence.
func pinoptBatch(ops []*design.Design, workers int) batch {
	opts := pinoptOptions(workers)
	reports := make([]*core.PinOptReport, len(ops))
	seeds := make([][]core.PanelSeed, len(ops))
	return batch{
		n: len(ops),
		run: func(i int) (err error) {
			reports[i], seeds[i], err = core.OptimizePinAccess(ops[i], opts)
			return err
		},
		check: func(i int, _ *tally) (outcome, error) {
			rep, s := reports[i], seeds[i]
			reports[i], seeds[i] = nil, nil // checked once; keep the heap to one result
			if err := checkPinOpt(ops[i], rep, s); err != nil {
				return outcome{}, err
			}
			return outcome{pins: rep.TotalPins, objective: rep.Objective, layers: rep.Elapsed}, nil
		},
		replay: func(tr *tracer, root int, t *tally, i int) (outcome, *pinOptReplay, error) {
			po, err := replayPinOpt(tr, root, t, ops[i], workers)
			if err != nil {
				return outcome{}, nil, err
			}
			return outcome{pins: po.pins, objective: po.objective}, po, nil
		},
	}
}

func runPinOpt(cfg runConfig) (*report, error) {
	r := newReport()
	ops, err := timeSetups(r, func() ([]*design.Design, error) { return pinoptSetup(cfg) }, func([]*design.Design) {})
	if err != nil {
		return nil, err
	}
	clock, o := runBatch(r, pinoptBatch(ops, cfg.workers))
	r.setOps(clock)
	r.set("objective_per_pin", o.objective/float64(max(1, o.pins)), "obj/pin", len(ops))
	r.setOK()
	r.close()
	return r, nil
}

func tracePinOpt(cfg runConfig) (*report, error) {
	ops, err := pinoptSetup(cfg)
	if err != nil {
		return nil, err
	}
	r := newReport()
	traceBatch(r, pinoptBatch(ops, cfg.workers), "pinaccess.generate", "conflict.model", "lagrange.solve", "pipeline.key")
	return r, nil
}
