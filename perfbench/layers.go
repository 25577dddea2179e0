package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/lagrange"
	"cpr/internal/parallel"
	"cpr/internal/pipeline"
	"cpr/internal/router"
)

// tally sums per-op work counts of a traced run; each is reported as
// its mean per op.
type tally struct {
	ops   int
	sums  map[string]float64
	units map[string]string
}

func newTally() *tally { return &tally{sums: map[string]float64{}, units: map[string]string{}} }

func (t *tally) add(name string, v float64, unit string) {
	t.sums[name] += v
	t.units[name] = unit
}

// report writes every count as its mean per op, and every span name in
// spans as its summed duration per op in milliseconds.
func (t *tally) report(r *report, tr *tracer, spans ...string) {
	n := float64(t.ops)
	for name, v := range t.sums {
		r.set(name, v/n, t.units[name], t.ops)
	}
	for _, name := range spans {
		r.set(name+"_ms", ms(tr.total(name))/n, "ms", t.ops)
	}
}

// panelSplit divides the worker budget between the panel pool (outer)
// and each panel's stages (inner) the way core does, so the replay runs
// with core's concurrency.
func panelSplit(workers, panels int) (outer, inner int) {
	if panels < 1 {
		return 0, 1
	}
	outer = min(workers, panels)
	return outer, max(1, workers/outer)
}

// pinOptReplay is the outcome of one replayed pin access optimization.
type pinOptReplay struct {
	seeds     []core.PanelSeed
	objective float64
	pins      int
	// busy is the summed time of the per-panel stage calls; wall is the
	// whole optimization's.
	busy, wall time.Duration
	workers    int
}

// stagePhase runs one pipeline stage over every panel on the panel pool,
// inside a span named after the stage, with one child span per panel
// call, and returns the summed time of the panel calls. Each stage
// finishes on every panel before the next begins, so a stage's
// allocations are counted apart from the other stages'.
func stagePhase(tr *tracer, parent int, t *tally, name string, outer, panels int, fn func(slot int) error) (time.Duration, error) {
	errs := make([]error, panels)
	spans := make([]int, panels)
	before := markHeap()
	id := tr.begin(name, parent)
	parallel.ForEach(outer, panels, func(slot int) {
		spans[slot] = tr.begin("pinopt.panel", id)
		errs[slot] = fn(slot)
		tr.finish(spans[slot])
	})
	tr.finish(id)
	if layer, _, ok := strings.Cut(name, "."); ok && layer != "pipeline" {
		t.add(layer+".allocs", float64(markHeap().since(before).allocs), "count")
	}
	var busy time.Duration
	for slot, sp := range spans {
		if errs[slot] != nil {
			return 0, fmt.Errorf("%s: %w", name, errs[slot])
		}
		busy += tr.duration(sp)
	}
	return busy, nil
}

// replayPinOpt runs core's panel pipeline as calls to the pipeline's
// stage functions and lagrange.Solve, one stage at a time across the
// panel pool. Inputs and solver settings are those of core.Run and
// core.OptimizePinAccess with default options, so the seeds and the
// objective equal theirs.
func replayPinOpt(tr *tracer, parent int, t *tally, d *design.Design, workers int) (*pinOptReplay, error) {
	id := tr.begin("pinopt", parent)
	out, err := solvePanels(tr, id, t, d, workers)
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	out.wall = tr.duration(id)
	return out, nil
}

func solvePanels(tr *tracer, parent int, t *tally, d *design.Design, workers int) (*pinOptReplay, error) {
	cfg := pipeline.SolverConfig{}
	idx := d.BuildTrackIndex()
	var panels []int
	for p := 0; p < d.NumPanels(); p++ {
		if len(d.PinsInPanel(p)) > 0 {
			panels = append(panels, p)
		}
	}
	n := len(panels)
	outer, inner := panelSplit(workers, n)
	keys := make([]string, n)
	sets := make([]*pipeline.IntervalSet, n)
	models := make([]*pipeline.ConflictModel, n)
	sols := make([]lagrange.Result, n)
	stages := []struct {
		name string
		fn   func(slot int) error
	}{
		{"pipeline.key", func(i int) error {
			if keys[i] = pipeline.PanelKeyFor(d, idx, panels[i], cfg); keys[i] == "" {
				return fmt.Errorf("panel %d: empty content key", panels[i])
			}
			return nil
		}},
		{"pinaccess.generate", func(i int) (err error) {
			sets[i], err = pipeline.GenerateStage(d, idx, d.PinsInPanel(panels[i]), inner)
			return err
		}},
		{"conflict.model", func(i int) error {
			models[i] = pipeline.ConflictStage(sets[i], cfg, inner)
			return nil
		}},
		{"lagrange.solve", func(i int) error {
			sols[i] = lagrange.Solve(models[i].Model, lagrange.Config{Workers: inner})
			return models[i].Model.CheckLegal(sols[i].Solution)
		}},
	}
	out := &pinOptReplay{workers: workers}
	for _, st := range stages {
		busy, err := stagePhase(tr, parent, t, st.name, outer, n, st.fn)
		if err != nil {
			return nil, err
		}
		out.busy += busy
	}
	converged := 0
	for i := range panels {
		out.seeds = append(out.seeds, core.PanelSeed{Set: sets[i].Set, Solution: sols[i].Solution})
		out.objective += sols[i].Solution.Objective
		out.pins += len(sets[i].Set.PinIDs)
		t.add("pinaccess.intervals", float64(len(sets[i].Set.Intervals)), "count")
		t.add("conflict.sets", float64(len(models[i].Model.Conflicts.Sets)), "count")
		t.add("lagrange.iterations", float64(sols[i].Iterations), "count")
		if sols[i].Converged {
			converged++
		}
	}
	t.add("lagrange.converged_pct", 100*float64(converged)/float64(max(1, n)), "%")
	return out, nil
}

// replayFlow runs core.Run's cold ModeCPR flow as calls into grid,
// pipeline, lagrange and router, recording each as a span under parent.
func replayFlow(tr *tracer, parent int, t *tally, d *design.Design, workers int) (*router.Result, *pinOptReplay, error) {
	var g *grid.Graph
	tr.call("grid.build", parent, func() { g = grid.New(d) })
	r := router.New(d, g, router.Config{Workers: workers})
	po, err := replayPinOpt(tr, parent, t, d, workers)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range po.seeds {
		r.SeedAssignment(s.Set, s.Solution)
	}
	var plan *router.Plan
	tr.call("router.partition", parent, func() { plan = r.Partition() })
	var res *router.Result
	before := markHeap()
	tr.call("router.route", parent, func() {
		res = r.RunPlan(context.Background(), plan, router.RunOpts{Workers: workers})
	})
	used := markHeap().since(before)
	var arts []*pipeline.RouteArtifact
	tr.call("pipeline.key", parent, func() { arts = pipeline.BuildRouteArtifacts(d, r, plan, res, true) })
	for _, a := range arts {
		if a.Key == "" {
			return nil, nil, fmt.Errorf("region %d: empty route key", a.Region)
		}
	}

	t.add("router.allocs", float64(used.allocs), "count")
	t.add("router.alloc_mb", float64(used.bytes)/(1<<20), "MB")
	t.add("router.regions", float64(res.Regions), "count")
	t.add("router.rounds", float64(res.NegotiationIters), "count")
	t.add("router.initial_congested", float64(res.InitialCongested), "count")
	t.add("router.unrouted_congestion", float64(res.CongestionUnrouted), "count")
	t.add("router.unrouted_drc", float64(res.DRCUnrouted), "count")
	t.add("router.routed_pct", 100*float64(res.RoutedNets)/float64(max(1, len(d.Nets))), "%")
	for i, name := range []string{"independent", "negotiate", "congestion", "drc"} {
		t.add("router."+name+"_ms", ms(res.StageElapsed[i]), "ms")
	}
	return res, po, nil
}
