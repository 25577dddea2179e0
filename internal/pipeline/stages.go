package pipeline

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"cpr/internal/assign"
	"cpr/internal/cache"
	"cpr/internal/design"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/pinaccess"
	"cpr/internal/telemetry"
)

// SolverConfig carries the result-affecting knobs of the assignment
// stages. It deliberately excludes worker counts: the determinism
// contract of internal/parallel makes every artifact byte-identical for
// every worker count, so concurrency never reaches a content address.
//
//keypurity:options
type SolverConfig struct {
	// UseILP selects the exact branch-and-bound solver; LR otherwise.
	// An ILP run that hits its limits falls back to LR, mirroring how a
	// production flow degrades.
	UseILP bool
	// ILP configures the exact solver.
	ILP ilp.Config
	// LR configures the Lagrangian relaxation solver.
	LR lagrange.Config
	// Profit is the interval profit function; nil selects the paper's
	// assign.SqrtProfit. A non-nil function makes the config uncacheable
	// (function identity cannot be content-addressed).
	Profit assign.ProfitFn
}

// profit resolves the effective profit function.
func (c SolverConfig) profit() assign.ProfitFn {
	if c.Profit != nil {
		return c.Profit
	}
	return assign.SqrtProfit
}

// Cacheable reports whether panel artifacts produced under this config
// may be content-addressed and reused. Three things opt out:
//
//   - a custom Profit function (identity not addressable);
//   - a caller-provided LR.Stop hook (it can truncate the solve
//     non-deterministically);
//   - ILP with a wall-clock TimeLimit (the incumbent at the deadline is
//     timing-dependent, so equal keys would not imply equal artifacts).
func (c SolverConfig) Cacheable() bool {
	if c.Profit != nil || c.LR.Stop != nil {
		return false
	}
	if c.UseILP && c.ILP.TimeLimit > 0 {
		return false
	}
	return true
}

// Fingerprint renders the result-affecting solver fields into a
// canonical string, the second half of the per-panel cache key. Router
// and sequential-baseline options are deliberately absent — they cannot
// affect pin access artifacts — so a router reconfiguration still reuses
// every panel.
//
//keypurity:encoder stage
func (c SolverConfig) Fingerprint() string {
	var b strings.Builder
	opt := "lr"
	if c.UseILP {
		opt = "ilp"
	}
	fmt.Fprintf(&b, "pinopt-v1 optimizer=%s", opt)
	fmt.Fprintf(&b, " lr=%d,%g,%t,%t,%t,%t",
		c.LR.MaxIterations, c.LR.Alpha, c.LR.DisableSameNetTieBreak,
		c.LR.FullSubgradient, c.LR.SkipRefinement, c.LR.SkipPostImprove)
	fmt.Fprintf(&b, " ilp=%d,%d", c.ILP.MaxNodes, int64(c.ILP.TimeLimit))
	if c.Profit != nil {
		b.WriteString(" profit=custom")
	}
	if c.LR.Stop != nil {
		b.WriteString(" stop=custom")
	}
	if len(c.ILP.InitialSolution) > 0 {
		// A feasible warm start seeds the incumbent, so under a MaxNodes
		// cap it can change which solution the limited search returns —
		// it must reach the content address.
		b.WriteString(" warm=")
		b.WriteString(warmBits(c.ILP.InitialSolution))
	}
	return b.String()
}

// warmBits renders a warm-start vector as hex-packed bits, most
// significant bit first, so fingerprints stay short for large panels.
func warmBits(x []bool) string {
	const hexdigits = "0123456789abcdef"
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", len(x))
	nib := 0
	for i, v := range x {
		nib <<= 1
		if v {
			nib |= 1
		}
		if i%4 == 3 {
			b.WriteByte(hexdigits[nib])
			nib = 0
		}
	}
	if pad := len(x) % 4; pad != 0 {
		nib <<= 4 - pad
		b.WriteByte(hexdigits[nib])
	}
	return b.String()
}

// PanelKeyFor returns the content address of panel p's artifacts under
// the given solver fingerprint, or "" when the config is uncacheable.
func PanelKeyFor(d *design.Design, idx *design.TrackIndex, panel int, cfg SolverConfig) string {
	if !cfg.Cacheable() {
		return ""
	}
	return cache.PanelKey(PanelHash(d, idx, panel), cfg.Fingerprint())
}

// GenerateStage runs stage 1 for one panel: track-based interval
// generation over the panel's pins (paper §3.1). workers bounds the
// per-track enumeration concurrency.
func GenerateStage(d *design.Design, idx *design.TrackIndex, pinIDs []int, workers int) (*IntervalSet, error) {
	set, err := pinaccess.GenerateWithOptions(d, idx, pinIDs, pinaccess.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &IntervalSet{Set: set}, nil
}

// ConflictStage runs stage 2: the per-track conflict sweep plus profit
// evaluation, producing the assignment model (paper §3.2).
func ConflictStage(s *IntervalSet, cfg SolverConfig, workers int) *ConflictModel {
	return &ConflictModel{Model: assign.BuildWorkers(s.Set, cfg.profit(), workers)}
}

// AssignStage runs stage 3: weighted interval assignment with the
// configured solver, legality-checked (paper §3.3/§3.4). ctx cancels
// between LR subgradient iterations; a context that never fires leaves
// the artifact byte-identical to an uncancellable run.
//
// When the context carries a telemetry span, the LR solver's
// per-iteration convergence series (conflicts remaining, best-so-far,
// primal profit, dual value) is recorded onto it, so an ablation-style
// convergence plot can be regenerated from any trace. The recording is
// read-only: solver results are byte-identical with tracing on or off.
func AssignStage(ctx context.Context, m *ConflictModel, cfg SolverConfig) (*Assignment, error) {
	model := m.Model
	sp := telemetry.SpanFrom(ctx)
	if cfg.UseILP {
		sol, res, err := model.SolveILP(cfg.ILP)
		if err == nil {
			if err := model.CheckLegal(sol); err != nil {
				return nil, fmt.Errorf("pipeline: illegal ILP assignment: %w", err)
			}
			sp.SetAttr("solver", "ilp")
			sp.SetAttr("ilp_nodes", res.Nodes)
			sp.SetAttr("converged", res.Status == ilp.Optimal)
			return &Assignment{Solution: sol, Converged: res.Status == ilp.Optimal}, nil
		}
		// Fall through to LR on solver limits.
		sp.SetAttr("ilp_fallback", err.Error())
	}
	lrCfg := cfg.LR
	if lrCfg.Stop == nil && ctx.Done() != nil {
		lrCfg.Stop = func() bool { return ctx.Err() != nil }
	}
	var series []lagrange.IterationStat
	em := telemetry.EmitterFrom(ctx)
	if (sp != nil || em != nil) && lrCfg.Observer == nil {
		lrCfg.Observer = func(st lagrange.IterationStat) {
			if sp != nil {
				series = append(series, st)
			}
			em.Emit("lr_iteration", map[string]any{
				"iter":            st.Iteration,
				"violations":      st.Violations,
				"best_violations": st.BestViolations,
				"profit":          st.SelectedProfit,
				"dual":            st.DualValue,
			})
		}
	}
	res := lagrange.Solve(model, lrCfg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := model.CheckLegal(res.Solution); err != nil {
		return nil, fmt.Errorf("pipeline: illegal assignment: %w", err)
	}
	sp.SetAttr("solver", "lr")
	sp.SetAttr("lr_iterations", res.Iterations)
	sp.SetAttr("converged", res.Converged)
	if series != nil {
		sp.SetAttr("lr_series", series)
	}
	return &Assignment{Solution: res.Solution, Converged: res.Converged}, nil
}

// SolvePanel runs the three stages over panel p's pins end to end and
// bundles the result as a PanelArtifact under key, which must be
// PanelKeyFor(d, idx, panel, cfg): callers compute it first for their
// cache lookups. When the context carries a telemetry tracer/registry
// each stage gets a child span and a cpr_stage_seconds observation; with
// neither present the overhead is a few nil checks.
//
//keypurity:entry stage
func SolvePanel(ctx context.Context, d *design.Design, idx *design.TrackIndex, panel int, key string, cfg SolverConfig, workers int) (*PanelArtifact, error) {
	pinIDs := idx.PinsInPanel(panel)
	reg := telemetry.RegistryFrom(ctx)
	observe := func(stage string, start time.Time) {
		elapsed := time.Since(start) //cprlint:keypurity stage-latency metric only; never reaches the artifact or its key
		reg.Histogram("cpr_stage_seconds", "Wall-clock time per pipeline stage.",
			telemetry.DefSecondsBuckets, telemetry.L("stage", stage)).
			Observe(elapsed.Seconds())
	}

	_, genSpan := telemetry.StartSpan(ctx, "generate")
	genStart := time.Now() //cprlint:keypurity stage-latency metric only; never reaches the artifact or its key
	set, err := GenerateStage(d, idx, pinIDs, workers)
	if err != nil {
		genSpan.End()
		return nil, err
	}
	if genSpan != nil { // boxing an attribute allocates, even for a nil span
		genSpan.SetAttr("pins", len(pinIDs))
		genSpan.SetAttr("intervals", len(set.Set.Intervals))
	}
	genSpan.End()
	observe("generate", genStart)

	// The model dies with the panel, so it is rebuilt in place in a
	// pooled one (ConflictStage's result, reusing storage) and returned
	// to the pool holding no reference to the set.
	_, confSpan := telemetry.StartSpan(ctx, "conflicts")
	confStart := time.Now() //cprlint:keypurity stage-latency metric only; never reaches the artifact or its key
	model := modelPool.Get().(*ConflictModel)
	defer func() {
		model.Model.Set = nil
		modelPool.Put(model)
	}()
	model.Model.Rebuild(set.Set, cfg.profit(), workers)
	numConflicts := len(model.Model.Conflicts.Sets)
	if confSpan != nil {
		confSpan.SetAttr("conflict_sets", numConflicts)
	}
	confSpan.End()
	observe("conflicts", confStart)

	assignCtx, assignSpan := telemetry.StartSpan(ctx, "assign")
	assignStart := time.Now() //cprlint:keypurity stage-latency metric only; never reaches the artifact or its key
	sol, err := AssignStage(assignCtx, model, cfg)
	assignSpan.End()
	if err != nil {
		return nil, err
	}
	observe("assign", assignStart)

	return &PanelArtifact{
		Panel:        panel,
		Key:          key,
		Intervals:    set,
		Assignment:   sol,
		NumConflicts: numConflicts,
	}, nil
}

// modelPool recycles SolvePanel's conflict models. Every Solution the
// assignment stage returns is freshly allocated, so no artifact aliases
// a pooled model.
var modelPool = sync.Pool{New: func() any { return &ConflictModel{Model: new(assign.Model)} }}
