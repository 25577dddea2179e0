// Package core wires the full concurrent pin access router (CPR) pipeline
// together (paper §4): panel-by-panel pin access interval generation,
// conflict detection, weighted interval assignment (exact ILP or scalable
// Lagrangian relaxation), interval seeding as partial routes, and
// negotiation-congestion routing with SADP line-end rules.
//
// The optimization half is expressed as explicit per-panel stages over
// internal/pipeline artifacts, each content-addressed by a per-panel key.
// That staging is what enables incremental (ECO-style) re-optimization.
// The stages look for reusable artifacts in one place only, the run's
// caches (Options.PanelCache and Options.RouteCache): a long-running
// service passes its own to harvest reuse across independent
// submissions, and Rerun seeds them with a previous result's artifacts,
// so only the panels and regions an edit dirtied are recomputed. A
// spliced run is byte-identical to a cold full run of the edited
// design, for every worker count.
//
// It also runs the paper's two baselines on the same substrate: the
// negotiation router without pin access optimization ([21]) and the
// sequential pin-access-planning router ([12]).
package core

import (
	"context"
	"fmt"
	"time"

	"cpr/internal/assign"
	"cpr/internal/cache"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/metrics"
	"cpr/internal/parallel"
	"cpr/internal/pinaccess"
	"cpr/internal/pipeline"
	"cpr/internal/router"
	"cpr/internal/tech"
	"cpr/internal/telemetry"
)

// Mode selects the routing flow.
type Mode int

const (
	// ModeCPR is the paper's contribution: concurrent pin access
	// optimization followed by negotiation routing.
	ModeCPR Mode = iota
	// ModeNoPinOpt is the [21] baseline: negotiation routing with other
	// nets' pins as blockages but no interval optimization.
	ModeNoPinOpt
	// ModeSequential is the [12] baseline: sequential pin access planning
	// and routing with net deferring.
	ModeSequential
)

func (m Mode) String() string {
	switch m {
	case ModeCPR:
		return "cpr"
	case ModeNoPinOpt:
		return "no-pinopt"
	default:
		return "sequential"
	}
}

// ParseMode parses "cpr", "nopinopt" or "sequential", the spelling of
// the -mode flag and the wire's mode option; "" means ModeCPR.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "cpr":
		return ModeCPR, nil
	case "nopinopt":
		return ModeNoPinOpt, nil
	case "sequential":
		return ModeSequential, nil
	default:
		return ModeCPR, fmt.Errorf("unknown mode %q (want cpr, nopinopt, sequential)", s)
	}
}

// RerunMode selects how much of a previous run an incremental Rerun may
// reuse for routing (pin access artifacts are always spliced by content
// key — that reuse is exact by construction).
type RerunMode int

const (
	// RerunStrict (default) reuses routing only where it is provably
	// byte-identical: whole regions whose route content keys are
	// unchanged are spliced verbatim, everything else is re-routed cold.
	// The result is byte-identical to a cold run of the edited design.
	RerunStrict RerunMode = iota
	// RerunEcoFast additionally warm-starts surviving nets of dirtied
	// regions from their previous routes, so negotiation converges on the
	// residual set only. The result may diverge from a cold run, in route
	// bytes and in which nets get routed. It is checked DRC-clean
	// (internal/verify.Check) at runtime; a rerun that fails the check
	// falls back to a cold re-route automatically.
	RerunEcoFast
)

func (m RerunMode) String() string {
	if m == RerunEcoFast {
		return "eco-fast"
	}
	return "strict"
}

// ParseRerunMode parses "strict" or "eco-fast".
func ParseRerunMode(s string) (RerunMode, error) {
	switch s {
	case "", "strict":
		return RerunStrict, nil
	case "eco-fast":
		return RerunEcoFast, nil
	default:
		return RerunStrict, fmt.Errorf("unknown rerun mode %q (want strict or eco-fast)", s)
	}
}

// Optimizer selects the interval assignment solver for ModeCPR.
type Optimizer int

const (
	// OptLR is the scalable Lagrangian relaxation algorithm (default).
	OptLR Optimizer = iota
	// OptILP is the exact branch-and-bound ILP.
	OptILP
)

func (o Optimizer) String() string {
	if o == OptILP {
		return "ilp"
	}
	return "lr"
}

// ParseOptimizer parses "lr" or "ilp"; "" means OptLR.
func ParseOptimizer(s string) (Optimizer, error) {
	switch s {
	case "", "lr":
		return OptLR, nil
	case "ilp":
		return OptILP, nil
	default:
		return OptLR, fmt.Errorf("unknown optimizer %q (want lr, ilp)", s)
	}
}

// PanelCache is a panel-level artifact store the optimization pipeline
// consults before solving a panel and updates after; it is the only
// place the pipeline looks for a reusable panel. Entries are
// content-addressed (pipeline.PanelKeyFor), so a cache can never change
// a result — only skip recomputation. Contains reports presence without
// counting a lookup; Rerun probes with it before seeding a base
// result's artifacts. A *cache.Cache[*pipeline.PanelArtifact] satisfies
// the interface.
type PanelCache interface {
	Get(key string) (*pipeline.PanelArtifact, bool)
	Put(key string, a *pipeline.PanelArtifact)
	Contains(key string) bool
}

// RouteCache is a region-level route artifact store the routing stage
// consults before routing a region and updates after; it is the only
// place the routing stage looks for a region to splice. Entries are
// content-addressed (pipeline.RouteKeyFor) — equal keys address
// byte-identical route bundles — so a cache can never change a result,
// only skip re-routing. Contains is as for PanelCache. A
// *cache.Cache[*pipeline.RouteArtifact] satisfies the interface.
type RouteCache interface {
	Get(key string) (*pipeline.RouteArtifact, bool)
	Put(key string, a *pipeline.RouteArtifact)
	Contains(key string) bool
}

// Options configures a run. Zero values give the paper's defaults
// (ModeCPR with LR optimization).
//
//keypurity:options
type Options struct {
	Mode       Mode
	Optimizer  Optimizer
	LR         lagrange.Config
	ILP        ilp.Config
	Router     router.Config
	Sequential router.SequentialConfig
	// Profit is the interval profit function (default assign.SqrtProfit).
	// With more than one worker it must be safe for concurrent calls (the
	// built-in profit functions are pure). A custom function makes panel
	// artifacts uncacheable (function identity cannot be
	// content-addressed), so Rerun and PanelCache degrade to full
	// recomputation.
	Profit assign.ProfitFn
	// Workers bounds the concurrency of the whole optimization pipeline:
	// panel subproblems run on a shared pool, and spare capacity flows
	// into the per-track interval generation and the per-track conflict
	// sweeps of each panel. 0 selects runtime.GOMAXPROCS(0); 1 forces the
	// fully sequential path. The determinism contract of internal/parallel
	// guarantees byte-identical results — metrics, selected intervals,
	// and routes — for every value (only wall-clock fields such as
	// Metrics.CPUSeconds and PinOptReport.Elapsed vary).
	//
	//keypurity:exempt pipeline parallelism; the internal/parallel determinism contract makes results byte-identical for every worker count
	Workers int
	// PanelCache, when non-nil, is consulted for per-panel artifacts
	// before each panel is solved and updated with recomputed ones.
	// Content addressing makes it invisible in results (it never affects
	// bytes, only wall clock), so it is excluded from cache-key
	// fingerprints, like Workers.
	//
	//keypurity:exempt content-addressed artifact store; equal keys address byte-identical artifacts, so a cache can only skip recomputation
	PanelCache PanelCache
	// RouteCache, when non-nil, is consulted for per-region route bundles
	// before each region is routed and updated with recomputed ones.
	// Content-addressed like PanelCache, and equally invisible in
	// results.
	//
	//keypurity:exempt content-addressed artifact store; equal keys address byte-identical artifacts, so a cache can only skip recomputation
	RouteCache RouteCache
	// RerunMode selects the routing reuse contract of Rerun: RerunStrict
	// (default, byte-identical) or RerunEcoFast (checked DRC-clean only;
	// its routed nets may differ from a cold run). Ignored on cold runs,
	// which have nothing to reuse.
	//
	//keypurity:exempt reuse-contract selector for Rerun only; eco-fast results are never design-cached (jobs.Submit refuses the key) and cold runs ignore it
	RerunMode RerunMode
	// RuleEngine, when non-empty, overrides the design technology's
	// multi-patterning rule engine ("sadp", "lele", or "tpl") for this
	// run. The run operates on a shallow clone of the design carrying
	// the renamed engine, so the caller's design is untouched; a name
	// matching the design's effective engine is a no-op (keeping content
	// addresses stable). Unknown names fail the run closed. The
	// selection reaches every cache key: the effective engine lands in
	// the designio encoding, the panel/route input encodings, and
	// jobs.Fingerprint.
	RuleEngine string
}

// workers resolves the effective worker count for a run.
func (o Options) workers() int {
	return parallel.Resolve(o.Workers)
}

// solverConfig maps the pin-opt-affecting options onto the pipeline's
// solver configuration.
func solverConfig(o Options) pipeline.SolverConfig {
	return pipeline.SolverConfig{
		UseILP: o.Optimizer == OptILP,
		ILP:    o.ILP,
		LR:     o.LR,
		Profit: o.Profit,
	}
}

// SolverConfig exposes the exact Options -> pipeline.SolverConfig mapping
// a run uses, so external cache keying (jobs.Fingerprint) is derived from
// the same fields the pipeline actually consumes and the two can never
// drift apart.
func (o Options) SolverConfig() pipeline.SolverConfig { return solverConfig(o) }

// panelWorkerSplit divides the worker budget between the panel shard
// (outer) and each panel's internal stages (inner) so total concurrency
// never exceeds the budget: outer <= min(workers, panels) and
// outer*inner <= workers. The previous ceil-based split could run up to
// panels*ceil(workers/panels) > workers goroutines when
// 1 < panels < workers.
func panelWorkerSplit(workers, panels int) (outer, inner int) {
	if workers < 1 {
		workers = 1
	}
	if panels < 1 {
		return 0, 1
	}
	outer = workers
	if outer > panels {
		outer = panels
	}
	inner = workers / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// PanelReport records pin access optimization results for one panel.
type PanelReport struct {
	Panel      int
	Pins       int
	Intervals  int
	Conflicts  int
	Objective  float64
	Violations int
	Converged  bool
}

// PinOptReport aggregates pin access optimization over all panels.
type PinOptReport struct {
	Panels         []PanelReport
	TotalPins      int
	TotalIntervals int
	TotalConflicts int
	Objective      float64
	Elapsed        time.Duration
}

// IncrementalStats reports how much of a run was spliced from reuse. It
// is provenance, not result: two runs that differ only in these fields
// (and wall-clock ones) are byte-identical in every output.
type IncrementalStats struct {
	// Panels is the number of non-empty panels in the run.
	Panels int
	// Reused is the number of panels the panel cache answered (Rerun
	// seeds it with its base result's artifacts).
	Reused int
	// Recomputed lists the recomputed (dirty) panel indices, ascending.
	Recomputed []int

	// Regions is the number of independent routing regions of the run.
	Regions int
	// RegionsSpliced counts regions whose route bundles were spliced
	// verbatim (unchanged content keys).
	RegionsSpliced int
	// NetsSpliced counts nets inside spliced regions.
	NetsSpliced int
	// NetsWarm counts nets warm-started from previous routes (eco-fast).
	NetsWarm int
	// NetsRerouted counts nets routed from scratch.
	NetsRerouted int
}

// RunResult is the complete outcome of a flow run. A returned result is
// read-only: caches, job records and later reruns share it, and its
// route artifacts (Artifacts.Routes) reference the same NetRoute values
// as Router.Routes. Code that needs to edit a route copies it first, as
// Rerun's splicing and eco-fast warm-starting do.
type RunResult struct {
	Mode    Mode
	PinOpt  *PinOptReport // nil for baseline modes
	Router  *router.Result
	Metrics metrics.Routing
	// Artifacts retains the per-panel pipeline artifacts of a cacheable
	// ModeCPR run, so the result can serve as the baseline of a Rerun.
	// Nil for baseline modes and uncacheable configurations.
	Artifacts *pipeline.ArtifactSet
	// Incremental is set when the run had a panel or route cache (Rerun
	// supplies them when the caller passes none); nil on plain cold
	// runs.
	Incremental *IncrementalStats
}

// Run executes the selected flow on a validated design. It is the
// background-context wrapper around RunContext.
func Run(d *design.Design, opts Options) (*RunResult, error) {
	return RunContext(context.Background(), d, opts)
}

// RunContext executes the selected flow on a validated design,
// honouring ctx for cancellation: the context is polled between panel
// subproblems, between LR subgradient iterations, and between pipeline
// stages, so a canceled or timed-out run stops doing work promptly and
// returns an error wrapping ctx.Err(). A context that never fires
// leaves the computation byte-identical to Run.
//
//keypurity:entry design
func RunContext(ctx context.Context, d *design.Design, opts Options) (*RunResult, error) {
	return runFlow(ctx, d, opts, nil)
}

// Rerun is the incremental (ECO) entry point: it re-optimizes an edited
// design against a previous run's result, recomputing only the panels
// whose content keys changed and splicing the previous artifacts for the
// rest. Dirtying is conservative and correctness-first — a panel is
// recomputed whenever any input that can affect it changed: its own
// pins, the merged M2 blockage spans on its tracks, the bounding box of
// any net it touches (so an edit in one panel dirties every panel that
// net reaches), the grid, the technology, or the solver options.
//
// The hard invariant: the returned result is byte-identical — designio
// encoding, routes, reports, metrics (wall-clock fields aside) — to a
// cold RunContext of the edited design, for every worker count. When
// nothing is reusable (nil prev, baseline modes, changed solver options,
// uncacheable configurations) Rerun degrades to exactly that cold run.
func Rerun(prev *RunResult, edited *design.Design, opts Options) (*RunResult, error) {
	return RerunContext(context.Background(), prev, edited, opts)
}

// RerunContext is Rerun with cancellation (see RunContext). It puts
// prev's keyed panel and route artifacts into opts.PanelCache and
// opts.RouteCache, creating a plain level for each the caller left nil,
// and the stages then splice whatever those caches answer. The keys
// carry the solver and router fingerprints, so an artifact produced
// under other options is never looked up.
//
//keypurity:entry design
func RerunContext(ctx context.Context, prev *RunResult, edited *design.Design, opts Options) (*RunResult, error) {
	var warm map[string]*router.NetRoute
	if prev != nil && prev.Artifacts != nil && opts.Mode == ModeCPR {
		seedCaches(&opts, prev.Artifacts, edited)
		if opts.RerunMode == RerunEcoFast {
			warm = prev.Artifacts.WarmIndex()
		}
	}
	return runFlow(ctx, edited, opts, warm)
}

// seedCaches puts a base result's keyed artifacts into the run's caches.
// An artifact a cache already holds is not put again, so a block-backed
// level never re-encodes or re-writes a block it has. A level Rerun
// creates itself is sized so that the run never evicts from it: the
// base's artifacts, plus at most one artifact per non-empty panel (each
// holds a pin) and per region (each holds a net) of the edited design.
func seedCaches(opts *Options, arts *pipeline.ArtifactSet, edited *design.Design) {
	if opts.PanelCache == nil {
		opts.PanelCache = cache.New[*pipeline.PanelArtifact](len(arts.Panels) + len(edited.Pins))
	}
	if opts.RouteCache == nil {
		opts.RouteCache = cache.New[*pipeline.RouteArtifact](len(arts.Routes) + len(edited.Nets))
	}
	for _, a := range arts.Panels {
		if a.Key != "" && !opts.PanelCache.Contains(a.Key) {
			opts.PanelCache.Put(a.Key, a)
		}
	}
	for _, a := range arts.Routes {
		if a.Key != "" && !opts.RouteCache.Contains(a.Key) {
			opts.RouteCache.Put(a.Key, a)
		}
	}
}

// runFlow executes the selected flow. The stages reuse what
// opts.PanelCache and opts.RouteCache answer; warm, set only by eco-fast
// reruns, indexes the base's routes for warm-starting (see
// routeIncremental). A telemetry tracer/registry in ctx records the
// run/pinopt/route span tree and stage metrics; telemetry is strictly
// observational (§4e), so results are byte-identical with it on or off.
func runFlow(ctx context.Context, d *design.Design, opts Options, warm map[string]*router.NetRoute) (*RunResult, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d, err := applyRuleEngine(d, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := opts.Router.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := opts.LR.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	reg := telemetry.RegistryFrom(ctx)
	ctx, runSpan := telemetry.StartSpan(ctx, "run")
	defer runSpan.End()
	runSpan.SetAttr("mode", opts.Mode.String())
	runSpan.SetAttr("nets", len(d.Nets))
	runSpan.SetAttr("pins", len(d.Pins))
	reg.Counter("cpr_runs_total", "Completed flow runs by mode.",
		telemetry.L("mode", opts.Mode.String())).Inc()

	g := grid.New(d)
	rcfg := opts.Router
	if rcfg.Workers == 0 {
		rcfg.Workers = opts.workers()
	}
	r := router.New(d, g, rcfg)
	res := &RunResult{Mode: opts.Mode}

	switch opts.Mode {
	case ModeCPR:
		report, seeds, arts, inc, err := optimizePanels(ctx, d, opts, true)
		if err != nil {
			return nil, err
		}
		res.PinOpt = report
		res.Artifacts = arts
		res.Incremental = inc
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		for _, s := range seeds {
			r.SeedAssignment(s.Set, s.Solution)
		}
		res.Router = routeIncremental(ctx, d, g, opts, r, seeds, warm, res)
	case ModeNoPinOpt:
		res.Router = runRouter(ctx, r, res)
	case ModeSequential:
		res.Router = r.RunSequential(opts.Sequential)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", opts.Mode)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	res.Metrics = metrics.FromResult(d, res.Router)
	if res.PinOpt != nil {
		res.Metrics.CPUSeconds += res.PinOpt.Elapsed.Seconds()
		res.Metrics.OptimizeSeconds = res.PinOpt.Elapsed.Seconds()
	}
	runSpan.SetAttr("routed_nets", res.Router.RoutedNets)
	return res, nil
}

// applyRuleEngine applies Options.RuleEngine to a validated design. A
// selection equal to the design's effective engine returns the design
// unchanged — in particular, "sadp" on a zero-patterning design stays
// byte-identical, so content addresses do not shift. A differing
// selection returns a shallow clone with a cloned technology; the
// caller's design is never mutated.
func applyRuleEngine(d *design.Design, opts Options) (*design.Design, error) {
	if opts.RuleEngine == "" {
		return d, nil
	}
	name, err := tech.ParseEngine(opts.RuleEngine)
	if err != nil {
		return nil, err
	}
	cur, err := tech.ParseEngine(d.Tech.Patterning.Engine)
	if err != nil {
		// Unreachable on a validated design; fail closed regardless.
		return nil, err
	}
	if cur == name {
		return d, nil
	}
	clone := *d
	t := *d.Tech
	t.Patterning.Engine = name
	clone.Tech = &t
	return &clone, nil
}

// runRouter wraps the negotiation router in a "route" span and records
// its stage durations (reusing the router's own suppressed wall-clock
// measurements — no new clock reads in this determinism-restricted
// package).
func runRouter(ctx context.Context, r *router.Router, res *RunResult) *router.Result {
	rctx, span := telemetry.StartSpan(ctx, "route")
	rres := r.RunCtx(rctx)
	span.SetAttr("routed_nets", rres.RoutedNets)
	span.SetAttr("vias", rres.Vias)
	span.SetAttr("wirelength", rres.Wirelength)
	span.SetAttr("negotiation_iters", rres.NegotiationIters)
	span.End()
	if reg := telemetry.RegistryFrom(ctx); reg != nil {
		reg.Histogram("cpr_stage_seconds", "Wall-clock time per pipeline stage.",
			telemetry.DefSecondsBuckets, telemetry.L("stage", "route")).
			Observe(rres.Elapsed.Seconds())
	}
	return rres
}

// PanelSeed couples one panel's interval set with its assignment for
// router seeding.
type PanelSeed struct {
	Set      *pinaccess.Set
	Solution *assign.Solution
}

// OptimizePinAccess runs concurrent pin access optimization on every
// panel of the design with the configured optimizer and returns the
// per-panel reports plus the seeds for the router. Panels are independent
// subproblems solved concurrently on opts.Workers workers (default
// GOMAXPROCS) with byte-identical results for every worker count.
func OptimizePinAccess(d *design.Design, opts Options) (*PinOptReport, []PanelSeed, error) {
	return OptimizePinAccessContext(context.Background(), d, opts)
}

// OptimizePinAccessContext is OptimizePinAccess with cancellation: ctx is
// checked before each panel subproblem starts and between the LR
// subgradient iterations inside each panel, so a canceled run abandons
// remaining work and reports an error wrapping ctx.Err().
//
//keypurity:entry design
func OptimizePinAccessContext(ctx context.Context, d *design.Design, opts Options) (*PinOptReport, []PanelSeed, error) {
	if err := opts.LR.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	report, seeds, _, _, err := optimizePanels(ctx, d, opts, false)
	return report, seeds, err
}

// optimizePanels runs the staged pipeline (generate → conflicts →
// assign) over every non-empty panel, reusing what opts.PanelCache
// answers. The ordered per-slot reduce keeps report and seed order
// byte-identical for every worker count and any mix of reused and
// recomputed panels. A panel is keyed only when its key is read: by
// opts.PanelCache, or in the ArtifactSet returned when withArtifacts is
// set and the config is cacheable.
func optimizePanels(ctx context.Context, d *design.Design, opts Options, withArtifacts bool) (*PinOptReport, []PanelSeed, *pipeline.ArtifactSet, *IncrementalStats, error) {
	start := time.Now() //cprlint:nondeterm wall-clock Elapsed metric only; never reaches the routing result
	idx := d.BuildTrackIndex()
	cfg := solverConfig(opts)
	keyed := cfg.Cacheable() && (withArtifacts || opts.PanelCache != nil)
	var fingerprint string
	if keyed {
		fingerprint = cfg.Fingerprint()
	}

	var panels []int
	for panel := 0; panel < d.NumPanels(); panel++ {
		if len(idx.PinsInPanel(panel)) > 0 {
			panels = append(panels, panel)
		}
	}

	// Panels are the outer shard; when there are fewer panels than
	// workers, the leftover budget flows into each panel's per-track
	// stages, capped so total concurrency never exceeds the worker
	// budget.
	outer, inner := panelWorkerSplit(opts.workers(), len(panels))

	reg := telemetry.RegistryFrom(ctx)
	ctx, poSpan := telemetry.StartSpan(ctx, "pinopt")
	poSpan.SetAttr("panels", len(panels))
	poSpan.SetAttr("outer_workers", outer)
	poSpan.SetAttr("inner_workers", inner)

	type outcome struct {
		art    *pipeline.PanelArtifact
		reused bool
		err    error
	}
	results := make([]outcome, len(panels))
	solve := func(slot, panel int) {
		// Lanes are keyed by slot, not scheduling order, so the trace
		// layout is deterministic for every worker count. Attributes wait
		// for a span: boxing one allocates even for a nil span.
		pctx, sp := telemetry.StartSpan(ctx, "panel")
		defer sp.End()
		sp.SetLane(slot + 1)
		if sp != nil {
			sp.SetAttr("panel", panel)
		}
		if err := ctx.Err(); err != nil {
			results[slot].err = fmt.Errorf("core: panel %d: %w", panel, err)
			return
		}
		var key string
		if keyed {
			key = pipeline.PanelKeyWith(d, idx, panel, fingerprint)
			if sp != nil {
				sp.SetAttr("key", key)
			}
			if opts.PanelCache != nil {
				if art, ok := panelCacheGet(pctx, opts.PanelCache, key); ok {
					results[slot] = outcome{art: art, reused: true}
					if sp != nil {
						sp.SetAttr("reused", true)
						sp.SetAttr("source", "cache")
					}
					reg.Counter("cpr_panels_total", "Panels processed by artifact source.",
						telemetry.L("source", "cache")).Inc()
					return
				}
			}
		}
		art, err := pipeline.SolvePanel(pctx, d, idx, panel, key, cfg, inner)
		if err != nil {
			results[slot].err = fmt.Errorf("core: panel %d: %w", panel, err)
			return
		}
		if keyed && opts.PanelCache != nil {
			opts.PanelCache.Put(key, art)
		}
		results[slot] = outcome{art: art}
		if sp != nil {
			sp.SetAttr("reused", false)
			sp.SetAttr("source", "computed")
			sp.SetAttr("pins", len(art.Intervals.Set.PinIDs))
			sp.SetAttr("intervals", len(art.Intervals.Set.Intervals))
			sp.SetAttr("conflicts", art.NumConflicts)
			sp.SetAttr("objective", art.Assignment.Solution.Objective)
			sp.SetAttr("converged", art.Assignment.Converged)
		}
		reg.Counter("cpr_panels_total", "Panels processed by artifact source.",
			telemetry.L("source", "computed")).Inc()
	}

	// Per-slot writes plus the ordered reduce below keep the report and
	// seed order byte-identical for every worker count.
	parallel.ForEach(outer, len(panels), func(slot int) {
		solve(slot, panels[slot])
	})

	report := &PinOptReport{}
	var seeds []PanelSeed
	var arts *pipeline.ArtifactSet
	if keyed {
		arts = &pipeline.ArtifactSet{}
	}
	var inc *IncrementalStats
	if opts.PanelCache != nil {
		inc = &IncrementalStats{Panels: len(panels)}
	}
	for slot, oc := range results {
		if oc.err != nil {
			return nil, nil, nil, nil, oc.err
		}
		art := oc.art
		pr := PanelReport{
			Panel:      art.Panel,
			Pins:       len(art.Intervals.Set.PinIDs),
			Intervals:  len(art.Intervals.Set.Intervals),
			Conflicts:  art.NumConflicts,
			Objective:  art.Assignment.Solution.Objective,
			Violations: art.Assignment.Solution.Violations,
			Converged:  art.Assignment.Converged,
		}
		report.Panels = append(report.Panels, pr)
		report.TotalPins += pr.Pins
		report.TotalIntervals += pr.Intervals
		report.TotalConflicts += pr.Conflicts
		report.Objective += pr.Objective
		seeds = append(seeds, PanelSeed{Set: art.Intervals.Set, Solution: art.Assignment.Solution})
		if arts != nil {
			arts.Panels = append(arts.Panels, art)
		}
		if inc != nil {
			if oc.reused {
				inc.Reused++
			} else {
				inc.Recomputed = append(inc.Recomputed, panels[slot])
			}
		}
	}
	report.Elapsed = time.Since(start) //cprlint:nondeterm wall-clock Elapsed metric only; never reaches the routing result
	poSpan.SetAttr("total_pins", report.TotalPins)
	poSpan.SetAttr("total_intervals", report.TotalIntervals)
	poSpan.SetAttr("total_conflicts", report.TotalConflicts)
	poSpan.SetAttr("objective", report.Objective)
	if inc != nil {
		poSpan.SetAttr("reused", inc.Reused)
	}
	poSpan.End()
	reg.Histogram("cpr_stage_seconds", "Wall-clock time per pipeline stage.",
		telemetry.DefSecondsBuckets, telemetry.L("stage", "pinopt")).
		Observe(report.Elapsed.Seconds())
	return report, seeds, arts, inc, nil
}
