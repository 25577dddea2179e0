// Package router implements the negotiation-congestion-based
// unidirectional detailed router used by CPR (paper §4) and by the
// "routing w/o pin access optimization" baseline of [21].
//
// The router follows the PathFinder paradigm: an initial independent
// routing stage where nets are routed with congestion visible but not
// prohibitive, followed by rip-up-and-reroute iterations in which present
// congestion penalties ramp up and overused grid nodes accumulate history
// cost. Pins and seeded pin access intervals of other nets are hard
// blockages during each net's search, exactly as the paper prescribes.
//
// After negotiation, metal line-ends are extended for SADP cut mask
// friendliness and checked against line-end spacing and minimum-length
// rules; nets whose extensions violate the rules are treated as unrouted
// (paper §5: "We treat those nets introducing violations as unrouted").
//
// The routing problem is decomposed into independent regions (connected
// components of net influence rectangles, see Partition): every stage
// runs region-locally, regions run concurrently on the deterministic
// internal/parallel pool, and a region whose inputs are unchanged since a
// previous run can be spliced verbatim from that run's routes (RunPlan
// with RunOpts.Spliced) — the basis of incremental (ECO) routing.
package router

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/parallel"
	"cpr/internal/pinaccess"
	"cpr/internal/tech"
	"cpr/internal/telemetry"
)

// NetOrder selects the order nets are (re)routed in.
type NetOrder int

const (
	// OrderHPWLAsc routes short nets first (default; they have the least
	// detour flexibility).
	OrderHPWLAsc NetOrder = iota
	// OrderHPWLDesc routes long nets first.
	OrderHPWLDesc
	// OrderByID routes nets in declaration order.
	OrderByID
	// OrderByPins routes high-fanout nets first.
	OrderByPins
)

func (o NetOrder) String() string {
	switch o {
	case OrderHPWLDesc:
		return "hpwl-desc"
	case OrderByID:
		return "id"
	case OrderByPins:
		return "pins"
	default:
		return "hpwl-asc"
	}
}

// Config tunes the negotiation router. Zero values take defaults.
//
//keypurity:options
type Config struct {
	// Order selects the net routing order (default OrderHPWLAsc).
	Order NetOrder

	// MaxNegotiationIters bounds rip-up-and-reroute rounds (default 12).
	MaxNegotiationIters int
	// PresentCostBase is the congestion penalty factor in the first
	// negotiation round (default 2).
	PresentCostBase float64
	// PresentCostGrowth multiplies the penalty each round (default 1.6).
	PresentCostGrowth float64
	// HistoryIncrement is added to every overused node per round
	// (default 1).
	HistoryIncrement float64
	// WindowMargin is the base search window expansion around the net
	// bounding box (default 8).
	WindowMargin int
	// WindowGrowth widens the window per negotiation round (default 4).
	WindowGrowth int
	// MaxWindowMargin caps window growth (default 32).
	MaxWindowMargin int
	// StallRounds stops negotiation after this many rounds without
	// overuse improvement; the residue is resolved by unrouting
	// (default 3).
	StallRounds int
	// SkipDRC disables the line-end extension / design rule stage
	// (used to measure raw negotiated routability).
	SkipDRC bool

	// Workers bounds how many regions route concurrently (0 selects
	// GOMAXPROCS). The internal/parallel determinism contract holds:
	// regions are independent subproblems with disjoint grid footprints
	// and the reduce is ordered, so results are byte-identical for every
	// worker count. Excluded from content-key fingerprints for the same
	// reason.
	//
	//keypurity:exempt region-level parallelism; the internal/parallel determinism contract makes route bytes identical for every worker count
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxNegotiationIters == 0 {
		c.MaxNegotiationIters = 12
	}
	if c.PresentCostBase == 0 {
		c.PresentCostBase = 2
	}
	if c.PresentCostGrowth == 0 {
		c.PresentCostGrowth = 1.6
	}
	if c.HistoryIncrement == 0 {
		c.HistoryIncrement = 1
	}
	if c.WindowMargin == 0 {
		c.WindowMargin = 8
	}
	if c.WindowGrowth == 0 {
		c.WindowGrowth = 4
	}
	if c.MaxWindowMargin == 0 {
		c.MaxWindowMargin = 32
	}
	if c.StallRounds == 0 {
		c.StallRounds = 3
	}
	return c
}

// Normalized returns the configuration with defaults applied — the form
// content-key fingerprints must be computed over, so that a zero config
// and an explicitly-defaulted one address the same artifacts.
func (c Config) Normalized() Config { return c.withDefaults() }

// NetRoute is the routing outcome for one net.
type NetRoute struct {
	NetID int
	// Nodes are the unique grid nodes of the route tree.
	Nodes []grid.NodeID
	// Edges are the tree edges (wires and vias), canonical order.
	Edges []grid.Edge
	// Virtual are the line-end clearance cells beyond each metal strip
	// end (extension plus half the spacing rule). They carry occupancy —
	// so negotiation spaces line-ends apart — but are not metal: they
	// contribute neither wirelength nor vias.
	Virtual []grid.NodeID
	// Routed reports whether the net is connected and rule-clean.
	Routed bool
	// FailReason explains an unrouted net ("", "search", "congestion",
	// "drc").
	FailReason string
}

// Clone returns a deep copy of the route (shared-nothing slices), so
// cached routes survive the in-place mutation the DRC and congestion
// stages apply to live route tables.
func (nr *NetRoute) Clone() *NetRoute {
	if nr == nil {
		return nil
	}
	cp := &NetRoute{NetID: nr.NetID, Routed: nr.Routed, FailReason: nr.FailReason}
	if nr.Nodes != nil {
		cp.Nodes = append([]grid.NodeID(nil), nr.Nodes...)
	}
	if nr.Edges != nil {
		cp.Edges = append([]grid.Edge(nil), nr.Edges...)
	}
	if nr.Virtual != nil {
		cp.Virtual = append([]grid.NodeID(nil), nr.Virtual...)
	}
	return cp
}

// Vias counts via edges in the route.
func (nr *NetRoute) Vias(g *grid.Graph) int {
	n := 0
	for _, e := range nr.Edges {
		if g.IsVia(e) {
			n++
		}
	}
	return n
}

// Wirelength counts wire (non-via) edges in the route.
func (nr *NetRoute) Wirelength(g *grid.Graph) int {
	n := 0
	for _, e := range nr.Edges {
		if !g.IsVia(e) {
			n++
		}
	}
	return n
}

// RegionSummary aggregates one region's counter outcomes. It carries no
// wall-clock fields by design: a summary spliced from a previous run must
// contribute zero time to the current run's Elapsed/StageElapsed (reruns
// used to double-count spliced work's prior wall clock otherwise).
type RegionSummary struct {
	// Nets is the region's member net count.
	Nets int
	// InitialCongested counts metal-congested nodes in the region after
	// the independent routing stage.
	InitialCongested int
	// InitialCongestedByLayer breaks InitialCongested down per layer.
	InitialCongestedByLayer [tech.NumLayers]int
	// NegotiationIters is the number of rip-up rounds the region ran.
	NegotiationIters int
	// CongestionUnrouted counts member nets dropped for residual overuse.
	CongestionUnrouted int
	// DRCUnrouted counts member nets dropped by the line-end rule check.
	DRCUnrouted int
}

// Result is the outcome of a full routing run.
type Result struct {
	// Routes is indexed by net ID.
	Routes []*NetRoute
	// RoutedNets counts rule-clean connected nets.
	RoutedNets int
	// Vias and Wirelength aggregate over routed nets only.
	Vias       int
	Wirelength int
	// InitialCongested is the number of congested grids after the
	// independent routing stage, before any rip-up (Figure 7(b) metric).
	InitialCongested int
	// InitialCongestedByLayer breaks InitialCongested down per layer.
	InitialCongestedByLayer [tech.NumLayers]int
	// NegotiationIters is the maximum rip-up round count over all regions.
	NegotiationIters int
	// CongestionUnrouted counts nets dropped to resolve residual overuse.
	CongestionUnrouted int
	// DRCUnrouted counts nets dropped by the line-end rule check.
	DRCUnrouted int
	// Search sums the path search work of the regions this run computed,
	// in plan order (spliced regions contribute zero). It is a work
	// counter, not routing content: it stays out of RegionSummary, route
	// artifacts, codecs and content keys.
	Search SearchStats

	// Regions is the number of independent routing regions of the plan.
	Regions int
	// RegionSummaries holds one counter summary per region, indexed by
	// region ID (spliced regions carry their previous-run summary).
	RegionSummaries []RegionSummary
	// SplicedNets and WarmNets are reuse provenance: nets spliced
	// verbatim from a previous run's region artifacts, and nets
	// warm-started from previous routes before negotiation. Provenance
	// never affects route bytes (a strict rerun is byte-identical to a
	// cold run that has both at zero).
	SplicedNets int
	WarmNets    int

	// Elapsed is the wall-clock routing time of this run only: spliced
	// regions contribute zero (their prior-run time is not re-counted).
	Elapsed time.Duration
	// StageElapsed breaks routing work into the independent routing,
	// rip-up negotiation, congestion resolution, and DRC stages, summed
	// over the regions this run actually computed. With concurrent
	// regions the sum is CPU-time-like and can exceed Elapsed.
	StageElapsed [4]time.Duration
}

// ZeroTimes clears every wall-clock field, leaving only deterministic
// content — the normal form for byte-identity comparisons and cached
// artifacts.
func (res *Result) ZeroTimes() {
	res.Elapsed = 0
	res.StageElapsed = [4]time.Duration{}
}

// Router routes one design on one grid. Create with New, optionally seed
// pin access intervals with SeedAssignment, then call Run.
type Router struct {
	d   *design.Design
	g   *grid.Graph
	cfg Config

	// seeded interval cells per net (for release/bookkeeping). Read-only
	// once routing starts, so concurrent region shards may share it.
	seededNodes map[int][]grid.NodeID
}

// New creates a router over a validated design and its grid.
func New(d *design.Design, g *grid.Graph, cfg Config) *Router {
	return &Router{d: d, g: g, cfg: cfg.withDefaults(), seededNodes: make(map[int][]grid.NodeID)}
}

// SeedAssignment reserves the assigned pin access intervals on the grid as
// net-owned partial routes. The assignment must be conflict-free (the
// output of the ILP or LR optimizer); overlapping reservations panic.
func (r *Router) SeedAssignment(set *pinaccess.Set, sol *assign.Solution) {
	// Reserve intervals in sorted ID order: seededNodes order seeds the
	// path search, so map iteration order must not reach it.
	seen := make(map[int]bool)
	var ivIDs []int
	for _, ivID := range sol.ByPin {
		if seen[ivID] {
			continue
		}
		seen[ivID] = true
		ivIDs = append(ivIDs, ivID)
	}
	sort.Ints(ivIDs)
	for _, ivID := range ivIDs {
		iv := &set.Intervals[ivID]
		for x := iv.Span.Lo; x <= iv.Span.Hi; x++ {
			id := r.g.ID(x, iv.Track, tech.M2)
			r.g.SetOwner(id, iv.NetID)
			r.seededNodes[iv.NetID] = append(r.seededNodes[iv.NetID], id)
		}
	}
}

// Run executes the full negotiation routing flow.
func (r *Router) Run() *Result {
	return r.RunCtx(context.Background())
}

// RunCtx executes the full negotiation routing flow: a cold RunPlan over
// a fresh Partition. A telemetry tracer or metrics registry carried by
// ctx adds per-stage spans, per-round negotiation spans (overuse,
// rip-ups, present-cost factor) and router metrics; telemetry is strictly
// observational, so the routing result is byte-identical with or without
// it.
func (r *Router) RunCtx(ctx context.Context) *Result {
	return r.RunPlan(ctx, r.Partition(), RunOpts{})
}

// SplicedRegion is a region reused verbatim from a previous run: the
// member routes (parallel to the region's Nets) plus the counter summary
// the region produced when it was computed.
type SplicedRegion struct {
	Routes  []*NetRoute
	Summary RegionSummary
}

// RunOpts controls a plan-based run (RunPlan).
type RunOpts struct {
	// Workers bounds region-level concurrency; 0 falls back to
	// Config.Workers (then GOMAXPROCS). Byte-identical results for every
	// value.
	Workers int
	// Spliced maps region ID -> previous-run routes to splice verbatim
	// instead of routing the region. The caller asserts (normally via
	// content keys, see pipeline.RouteRegionKey) that the region's inputs
	// are unchanged; the routes are deep-copied and their occupancy is
	// replayed onto the grid so the final grid state matches a cold run.
	Spliced map[int]*SplicedRegion
	// Warm maps net ID -> a previous route to warm-start from (eco-fast
	// reruns): usable warm routes are installed and occupied before the
	// independent routing stage, which then routes only the remaining
	// nets; negotiation covers everything, so stale warm routes are
	// ripped up normally. Routes are deep-copied; a route that is no
	// longer enterable on the current grid is silently dropped.
	Warm map[int]*NetRoute
	// SkipSpliceSeeding disables replaying spliced and warm routes'
	// occupancy onto the grid. Fault-injection knob for the equivalence
	// test suite: without congestion seeding, fresh nets route straight
	// through reused metal and the result fails verification. Never set
	// it in production flows.
	SkipSpliceSeeding bool
}

// shardOutcome is one computed region's result bundle.
type shardOutcome struct {
	summary RegionSummary
	stage   [4]time.Duration
	warm    int
	search  SearchStats
}

// RunPlan executes the negotiation routing flow over an explicit region
// plan, optionally splicing unchanged regions and warm-starting nets from
// a previous run. Regions route concurrently (opts.Workers) with
// byte-identical results for every worker count; a run with empty opts is
// exactly the cold flow.
func (r *Router) RunPlan(ctx context.Context, plan *Plan, opts RunOpts) *Result {
	start := now()
	res := &Result{
		Routes:          make([]*NetRoute, len(r.d.Nets)),
		Regions:         len(plan.Regions),
		RegionSummaries: make([]RegionSummary, len(plan.Regions)),
	}

	// Splice reused regions first: verbatim route copies, with occupancy
	// replayed so the grid ends byte-identical to a cold run's grid. The
	// copies carry the congestion seed for any neighbouring recomputation
	// — though by construction no computed region can reach them.
	var computed []*Region
	for _, rg := range plan.Regions {
		sp := opts.Spliced[rg.ID]
		if sp == nil {
			computed = append(computed, rg)
			continue
		}
		if len(sp.Routes) != len(rg.Nets) {
			panic(fmt.Sprintf("router: spliced region %d has %d routes for %d nets",
				rg.ID, len(sp.Routes), len(rg.Nets)))
		}
		for i, netID := range rg.Nets {
			nr := sp.Routes[i].Clone()
			if nr.NetID != netID {
				panic(fmt.Sprintf("router: spliced region %d: route for net %d spliced at net %d",
					rg.ID, nr.NetID, netID))
			}
			res.Routes[netID] = nr
			if !opts.SkipSpliceSeeding {
				r.occupy(nr)
			}
		}
		res.RegionSummaries[rg.ID] = sp.Summary
		res.SplicedNets += len(rg.Nets)
	}

	// Route the remaining regions concurrently. Shards write to disjoint
	// net indices and disjoint grid footprints; per-slot outcomes are
	// reduced in plan order, so every worker count produces identical
	// bytes.
	workers := opts.Workers
	if workers == 0 {
		workers = r.cfg.Workers
	}
	outcomes := make([]shardOutcome, len(computed))
	parallel.ForEach(parallel.Resolve(workers), len(computed), func(slot int) {
		rg := computed[slot]
		sh := &shard{
			Router:  r,
			region:  rg,
			routes:  res.Routes,
			seedOcc: !opts.SkipSpliceSeeding,
		}
		if len(opts.Warm) > 0 {
			for _, netID := range rg.Nets {
				if w := opts.Warm[netID]; w != nil && w.NetID == netID {
					if sh.warm == nil {
						sh.warm = make(map[int]*NetRoute)
					}
					sh.warm[netID] = w.Clone()
				}
			}
		}
		outcomes[slot] = sh.run(ctx)
	})
	for slot, oc := range outcomes {
		res.RegionSummaries[computed[slot].ID] = oc.summary
		for i := range oc.stage {
			res.StageElapsed[i] += oc.stage[i]
		}
		res.WarmNets += oc.warm
		res.Search.add(oc.search)
	}

	// Merge region counters in region-ID order (spliced and computed
	// alike), then recompute the global totals from the final routes.
	for _, sum := range res.RegionSummaries {
		res.InitialCongested += sum.InitialCongested
		for z := range sum.InitialCongestedByLayer {
			res.InitialCongestedByLayer[z] += sum.InitialCongestedByLayer[z]
		}
		if sum.NegotiationIters > res.NegotiationIters {
			res.NegotiationIters = sum.NegotiationIters
		}
		res.CongestionUnrouted += sum.CongestionUnrouted
		res.DRCUnrouted += sum.DRCUnrouted
	}
	for _, nr := range res.Routes {
		if nr != nil && nr.Routed {
			res.RoutedNets++
			res.Vias += nr.Vias(r.g)
			res.Wirelength += nr.Wirelength(r.g)
		}
	}

	if reg := telemetry.RegistryFrom(ctx); reg != nil {
		reg.Histogram("cpr_router_negotiation_rounds", "Rip-up-and-reroute rounds per routing run.",
			telemetry.DefCountBuckets).Observe(float64(res.NegotiationIters))
		reg.Counter("cpr_router_search_searches_total", "Path searches run by the router.").
			Add(float64(res.Search.Searches))
		reg.Counter("cpr_router_search_pushes_total", "Path search frontier pushes.").
			Add(float64(res.Search.Pushes))
		reg.Counter("cpr_router_search_pops_total", "Path search frontier pops, stale ones included.").
			Add(float64(res.Search.Pops))
		reg.Counter("cpr_router_search_stale_pops_total", "Path search frontier pops discarded as stale.").
			Add(float64(res.Search.StalePops))
	}
	res.Elapsed = since(start)
	return res
}

// shard is the per-region routing worker: it runs every stage of the
// negotiation flow restricted to one region's member nets. Shards of
// different regions share the grid but have provably disjoint read/write
// footprints, so they run concurrently without synchronization.
type shard struct {
	*Router
	region *Region
	// routes is the run's global route table; the shard reads and writes
	// only its member indices.
	routes []*NetRoute
	// avoid holds temporarily forbidden nodes during DRC-aware reroutes
	// (other nets' extended line-end clearance zones); nil outside the
	// DRC stage. Also carries the sequential baseline's clearance zones.
	avoid map[grid.NodeID]bool
	// warm maps member net IDs to deep-copied previous routes to
	// warm-start from.
	warm map[int]*NetRoute
	// seedOcc replays warm routes' occupancy (false only under the
	// RunOpts.SkipSpliceSeeding fault injection).
	seedOcc bool
	// scratch is the shard's reusable path search state and work
	// counters.
	scratch searchScratch
	// overusedSeen is overusedCount's node set, reused across
	// negotiation rounds.
	overusedSeen map[grid.NodeID]struct{}
}

// wholeShard wraps the router in a single shard spanning every net
// (sequential-baseline and test helper; no region decomposition).
func (r *Router) wholeShard(routes []*NetRoute) *shard {
	allNets := make([]int, len(r.d.Nets))
	for i := range allNets {
		allNets[i] = i
	}
	return &shard{Router: r, region: &Region{Nets: allNets}, routes: routes, seedOcc: true}
}

// run executes the four routing stages region-locally. Its output is
// what a RouteArtifact captures and reuses, so it is a cache entry of
// the stage scope: every router.Config field it reads must be covered by
// pipeline.RouterFingerprint or exempted on the field.
//
//keypurity:entry stage
func (s *shard) run(ctx context.Context) shardOutcome {
	var oc shardOutcome
	oc.summary.Nets = len(s.region.Nets)
	order := s.netOrderOf(s.region.Nets)

	// Stage 1: independent routing. Congestion is visible at zero present
	// penalty, so nets route as if alone (other nets' pins/intervals are
	// still hard blockages). Warm-started regions instead install every
	// usable warm route first and route the remaining nets with the
	// present-cost penalty already on: the warm routes are a converged
	// solution, so fresh nets that steer around their occupancy from the
	// start leave negotiation almost nothing to do. Cold regions are
	// unaffected (no warm routes, zero penalty — the strict/cold byte
	// contract never sees this branch).
	_, indSpan := telemetry.StartSpan(ctx, "route:independent")
	indSpan.SetAttr("region", s.region.ID)
	t0 := now()
	initPres := 0.0
	for _, netID := range order {
		if w := s.warm[netID]; w != nil && s.warmUsable(w) {
			s.routes[netID] = w
			if s.seedOcc {
				s.occupy(w)
			}
			oc.warm++
			if s.seedOcc {
				initPres = s.cfg.PresentCostBase
			}
		}
	}
	for _, netID := range order {
		if s.routes[netID] != nil {
			continue
		}
		nr := s.routeNet(netID, initPres, s.cfg.WindowMargin)
		s.routes[netID] = nr
		s.occupy(nr)
	}
	oc.summary.InitialCongested, oc.summary.InitialCongestedByLayer = s.congestedCounts()
	indSpan.SetAttr("nets", len(order))
	indSpan.SetAttr("warm", oc.warm)
	indSpan.SetAttr("congested", oc.summary.InitialCongested)
	indSpan.End()
	oc.stage[0] = since(t0)
	t0 = now()

	// Stage 2: rip-up and reroute with ramping penalties. Negotiation
	// stops early once the overuse count stalls: the surviving conflicts
	// are structural (e.g. physically incompatible line-ends) and are
	// resolved by unrouting in stage 3.
	reg := telemetry.RegistryFrom(ctx)
	em := telemetry.EmitterFrom(ctx)
	negCtx, negSpan := telemetry.StartSpan(ctx, "route:negotiate")
	negSpan.SetAttr("region", s.region.ID)
	searchBefore := s.scratch.work
	presFac := s.cfg.PresentCostBase
	bestOveruse := 1 << 30
	stall := 0
	for iter := 1; iter <= s.cfg.MaxNegotiationIters; iter++ {
		over := s.overusedCount()
		if over == 0 {
			break
		}
		if over < bestOveruse {
			bestOveruse = over
			stall = 0
		} else {
			stall++
			if stall >= s.cfg.StallRounds {
				break
			}
		}
		oc.summary.NegotiationIters = iter
		_, iterSpan := telemetry.StartSpan(negCtx, "negotiate_round")
		iterSpan.SetAttr("iter", iter)
		iterSpan.SetAttr("overused", over)
		iterSpan.SetAttr("pres_fac", presFac)
		reg.Histogram("cpr_router_overused_nodes", "Overused grid nodes at the start of each negotiation round.",
			telemetry.DefCountBuckets).Observe(float64(over))
		s.chargeHistory()
		margin := s.cfg.WindowMargin + s.cfg.WindowGrowth*iter
		if margin > s.cfg.MaxWindowMargin {
			margin = s.cfg.MaxWindowMargin
		}
		ripups := 0
		for _, netID := range order {
			nr := s.routes[netID]
			if nr.Routed && !s.usesOverused(nr) {
				continue
			}
			// Keep installed warm routes pinned: they are a converged,
			// mutually conflict-free solution, so every overused node they
			// touch also has a fresh-net user that can move instead.
			// Ripping the warm set along with it would cascade into a
			// near-cold negotiation. Nets whose warm entry is UNROUTED
			// carry the opposite verdict — the baseline's full negotiation
			// already failed them — so they get their one stage-1 attempt
			// and are not churned further. Anything either kind still
			// blocks at the end is resolved by stages 3 and 4 as usual.
			if w := s.warm[netID]; w != nil && (nr == w || !w.Routed) {
				continue
			}
			s.release(nr)
			ripups++
			newRoute := s.routeNet(netID, presFac, margin)
			s.routes[netID] = newRoute
			s.occupy(newRoute)
		}
		iterSpan.SetAttr("ripups", ripups)
		iterSpan.End()
		em.Emit("negotiate_round", map[string]any{
			"region": s.region.ID, "iter": iter, "overused": over, "ripups": ripups,
		})
		reg.Counter("cpr_router_ripups_total", "Nets ripped up and rerouted during negotiation.").Add(float64(ripups))
		presFac *= s.cfg.PresentCostGrowth
	}
	negSpan.SetAttr("rounds", oc.summary.NegotiationIters)
	negWork := s.scratch.work
	negSpan.SetAttr("searches", negWork.Searches-searchBefore.Searches)
	negSpan.SetAttr("pushes", negWork.Pushes-searchBefore.Pushes)
	negSpan.SetAttr("pops", negWork.Pops-searchBefore.Pops)
	negSpan.SetAttr("stale_pops", negWork.StalePops-searchBefore.StalePops)
	negSpan.End()
	oc.stage[1] = since(t0)
	t0 = now()

	// Stage 3: resolve residual congestion by unrouting offenders.
	_, resSpan := telemetry.StartSpan(ctx, "route:resolve")
	resSpan.SetAttr("region", s.region.ID)
	oc.summary.CongestionUnrouted = s.resolveCongestion()
	resSpan.SetAttr("unrouted", oc.summary.CongestionUnrouted)
	resSpan.End()
	oc.stage[2] = since(t0)
	t0 = now()

	// Stage 4: line-end extension and design rule check.
	_, drcSpan := telemetry.StartSpan(ctx, "route:drc")
	drcSpan.SetAttr("region", s.region.ID)
	if !s.cfg.SkipDRC {
		oc.summary.DRCUnrouted = s.enforceLineEndRules()
	}
	drcSpan.SetAttr("unrouted", oc.summary.DRCUnrouted)
	drcSpan.End()
	oc.stage[3] = since(t0)
	oc.search = s.scratch.work
	return oc
}

// warmUsable reports whether a previous route can be replayed on the
// current grid: the net must still be allowed to enter every route node
// (pins unchanged on M1, no new blockage, no foreign ownership). Virtual
// cells carry no legality constraint — they are occupancy, not metal.
func (s *shard) warmUsable(nr *NetRoute) bool {
	if !nr.Routed {
		return false
	}
	for _, id := range nr.Nodes {
		if !s.g.Enterable(id, nr.NetID) {
			return false
		}
	}
	return true
}

// congestedCounts walks the region's routed nets and counts
// metal-congested nodes, deduplicated. Every congested node carries at
// least one member route's metal (occupancy comes only from occupy), so
// the walk equals a grid scan restricted to the region — without reading
// any cell other shards could be writing.
func (s *shard) congestedCounts() (int, [tech.NumLayers]int) {
	var byLayer [tech.NumLayers]int
	total := 0
	seen := make(map[grid.NodeID]struct{})
	for _, netID := range s.region.Nets {
		nr := s.routes[netID]
		if nr == nil || !nr.Routed {
			continue
		}
		for _, id := range nr.Nodes {
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			if s.g.MetalCongested(id) {
				total++
				_, _, z := s.g.Coords(id)
				byLayer[z]++
			}
		}
	}
	return total, byLayer
}

// overusedCount counts overused nodes (any usage, including line-end
// clearance overlap) among the region's routes, deduplicated. Equals a
// global grid scan when the region covers all routed nets.
func (s *shard) overusedCount() int {
	n := 0
	if s.overusedSeen == nil {
		s.overusedSeen = make(map[grid.NodeID]struct{})
	}
	seen := s.overusedSeen
	clear(seen)
	count := func(id grid.NodeID) {
		if _, ok := seen[id]; ok {
			return
		}
		seen[id] = struct{}{}
		if s.g.Overused(id) {
			n++
		}
	}
	for _, netID := range s.region.Nets {
		nr := s.routes[netID]
		if nr == nil || !nr.Routed {
			continue
		}
		for _, id := range nr.Nodes {
			count(id)
		}
		for _, id := range nr.Virtual {
			count(id)
		}
	}
	return n
}

// netOrderOf returns the given nets in the configured routing order,
// breaking ties by ID for determinism. The order of a net set depends
// only on the member nets, never on the rest of the design.
func (r *Router) netOrderOf(nets []int) []int {
	order := append([]int(nil), nets...)
	key := make(map[int]int, len(nets))
	for _, netID := range nets {
		switch r.cfg.Order {
		case OrderHPWLDesc:
			key[netID] = -r.d.HPWL(netID)
		case OrderByID:
			key[netID] = 0
		case OrderByPins:
			key[netID] = -len(r.d.Nets[netID].PinIDs)
		default:
			key[netID] = r.d.HPWL(netID)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if key[order[a]] != key[order[b]] {
			return key[order[a]] < key[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// netOrder returns all net IDs in the configured routing order.
func (r *Router) netOrder() []int {
	nets := make([]int, len(r.d.Nets))
	for i := range nets {
		nets[i] = i
	}
	return r.netOrderOf(nets)
}

// routeNet connects all pins of a net with sequential multi-source
// shortest-path searches. presFac scales the congestion penalty; margin
// expands the search window beyond the net bounding box.
func (s *shard) routeNet(netID int, presFac float64, margin int) *NetRoute {
	nr := &NetRoute{NetID: netID}
	pins := s.d.Nets[netID].PinIDs
	if len(pins) == 0 {
		nr.Routed = true
		return nr
	}

	// Order pins left to right for a stable, roughly monotone build.
	ordered := append([]int(nil), pins...)
	sort.Slice(ordered, func(a, b int) bool {
		pa, pb := &s.d.Pins[ordered[a]], &s.d.Pins[ordered[b]]
		if pa.Shape.X0 != pb.Shape.X0 {
			return pa.Shape.X0 < pb.Shape.X0
		}
		return pa.Shape.Y0 < pb.Shape.Y0
	})

	s.restoreSeeds(netID)
	win := s.window(netID, margin)
	treeSet := make(map[grid.NodeID]bool)
	addNode := func(id grid.NodeID) {
		if !treeSet[id] {
			treeSet[id] = true
			nr.Nodes = append(nr.Nodes, id)
		}
	}
	for _, cell := range s.pinCells(ordered[0]) {
		addNode(cell)
	}
	if len(ordered) == 1 {
		nr.Routed = true
		return nr
	}

	for _, pid := range ordered[1:] {
		targets := s.pinCells(pid)
		already := false
		for _, cell := range targets {
			if treeSet[cell] {
				already = true
				break
			}
		}
		if already {
			continue
		}
		path, ok := s.search(netID, nr.Nodes, targets, win, presFac)
		if !ok {
			nr.Routed = false
			nr.FailReason = "search"
			nr.Nodes = nil
			nr.Edges = nil
			nr.Virtual = nil
			return nr
		}
		for i, id := range path {
			addNode(id)
			if i > 0 {
				nr.Edges = append(nr.Edges, grid.MakeEdge(path[i-1], id))
			}
		}
	}
	nr.Routed = true
	s.computeVirtual(nr)
	return nr
}

// pinCells returns the grid nodes of a pin's M1 shape.
func (r *Router) pinCells(pid int) []grid.NodeID {
	sh := r.d.Pins[pid].Shape
	cells := make([]grid.NodeID, 0, sh.Area())
	for y := sh.Y0; y <= sh.Y1; y++ {
		for x := sh.X0; x <= sh.X1; x++ {
			cells = append(cells, r.g.ID(x, y, tech.M1))
		}
	}
	return cells
}

// window computes the clamped search window for a net.
func (r *Router) window(netID, margin int) searchWindow {
	box := r.clampRect(r.d.NetBBox(netID).Expand(margin))
	return searchWindow{x0: box.X0, y0: box.Y0, w: box.Width(), h: box.Height()}
}

// rules resolves the technology's multi-patterning rule engine. It is
// resolved per call rather than cached on the Router so the engine
// parameter reads stay inside every routing stage's static call graph
// (the keypurity analyzer proves cache-key coverage from those reads).
func (r *Router) rules() tech.RuleEngine {
	return tech.RulesFor(r.g.Tech)
}

// clearanceMargin is the number of cells beyond each strip end treated as
// occupied — the rule engine's margin such that two nets whose clearance
// cells do not collide always satisfy the engine's tip spacing after
// extension.
func (r *Router) clearanceMargin() int {
	return r.rules().ClearanceMargin()
}

// computeVirtual fills nr.Virtual with the clearance cells at every strip
// end (skipping cells already part of the route).
func (r *Router) computeVirtual(nr *NetRoute) {
	nr.Virtual = nr.Virtual[:0]
	margin := r.clearanceMargin()
	if margin == 0 {
		return
	}
	inRoute := make(map[grid.NodeID]bool, len(nr.Nodes))
	for _, id := range nr.Nodes {
		inRoute[id] = true
	}
	add := func(id grid.NodeID) {
		if !inRoute[id] {
			inRoute[id] = true
			nr.Virtual = append(nr.Virtual, id)
		}
	}
	for _, s := range r.segmentsOf(nr) {
		limit := r.d.Width
		if s.layer == tech.M3 {
			limit = r.d.Height
		}
		for m := 1; m <= margin; m++ {
			for _, c := range []int{s.span.Lo - m, s.span.Hi + m} {
				if c < 0 || c > limit-1 {
					continue
				}
				if s.layer == tech.M2 {
					add(r.g.ID(c, s.track, tech.M2))
				} else {
					add(r.g.ID(s.track, c, tech.M3))
				}
			}
		}
	}
}

// occupy registers a routed net's nodes (and clearance cells) on the grid
// and trims the net's unused interval reservation so other nets can use
// the freed cells (the reservation is restored if the net is ripped up).
func (r *Router) occupy(nr *NetRoute) {
	if !nr.Routed {
		return
	}
	for _, id := range nr.Nodes {
		r.g.Occupy(id)
	}
	for _, id := range nr.Virtual {
		r.g.OccupyVirtual(id)
	}
	r.trimSeeds(nr)
}

// trimSeeds releases seeded interval cells the final route does not use.
func (r *Router) trimSeeds(nr *NetRoute) {
	seeds := r.seededNodes[nr.NetID]
	if len(seeds) == 0 {
		return
	}
	inRoute := make(map[grid.NodeID]bool, len(nr.Nodes))
	for _, id := range nr.Nodes {
		inRoute[id] = true
	}
	for _, id := range seeds {
		if !inRoute[id] && r.g.Owner(id) == nr.NetID {
			r.g.ClearOwner(id)
		}
	}
}

// restoreSeeds best-effort re-reserves a ripped net's assigned interval
// cells (skipping cells meanwhile taken by other nets).
func (r *Router) restoreSeeds(netID int) {
	for _, id := range r.seededNodes[netID] {
		if r.g.Owner(id) == -1 && r.g.Occupancy(id) == 0 && !r.g.Blocked(id) {
			r.g.SetOwner(id, netID)
		}
	}
}

// release removes a net's occupancy.
func (r *Router) release(nr *NetRoute) {
	if !nr.Routed {
		return
	}
	for _, id := range nr.Nodes {
		r.g.Release(id)
	}
	for _, id := range nr.Virtual {
		r.g.ReleaseVirtual(id)
	}
}

// usesOverused reports whether the route crosses any congested node.
func (r *Router) usesOverused(nr *NetRoute) bool {
	for _, id := range nr.Nodes {
		if r.g.Overused(id) {
			return true
		}
	}
	for _, id := range nr.Virtual {
		if r.g.Overused(id) {
			return true
		}
	}
	return false
}

// chargeHistory adds history cost to every overused node crossed by the
// region's routes.
func (s *shard) chargeHistory() {
	for _, netID := range s.region.Nets {
		nr := s.routes[netID]
		if nr == nil || !nr.Routed {
			continue
		}
		for _, id := range nr.Nodes {
			if s.g.Overused(id) {
				s.g.AddHistory(id, s.cfg.HistoryIncrement)
			}
		}
		for _, id := range nr.Virtual {
			if s.g.Overused(id) {
				s.g.AddHistory(id, s.cfg.HistoryIncrement)
			}
		}
	}
}

// resolveCongestion unroutes member nets until no region node is
// overused: repeatedly drop the net crossing the most overused nodes
// (ties broken by region net order). Rather than rescanning every route
// per drop, it maintains the overused-node set and per-net overuse
// counts incrementally — only the dropped net's nodes can change state,
// since release touches no other usage. The drop sequence is identical
// to the naive full-rescan formulation.
func (s *shard) resolveCongestion() int {
	// users indexes each touched node by the member nets touching it,
	// one entry per route-slice occurrence; cnt mirrors the per-net
	// overused-touch count the naive scan would compute.
	users := make(map[grid.NodeID][]int)
	cnt := make(map[int]int)
	overSet := make(map[grid.NodeID]struct{})
	touch := func(netID int, id grid.NodeID) {
		users[id] = append(users[id], netID)
		if s.g.Overused(id) {
			overSet[id] = struct{}{}
			cnt[netID]++
		}
	}
	for _, netID := range s.region.Nets {
		nr := s.routes[netID]
		if !nr.Routed {
			continue
		}
		for _, id := range nr.Nodes {
			touch(netID, id)
		}
		for _, id := range nr.Virtual {
			touch(netID, id)
		}
	}

	dropped := 0
	for len(overSet) > 0 {
		worst, worstCount := -1, 0
		for _, netID := range s.region.Nets {
			if c := cnt[netID]; c > worstCount {
				worst, worstCount = netID, c
			}
		}
		if worst < 0 {
			break
		}
		nr := s.routes[worst]
		nodes, virtual := nr.Nodes, nr.Virtual
		s.release(nr)
		nr.Routed = false
		nr.FailReason = "congestion"
		nr.Nodes = nil
		nr.Edges = nil
		nr.Virtual = nil
		delete(cnt, worst)
		dropped++

		// Retract the dropped net's touches and re-derive the state of
		// every node it covered: a node leaves the overused set when the
		// release took its usage back under capacity, or when no routed
		// member net touches it any more (foreign seeded occupancy alone
		// never counts — the naive scan walks member routes only).
		update := func(id grid.NodeID) {
			us := users[id]
			w := 0
			for _, u := range us {
				if u != worst {
					us[w] = u
					w++
				}
			}
			us = us[:w]
			if len(us) == 0 {
				delete(users, id)
			} else {
				users[id] = us
			}
			if _, over := overSet[id]; !over {
				return
			}
			if len(us) == 0 || !s.g.Overused(id) {
				delete(overSet, id)
				for _, u := range us {
					cnt[u]--
				}
			}
		}
		seen := make(map[grid.NodeID]struct{}, len(nodes)+len(virtual))
		once := func(id grid.NodeID) {
			if _, ok := seen[id]; ok {
				return
			}
			seen[id] = struct{}{}
			update(id)
		}
		for _, id := range nodes {
			once(id)
		}
		for _, id := range virtual {
			once(id)
		}
	}
	return dropped
}
