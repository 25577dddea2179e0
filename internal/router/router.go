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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/geom"
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
	// negotiation round (default 2). It must be finite; a round whose
	// factor is not positive prices history alone.
	PresentCostBase float64
	// PresentCostGrowth multiplies the penalty each round (default 1.6).
	// It must be finite.
	PresentCostGrowth float64
	// HistoryIncrement is added to every overused node per round
	// (default 1). It must be finite and non-negative: a negative
	// history cost keeps producing shorter offers, and the path search
	// never drains.
	HistoryIncrement float64
	// WindowMargin is the base search window expansion around the net
	// bounding box (default 8).
	WindowMargin int
	// WindowGrowth widens the window per negotiation round (default 4).
	WindowGrowth int
	// MaxWindowMargin caps the window growth of negotiation rounds
	// (default 32). The DRC stage's reroutes are not capped: they search
	// with WindowMargin + WindowGrowth*(MaxNegotiationIters+1), 60 cells
	// with the defaults.
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

// Validate reports a configuration the router cannot run: a NaN or
// infinite cost setting, or a negative HistoryIncrement. It keeps every
// node cost non-negative and comparable; with tech.Validate's positive
// wire and via costs no search offer is then shorter than the distance
// it extends, which the path search needs to terminate and its skip of
// offers that cannot win needs to be exact (DESIGN §4f).
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PresentCostBase", c.PresentCostBase},
		{"PresentCostGrowth", c.PresentCostGrowth},
		{"HistoryIncrement", c.HistoryIncrement},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("router: Config.%s must be finite, got %v", f.name, f.v)
		}
	}
	if c.HistoryIncrement < 0 {
		return fmt.Errorf("router: Config.HistoryIncrement must be non-negative, got %v", c.HistoryIncrement)
	}
	return nil
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
	// regions the sum is CPU-time-like and can exceed Elapsed. The
	// sequential baseline has two phases: its first pass fills the
	// first entry and its retry rounds the second.
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

	// seeded interval cells per net, indexed by net ID (for
	// release/bookkeeping). Read-only once routing starts, so concurrent
	// region shards may share it.
	seededNodes [][]grid.NodeID

	// tie orders the path search's entries of equal key. Production
	// leaves it zero, arrival order; tests set it to route under others.
	tie tieOrder
}

// New creates a router over a validated design and its grid. The
// configuration must pass Validate; an invalid one panics.
func New(d *design.Design, g *grid.Graph, cfg Config) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Router{d: d, g: g, cfg: cfg.withDefaults(), seededNodes: make([][]grid.NodeID, len(d.Nets))}
}

// SeedAssignment reserves the assigned pin access intervals on the grid as
// net-owned partial routes. The assignment must be conflict-free (the
// output of the ILP or LR optimizer); overlapping reservations panic.
func (r *Router) SeedAssignment(set *pinaccess.Set, sol *assign.Solution) {
	// Reserve each net's intervals in ascending ID order: seededNodes
	// order seeds the path search, so map iteration order must not reach
	// it. Sorting by (net, ID) groups a net's intervals, so its cell list
	// grows once per call.
	ivIDs := make([]int, 0, len(sol.ByPin))
	for _, ivID := range sol.ByPin {
		ivIDs = append(ivIDs, ivID)
	}
	slices.SortFunc(ivIDs, func(a, b int) int {
		if na, nb := set.Intervals[a].NetID, set.Intervals[b].NetID; na != nb {
			return cmp.Compare(na, nb)
		}
		return cmp.Compare(a, b)
	})
	ivIDs = slices.Compact(ivIDs)
	for i := 0; i < len(ivIDs); {
		netID, cells, j := set.Intervals[ivIDs[i]].NetID, 0, i
		for ; j < len(ivIDs) && set.Intervals[ivIDs[j]].NetID == netID; j++ {
			cells += set.Intervals[ivIDs[j]].Span.Len()
		}
		seeds := slices.Grow(r.seededNodes[netID], cells)
		for _, ivID := range ivIDs[i:j] {
			iv := &set.Intervals[ivID]
			for x := iv.Span.Lo; x <= iv.Span.Hi; x++ {
				id := r.g.ID(x, iv.Track, tech.M2)
				r.g.SetOwner(id, netID)
				seeds = append(seeds, id)
			}
		}
		r.seededNodes[netID] = seeds
		i = j
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
	// ripped up normally. The run takes the routes over and may rewrite
	// them, so the caller passes routes it owns (eco-fast clones each
	// one); a route that is no longer enterable on the current grid is
	// silently dropped.
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
	var seedSet nodeSet // trimSeeds' set for spliced routes
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
				r.occupy(nr, &seedSet)
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
	var pool scratchPool
	parallel.ForEach(parallel.Resolve(workers), len(computed), func(slot int) {
		rg := computed[slot]
		sh := &shard{
			Router:       r,
			region:       rg,
			box:          rectWindow(rg.Bounds()),
			routes:       res.Routes,
			seedOcc:      !opts.SkipSpliceSeeding,
			shardScratch: pool.get(),
		}
		if len(opts.Warm) > 0 {
			for _, netID := range rg.Nets {
				if w := opts.Warm[netID]; w != nil && w.NetID == netID {
					if sh.warm == nil {
						sh.warm = make(map[int]*NetRoute)
					}
					sh.warm[netID] = w
				}
			}
		}
		outcomes[slot] = sh.run(ctx)
		pool.put(sh.shardScratch)
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
//
// A shard reuses its scratch for every net and round, so routing a net
// allocates only the route it returns.
type shard struct {
	*Router
	region *Region
	// box is the region's bounds. It contains every search window, route
	// node, clearance cell and seeded cell of the member nets, so it
	// sizes both node sets.
	box searchWindow
	// routes is the run's global route table; the shard reads and writes
	// only its member indices.
	routes []*NetRoute
	// warm maps member net IDs to deep-copied previous routes to
	// warm-start from.
	warm map[int]*NetRoute
	// seedOcc replays warm routes' occupancy (false only under the
	// RunOpts.SkipSpliceSeeding fault injection).
	seedOcc bool
	// scratchMargin is the margin the search scratch is sized for in
	// this region (fitScratch).
	scratchMargin int
	*shardScratch
}

// shardScratch is the part of a shard that outlives its region: the
// rule engine's resolution, the search scratch, both node sets and the
// stage buffers. Its arrays only grow, and each user resets what it
// reads, so a region sees nothing of the last one's state. RunPlan
// passes a finished region's scratch to the next region (scratchPool).
type shardScratch struct {
	// avoid holds temporarily forbidden nodes during DRC-aware reroutes
	// (other nets' extended line-end clearance zones); empty outside
	// them. Also carries the sequential baseline's clearance zones.
	avoid nodeSet
	// nodes is the general node set: routeNet's tree and clearance
	// cells, trimSeeds' route, and the nodes a count or a congestion
	// drop has visited.
	nodes nodeSet
	// rulesOf is the rule engine and its parameters (see engine).
	rulesOf shardRules
	// scratch is the path search state and its work counters.
	scratch searchScratch
	// build holds routeNet's buffers; cong and drc hold stage 3's and
	// stage 4's.
	build routeBuffers
	cong  congestionBuffers
	drc   lineEndBuffers
}

// scratchPool is RunPlan's free list of shard scratch. A region's shard
// takes an entry when it starts and returns it when it ends, so no more
// entries exist than regions run at once, at most the worker count, and
// each grows to the widest region it serves instead of every region
// growing its own.
type scratchPool struct {
	mu   sync.Mutex
	free []*shardScratch
}

func (p *scratchPool) get() *shardScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(shardScratch)
	}
	sc := p.free[n-1]
	p.free = p.free[:n-1]
	// Handed out as a new scratch reads: work counted from zero, and a
	// test tie shuffle from its seed.
	sc.scratch.work = SearchStats{}
	sc.scratch.queue.rng = 0
	return sc
}

func (p *scratchPool) put(sc *shardScratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, sc)
}

// routeBuffers are the buffers routeNet builds a route in; it copies
// each output slice out once, at its exact length.
type routeBuffers struct {
	pins  []int
	cells []grid.NodeID
	tree  []grid.NodeID
	edges []grid.Edge
	virt  []grid.NodeID
	// keys are segmentsOf's sort keys; segs hold one route's strips for
	// computeVirtual and the sequential baseline's clearance zones.
	keys []uint64
	segs []metalSegment
}

// wholeShard wraps the router in a single shard spanning every net
// (sequential-baseline and test helper; no region decomposition). Every
// net's influence rectangle is the whole grid.
func (r *Router) wholeShard(routes []*NetRoute) *shard {
	rg := &Region{Nets: make([]int, len(r.d.Nets)), Rects: make([]geom.Rect, len(r.d.Nets))}
	all := geom.Rect{X1: r.d.Width - 1, Y1: r.d.Height - 1}
	for i := range rg.Nets {
		rg.Nets[i] = i
		rg.Rects[i] = all
	}
	return &shard{Router: r, region: rg, box: rectWindow(all), routes: routes, seedOcc: true, shardScratch: new(shardScratch)}
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
				s.occupy(w, &s.nodes)
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
		s.occupy(nr, &s.nodes)
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
		roundStart := s.scratch.work
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
			s.occupy(newRoute, &s.nodes)
		}
		round := s.scratch.work.since(roundStart)
		iterSpan.SetAttr("ripups", ripups)
		iterSpan.SetAttr("searches", round.Searches)
		iterSpan.SetAttr("pops", round.Pops)
		iterSpan.End()
		em.Emit("negotiate_round", map[string]any{
			"region": s.region.ID, "iter": iter, "overused": over, "ripups": ripups,
			"searches": round.Searches, "pops": round.Pops,
		})
		reg.Counter("cpr_router_ripups_total", "Nets ripped up and rerouted during negotiation.").Add(float64(ripups))
		presFac *= s.cfg.PresentCostGrowth
	}
	negSpan.SetAttr("rounds", oc.summary.NegotiationIters)
	negWork := s.scratch.work.since(searchBefore)
	negSpan.SetAttr("searches", negWork.Searches)
	negSpan.SetAttr("pushes", negWork.Pushes)
	negSpan.SetAttr("pops", negWork.Pops)
	negSpan.SetAttr("stale_pops", negWork.StalePops)
	negSpan.End()
	oc.stage[1] = since(t0)
	t0 = now()

	// Stage 3: resolve residual congestion by unrouting offenders.
	_, resSpan := telemetry.StartSpan(ctx, "route:resolve")
	resSpan.SetAttr("region", s.region.ID)
	oc.summary.CongestionUnrouted = len(s.resolveCongestion())
	resSpan.SetAttr("unrouted", oc.summary.CongestionUnrouted)
	resSpan.End()
	oc.stage[2] = since(t0)
	t0 = now()

	// Stage 4: line-end extension and design rule check.
	_, drcSpan := telemetry.StartSpan(ctx, "route:drc")
	drcSpan.SetAttr("region", s.region.ID)
	if !s.cfg.SkipDRC {
		oc.summary.DRCUnrouted = len(s.enforceLineEndRules())
	}
	drcSpan.SetAttr("unrouted", oc.summary.DRCUnrouted)
	drcSpan.End()
	oc.stage[3] = since(t0)
	oc.search = s.scratch.work
	return oc
}

// warmUsable reports whether a previous route can be replayed on the
// current grid: the net must still be allowed to enter every route node
// (pins unchanged on M1, no new blockage, no foreign ownership), and the
// route and its clearance cells must lie inside the region's bounds,
// which every shard structure relies on. Virtual cells carry no other
// legality constraint — they are occupancy, not metal.
func (s *shard) warmUsable(nr *NetRoute) bool {
	if !nr.Routed {
		return false
	}
	for _, id := range nr.Nodes {
		if x, y, _ := s.g.Coords(id); !s.box.contains(x, y) || !s.g.Enterable(id, nr.NetID) {
			return false
		}
	}
	for _, id := range nr.Virtual {
		if x, y, _ := s.g.Coords(id); !s.box.contains(x, y) {
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
	s.nodes.reset(s.box)
	for _, netID := range s.region.Nets {
		nr := s.routes[netID]
		if nr == nil || !nr.Routed {
			continue
		}
		for _, id := range nr.Nodes {
			if s.nodes.insert(s.g, id) && s.g.MetalCongested(id) {
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
	s.nodes.reset(s.box)
	for _, netID := range s.region.Nets {
		nr := s.routes[netID]
		if nr == nil || !nr.Routed {
			continue
		}
		for _, id := range nr.Nodes {
			if s.nodes.insert(s.g, id) && s.g.Overused(id) {
				n++
			}
		}
		for _, id := range nr.Virtual {
			if s.nodes.insert(s.g, id) && s.g.Overused(id) {
				n++
			}
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
// expands the search window beyond the net bounding box. The route is
// built in the shard's buffers, and the returned route's slices are
// copies at their exact lengths.
func (s *shard) routeNet(netID int, presFac float64, margin int) *NetRoute {
	nr := &NetRoute{NetID: netID}
	pins := s.d.Nets[netID].PinIDs
	if len(pins) == 0 {
		nr.Routed = true
		return nr
	}

	// Order pins left to right for a stable, roughly monotone build. Pins
	// of one net never share (X0, Y0) on a validated design, so the order
	// is strict and every sort gives the same result.
	b := &s.build
	b.pins = append(b.pins[:0], pins...)
	slices.SortFunc(b.pins, func(a, c int) int {
		pa, pc := &s.d.Pins[a].Shape, &s.d.Pins[c].Shape
		if pa.X0 != pc.X0 {
			return cmp.Compare(pa.X0, pc.X0)
		}
		return cmp.Compare(pa.Y0, pc.Y0)
	})

	s.restoreSeeds(netID)
	win := s.window(netID, margin)
	s.nodes.reset(s.box)
	b.tree = b.tree[:0]
	b.edges = b.edges[:0]
	b.cells = s.appendPinCells(b.cells[:0], b.pins[0])
	for _, cell := range b.cells {
		s.addTreeNode(cell)
	}
	if len(b.pins) == 1 {
		nr.Nodes = exactCopy(b.tree)
		nr.Routed = true
		return nr
	}

	for _, pid := range b.pins[1:] {
		b.cells = s.appendPinCells(b.cells[:0], pid)
		already := false
		for _, cell := range b.cells {
			if s.nodes.has(s.g.Coords(cell)) {
				already = true
				break
			}
		}
		if already {
			continue
		}
		s.fitScratch(margin)
		path, ok := s.search(netID, b.tree, b.cells, win, presFac)
		if !ok {
			nr.Routed = false
			nr.FailReason = "search"
			return nr
		}
		for i, id := range path {
			s.addTreeNode(id)
			if i > 0 {
				b.edges = append(b.edges, grid.MakeEdge(path[i-1], id))
			}
		}
	}
	nr.Nodes = exactCopy(b.tree)
	nr.Edges = exactCopy(b.edges)
	nr.Routed = true
	s.computeVirtual(nr)
	return nr
}

// addTreeNode appends a node to the route tree under construction unless
// the tree already holds it.
func (s *shard) addTreeNode(id grid.NodeID) {
	if s.nodes.insert(s.g, id) {
		s.build.tree = append(s.build.tree, id)
	}
}

// exactCopy returns a copy of xs at its exact length, or nil when xs is
// empty, as an append-built route slice was.
func exactCopy[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// appendPinCells appends the grid nodes of a pin's M1 shape to dst.
func (r *Router) appendPinCells(dst []grid.NodeID, pid int) []grid.NodeID {
	sh := r.d.Pins[pid].Shape
	for y := sh.Y0; y <= sh.Y1; y++ {
		for x := sh.X0; x <= sh.X1; x++ {
			dst = append(dst, r.g.ID(x, y, tech.M1))
		}
	}
	return dst
}

// window computes the clamped search window for a net.
func (r *Router) window(netID, margin int) searchWindow {
	return rectWindow(r.clampRect(r.d.NetBBox(netID).Expand(margin)))
}

// rectWindow is the window covering a rectangle on all three layers.
func rectWindow(box geom.Rect) searchWindow {
	return searchWindow{x0: box.X0, y0: box.Y0, w: box.Width(), h: box.Height()}
}

// rules resolves the technology's multi-patterning rule engine. It is
// resolved per call rather than cached on the Router so the engine
// parameter reads stay inside every routing stage's static call graph
// (the keypurity analyzer proves cache-key coverage from those reads). A
// shard resolves it once (shard.engine).
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
// end, skipping cells already part of the route. routeNet calls it last,
// when the shard's node set holds exactly nr.Nodes.
func (s *shard) computeVirtual(nr *NetRoute) {
	margin := s.engine().clearance
	if margin == 0 {
		return
	}
	b := &s.build
	b.virt = b.virt[:0]
	b.segs = s.segmentsOf(b.segs[:0], nr)
	for _, sg := range b.segs {
		limit := s.trackLimit(sg.layer)
		for m := 1; m <= margin; m++ {
			s.addVirtual(sg, sg.span.Lo-m, limit)
			s.addVirtual(sg, sg.span.Hi+m, limit)
		}
	}
	nr.Virtual = exactCopy(b.virt)
}

// addVirtual adds the cell at coordinate c along strip sg's track as a
// clearance cell, unless it lies off the grid or the set holds it.
func (s *shard) addVirtual(sg metalSegment, c, limit int) {
	if c < 0 || c > limit-1 {
		return
	}
	id := s.g.ID(c, sg.track, tech.M2)
	if sg.layer == tech.M3 {
		id = s.g.ID(sg.track, c, tech.M3)
	}
	if s.nodes.insert(s.g, id) {
		s.build.virt = append(s.build.virt, id)
	}
}

// occupy registers a routed net's nodes (and clearance cells) on the grid
// and trims the net's unused interval reservation so other nets can use
// the freed cells (the reservation is restored if the net is ripped up).
// set is trimSeeds' scratch set.
func (r *Router) occupy(nr *NetRoute, set *nodeSet) {
	if !nr.Routed {
		return
	}
	for _, id := range nr.Nodes {
		r.g.Occupy(id)
	}
	for _, id := range nr.Virtual {
		r.g.OccupyVirtual(id)
	}
	r.trimSeeds(nr, set)
}

// trimSeeds releases seeded interval cells the final route does not use.
// set is scratch: trimSeeds resets it to the seeds' bounding box and adds
// the route's nodes inside it, so any caller's set serves and a route
// node anywhere on the grid is handled.
func (r *Router) trimSeeds(nr *NetRoute, set *nodeSet) {
	seeds := r.seededNodes[nr.NetID]
	if len(seeds) == 0 {
		return
	}
	x, y, _ := r.g.Coords(seeds[0])
	box := geom.Rect{X0: x, Y0: y, X1: x, Y1: y}
	for _, id := range seeds[1:] {
		x, y, _ := r.g.Coords(id)
		box = box.Union(geom.Rect{X0: x, Y0: y, X1: x, Y1: y})
	}
	set.reset(rectWindow(box))
	for _, id := range nr.Nodes {
		set.add(r.g.Coords(id))
	}
	for _, id := range seeds {
		if !set.has(r.g.Coords(id)) && r.g.Owner(id) == nr.NetID {
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

// congestionBuffers are stage 3's buffers.
type congestionBuffers struct {
	// touches lists every (node, member) occurrence in the routed member
	// routes, sorted stably by node: each node's users form one run, in
	// member order. A dropped member's touches turn to -1. spare is the
	// sort's second buffer.
	touches []nodeTouch
	spare   []nodeTouch
	// over marks an overused node on the first touch of its run.
	over []bool
	// cnt is each member's overused-touch count, by member index.
	cnt []int
	// dropped lists the nets stage 3 unrouted, in drop order.
	dropped []int
}

// nodeTouch is one occurrence of a node in a member route's Nodes or
// Virtual.
type nodeTouch struct {
	node   grid.NodeID
	member int32 // index into the region's Nets; -1 once dropped
}

// resolveCongestion unroutes member nets until no region node is
// overused: repeatedly drop the net crossing the most overused nodes
// (ties broken by region net order). Rather than rescanning every route
// per drop, it maintains the overused-node set and per-net overuse
// counts incrementally — only the dropped net's nodes can change state,
// since release touches no other usage. The drop sequence is identical
// to the naive full-rescan formulation. It returns the dropped nets in
// drop order, in a buffer the shard reuses.
func (s *shard) resolveCongestion() []int {
	nets := s.region.Nets
	b := &s.cong
	total := 0
	for _, netID := range nets {
		if nr := s.routes[netID]; nr.Routed {
			total += len(nr.Nodes) + len(nr.Virtual)
		}
	}
	b.touches = slices.Grow(b.touches[:0], total)
	for i, netID := range nets {
		nr := s.routes[netID]
		if !nr.Routed {
			continue
		}
		for _, id := range nr.Nodes {
			b.touches = append(b.touches, nodeTouch{id, int32(i)})
		}
		for _, id := range nr.Virtual {
			b.touches = append(b.touches, nodeTouch{id, int32(i)})
		}
	}
	b.spare = slices.Grow(b.spare[:0], total)[:total]
	b.touches, b.spare = sortTouches(b.touches, b.spare, grid.NodeID(s.g.NumNodes()-1))

	// cnt mirrors the per-net overused-touch count the naive scan would
	// compute; overN counts the overused nodes.
	b.over = resize(b.over, len(b.touches))
	b.cnt = resize(b.cnt, len(nets))
	overN := 0
	for lo := 0; lo < len(b.touches); {
		hi := b.runEnd(lo)
		if s.g.Overused(b.touches[lo].node) {
			b.over[lo] = true
			overN++
			for _, t := range b.touches[lo:hi] {
				b.cnt[t.member]++
			}
		}
		lo = hi
	}

	b.dropped = b.dropped[:0]
	for overN > 0 {
		worst, worstCount := -1, 0
		for i, c := range b.cnt {
			if c > worstCount {
				worst, worstCount = i, c
			}
		}
		if worst < 0 {
			break
		}
		nr := s.routes[nets[worst]]
		nodes, virtual := nr.Nodes, nr.Virtual
		s.release(nr)
		nr.Routed = false
		nr.FailReason = "congestion"
		nr.Nodes = nil
		nr.Edges = nil
		nr.Virtual = nil
		b.cnt[worst] = 0
		b.dropped = append(b.dropped, nets[worst])

		// Retract the dropped net's touches and re-derive the state of
		// every node it covered, once per node.
		s.nodes.reset(s.box)
		for _, id := range nodes {
			if s.nodes.insert(s.g, id) {
				overN -= s.retract(id, int32(worst))
			}
		}
		for _, id := range virtual {
			if s.nodes.insert(s.g, id) {
				overN -= s.retract(id, int32(worst))
			}
		}
	}
	return b.dropped
}

// sortTouches sorts ts stably by node with a least-significant-digit
// radix sort, 11 bits of the node ID per pass, no node above maxNode. tmp
// must be as long as ts. The passes alternate between the two buffers:
// sortTouches returns the one holding the sorted touches, then the other.
func sortTouches(ts, tmp []nodeTouch, maxNode grid.NodeID) (sorted, spare []nodeTouch) {
	const bits = 11
	var start [1 << bits]int
	for shift := 0; maxNode>>shift > 0; shift += bits {
		clear(start[:])
		for _, t := range ts {
			start[t.node>>shift&(1<<bits-1)]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, t := range ts {
			d := t.node >> shift & (1<<bits - 1)
			tmp[start[d]] = t
			start[d]++
		}
		ts, tmp = tmp, ts
	}
	return ts, tmp
}

// runEnd returns the end of the run of touches that starts at lo.
func (b *congestionBuffers) runEnd(lo int) int {
	hi := lo + 1
	for hi < len(b.touches) && b.touches[hi].node == b.touches[lo].node {
		hi++
	}
	return hi
}

// retract turns dropped member worst's touches of node id to -1 and
// returns 1 when the node leaves the overused set: when the release took
// its usage back under capacity, or when no routed member net touches it
// any more (foreign seeded occupancy alone never counts — the naive scan
// walks member routes only). The remaining users' counts fall with it.
func (s *shard) retract(id grid.NodeID, worst int32) int {
	b := &s.cong
	lo, _ := slices.BinarySearchFunc(b.touches, id, func(t nodeTouch, id grid.NodeID) int {
		return cmp.Compare(t.node, id)
	})
	run := b.touches[lo:b.runEnd(lo)]
	users := 0
	for k := range run {
		switch run[k].member {
		case worst:
			run[k].member = -1
		case -1:
		default:
			users++
		}
	}
	if !b.over[lo] || (users > 0 && s.g.Overused(id)) {
		return 0
	}
	b.over[lo] = false
	for _, t := range run {
		if t.member >= 0 {
			b.cnt[t.member]--
		}
	}
	return 1
}

// resize returns xs with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}
