package router

// The reference routing stages: routeNet, pinCells, computeVirtual,
// segmentsOf, occupy, trimSeeds, congestedCounts, overusedCount,
// resolveCongestion and enforceLineEndRules as they stood when they
// built with per-call maps and slices. They are kept verbatim, renamed
// with a ref prefix, with three changes: overusedCount keeps its set in a
// local map instead of a shard field, and resolveCongestion and
// enforceLineEndRules append each net they drop to a drop list. The
// differential tests below hold the live stages to them: the same
// routes, drop sequences, region summaries and grid state.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/pinaccess"
	"cpr/internal/tech"
)

// refRouteNet connects all pins of a net with sequential multi-source
// shortest-path searches. presFac scales the congestion penalty; margin
// expands the search window beyond the net bounding box.
func (s *shard) refRouteNet(netID int, presFac float64, margin int) *NetRoute {
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
	for _, cell := range s.refPinCells(ordered[0]) {
		addNode(cell)
	}
	if len(ordered) == 1 {
		nr.Routed = true
		return nr
	}

	for _, pid := range ordered[1:] {
		targets := s.refPinCells(pid)
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
	s.refComputeVirtual(nr)
	return nr
}

// refPinCells returns the grid nodes of a pin's M1 shape.
func (r *Router) refPinCells(pid int) []grid.NodeID {
	sh := r.d.Pins[pid].Shape
	cells := make([]grid.NodeID, 0, sh.Area())
	for y := sh.Y0; y <= sh.Y1; y++ {
		for x := sh.X0; x <= sh.X1; x++ {
			cells = append(cells, r.g.ID(x, y, tech.M1))
		}
	}
	return cells
}

// refComputeVirtual fills nr.Virtual with the clearance cells at every strip
// end (skipping cells already part of the route).
func (r *Router) refComputeVirtual(nr *NetRoute) {
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
	for _, s := range r.refSegmentsOf(nr) {
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

// refSegmentsOf decomposes a route into per-track metal strips on the routing
// layers, including via-only landings (single-cell strips). Segments come
// M2 before M3, tracks ascending, then coordinates ascending: seg order
// flows into nr.Virtual and from there into the result, so it depends on
// the node set only, never on node order.
func (r *Router) refSegmentsOf(nr *NetRoute) []metalSegment {
	// One sort key per metal cell: layer (M3 in the top bit), track in
	// the high word, coordinate along the track in the low word.
	keys := make([]uint64, 0, len(nr.Nodes))
	for _, id := range nr.Nodes {
		x, y, z := r.g.Coords(id)
		switch z {
		case tech.M2:
			keys = append(keys, uint64(y)<<32|uint64(x))
		case tech.M3:
			keys = append(keys, 1<<63|uint64(x)<<32|uint64(y))
		}
	}
	slices.Sort(keys)

	// A cell starts a new strip unless it continues the previous cell's
	// strip on the same track (equal or next coordinate).
	continues := func(i int) bool {
		return i > 0 && keys[i]>>32 == keys[i-1]>>32 && uint32(keys[i]) <= uint32(keys[i-1])+1
	}
	n := 0
	for i := range keys {
		if !continues(i) {
			n++
		}
	}
	segs := make([]metalSegment, 0, n)
	for i, k := range keys {
		c := int(uint32(k))
		if continues(i) {
			segs[len(segs)-1].span.Hi = c
			continue
		}
		layer := tech.M2
		if k>>63 == 1 {
			layer = tech.M3
		}
		segs = append(segs, metalSegment{
			netID: nr.NetID,
			layer: layer,
			track: int(k >> 32 & (1<<31 - 1)),
			span:  geom.Interval{Lo: c, Hi: c},
		})
	}
	return segs
}

// refOccupy registers a routed net's nodes (and clearance cells) on the grid
// and trims the net's unused interval reservation so other nets can use
// the freed cells (the reservation is restored if the net is ripped up).
func (r *Router) refOccupy(nr *NetRoute) {
	if !nr.Routed {
		return
	}
	for _, id := range nr.Nodes {
		r.g.Occupy(id)
	}
	for _, id := range nr.Virtual {
		r.g.OccupyVirtual(id)
	}
	r.refTrimSeeds(nr)
}

// refTrimSeeds releases seeded interval cells the final route does not use.
func (r *Router) refTrimSeeds(nr *NetRoute) {
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

// refCongestedCounts walks the region's routed nets and counts
// metal-congested nodes, deduplicated. Every congested node carries at
// least one member route's metal (occupancy comes only from refOccupy), so
// the walk equals a grid scan restricted to the region — without reading
// any cell other shards could be writing.
func (s *shard) refCongestedCounts() (int, [tech.NumLayers]int) {
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

// refOverusedCount counts overused nodes (any usage, including line-end
// clearance overlap) among the region's routes, deduplicated. Equals a
// global grid scan when the region covers all routed nets.
func (s *shard) refOverusedCount() int {
	n := 0
	seen := make(map[grid.NodeID]struct{})
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

// refResolveCongestion unroutes member nets until no region node is
// overused: repeatedly drop the net crossing the most overused nodes
// (ties broken by region net order). Rather than rescanning every route
// per drop, it maintains the overused-node set and per-net overuse
// counts incrementally — only the dropped net's nodes can change state,
// since release touches no other usage. The drop sequence is identical
// to the naive full-rescan formulation.
func (s *shard) refResolveCongestion(drops *[]int) int {
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
		*drops = append(*drops, worst)

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

// refEnforceLineEndRules extends every routed member net's line-ends per
// the technology's rule engine and checks the engine's track-level tip
// rules between diff-net strips on the same track plus overlap with
// blockages. Violating nets are first ripped up and rerouted with other
// nets' extended clearance zones forbidden (the paper's "line-end
// extensions and rip-up and reroute to accommodate the manufacturing
// constraints"); nets that still violate are unrouted. Region-local:
// only the shard's member nets can produce strips inside the region's
// influence rectangles, so no cross-region strip can appear on a shared
// track. Returns the number of nets unrouted.
func (s *shard) refEnforceLineEndRules(drops *[]int) int {
	r := s.Router
	rules := r.rules()

	limitFor := func(layer int) int {
		if layer == tech.M2 {
			return r.d.Width
		}
		return r.d.Height
	}

	// netStrips holds each member net's extended strips, parallel to
	// s.region.Nets. A net's entry is computed here and recomputed only
	// when a reroute replaces its route; a net that is not routed is
	// skipped wherever strips are read, so its entry may be stale.
	extended := func(nr *NetRoute) []metalSegment {
		segs := r.refSegmentsOf(nr)
		for i := range segs {
			seg := &segs[i]
			seg.span.Lo, seg.span.Hi = rules.ExtendSpan(seg.span.Lo, seg.span.Hi, limitFor(seg.layer))
		}
		return segs
	}
	netStrips := make([][]metalSegment, len(s.region.Nets))
	routed := func(netID int) bool {
		nr := s.routes[netID]
		return nr != nil && nr.Routed
	}
	for i, netID := range s.region.Nets {
		if routed(netID) {
			netStrips[i] = extended(s.routes[netID])
		}
	}

	// Collect extended segments per (layer, track), in member net order.
	type trackKey struct{ layer, track int }
	build := func() map[trackKey][]metalSegment {
		byTrack := make(map[trackKey][]metalSegment)
		for i, netID := range s.region.Nets {
			if !routed(netID) {
				continue
			}
			for _, seg := range netStrips[i] {
				k := trackKey{seg.layer, seg.track}
				byTrack[k] = append(byTrack[k], seg)
			}
		}
		for k := range byTrack {
			segs := byTrack[k]
			sort.Slice(segs, func(a, b int) bool {
				if segs[a].span.Lo != segs[b].span.Lo {
					return segs[a].span.Lo < segs[b].span.Lo
				}
				return segs[a].netID < segs[b].netID
			})
			byTrack[k] = segs
		}
		return byTrack
	}

	// violationsPerNet counts the engine's track rule violations and
	// blockage violations.
	violationsPerNet := func(byTrack map[trackKey][]metalSegment) map[int]int {
		vio := make(map[int]int)
		for k, segs := range byTrack {
			strips := make([]tech.Seg, len(segs))
			for i, seg := range segs {
				strips[i] = tech.Seg{
					Net:   seg.netID,
					Layer: k.layer,
					Track: k.track,
					Lo:    seg.span.Lo,
					Hi:    seg.span.Hi,
				}
			}
			rules.TrackViolations(strips, func(net int) { vio[net]++ })
			// Blockage overlap on the same layer/track.
			for _, seg := range segs {
				if r.segmentHitsBlockage(k.layer, k.track, seg.span) {
					vio[seg.netID]++
				}
			}
		}
		return vio
	}

	// markAvoid fills the avoid set with the routed nets' extended strips
	// plus the extra clearance a rerouted net's own extension will need
	// (the engine's avoid margin: other strips are already extended, so
	// the margin keeps the final gap legal for a rerouted net whose mask
	// assignment is not yet known).
	box := rectWindow(s.region.Bounds())
	markAvoid := func() {
		margin := rules.AvoidMargin()
		s.avoid.reset(box)
		for i, netID := range s.region.Nets {
			if !routed(netID) {
				continue
			}
			for _, seg := range netStrips[i] {
				lo, hi := max(seg.span.Lo-margin, 0), min(seg.span.Hi+margin, limitFor(seg.layer)-1)
				for c := lo; c <= hi; c++ {
					if seg.layer == tech.M2 {
						s.avoid.add(c, seg.track, tech.M2)
					} else {
						s.avoid.add(seg.track, c, tech.M3)
					}
				}
			}
		}
	}

	// Phase 1: rip up and reroute violating nets away from other nets'
	// clearance zones. Prefer moving nets with larger routes (more room
	// to detour). A net whose reroute fails keeps its old route and is
	// not retried.
	tried := make(map[int]bool)
	margin := r.cfg.WindowMargin + r.cfg.WindowGrowth*(r.cfg.MaxNegotiationIters+1)
	maxRounds := 2 * len(s.region.Nets)
	if maxRounds > 200 {
		maxRounds = 200
	}
	for round := 0; round < maxRounds; round++ {
		vio := violationsPerNet(build())
		if len(vio) == 0 {
			return 0
		}
		pick := -1
		for netID := range vio {
			if tried[netID] {
				continue
			}
			if pick < 0 ||
				len(s.routes[netID].Nodes) > len(s.routes[pick].Nodes) ||
				(len(s.routes[netID].Nodes) == len(s.routes[pick].Nodes) && netID > pick) {
				pick = netID
			}
		}
		if pick < 0 {
			break // every violating net already tried
		}
		tried[pick] = true
		old := *s.routes[pick]
		r.release(s.routes[pick])
		s.routes[pick].Routed = false
		markAvoid()
		rerouted := s.refRouteNet(pick, r.cfg.PresentCostBase, margin)
		s.avoid.clear()
		if rerouted.Routed {
			*s.routes[pick] = *rerouted
			i, _ := slices.BinarySearch(s.region.Nets, pick)
			netStrips[i] = extended(s.routes[pick])
		} else {
			*s.routes[pick] = old
		}
		r.refOccupy(s.routes[pick])
	}

	// Phase 2: drop nets that still violate, most-violating first.
	dropped := 0
	for iter := 0; iter < len(s.region.Nets); iter++ {
		vio := violationsPerNet(build())
		if len(vio) == 0 {
			break
		}
		worst, worstCount := -1, 0
		for netID, count := range vio {
			if count > worstCount || (count == worstCount && netID > worst) {
				worst, worstCount = netID, count
			}
		}
		if worst < 0 {
			break
		}
		r.release(s.routes[worst])
		s.routes[worst].Routed = false
		s.routes[worst].FailReason = "drc"
		s.routes[worst].Nodes = nil
		s.routes[worst].Edges = nil
		s.routes[worst].Virtual = nil
		dropped++
		*drops = append(*drops, worst)
	}
	return dropped
}

// refNegotiate is stages 1 and 2 of a cold region as shard.run runs them,
// without telemetry, on the reference stage code.
func (s *shard) refNegotiate() RegionSummary {
	var sum RegionSummary
	sum.Nets = len(s.region.Nets)
	order := s.netOrderOf(s.region.Nets)
	for _, netID := range order {
		nr := s.refRouteNet(netID, 0, s.cfg.WindowMargin)
		s.routes[netID] = nr
		s.refOccupy(nr)
	}
	sum.InitialCongested, sum.InitialCongestedByLayer = s.refCongestedCounts()
	presFac := s.cfg.PresentCostBase
	bestOveruse := 1 << 30
	stall := 0
	for iter := 1; iter <= s.cfg.MaxNegotiationIters; iter++ {
		over := s.refOverusedCount()
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
		sum.NegotiationIters = iter
		s.chargeHistory()
		margin := min(s.cfg.WindowMargin+s.cfg.WindowGrowth*iter, s.cfg.MaxWindowMargin)
		for _, netID := range order {
			nr := s.routes[netID]
			if nr.Routed && !s.usesOverused(nr) {
				continue
			}
			s.release(nr)
			newRoute := s.refRouteNet(netID, presFac, margin)
			s.routes[netID] = newRoute
			s.refOccupy(newRoute)
		}
		presFac *= s.cfg.PresentCostGrowth
	}
	return sum
}

// stageCase is one random congested routing problem: a design under one
// rule engine, a configuration, and the pin access assignment every
// router built by newRouter is seeded with.
type stageCase struct {
	d   *design.Design
	cfg Config
	set *pinaccess.Set
	sol *assign.Solution
}

// newStageCase draws clusters of two- to four-pin nets packed into small
// boxes on a wide grid, so the routing problem is congested and splits
// into one to three regions, plus random blockages, under random line-end
// rules that make stage 4 drop nets. About half the cases
// stop negotiation after one to three rounds, which leaves congestion
// for stage 3 to drop. It reports false for a draw that fails
// validation.
func newStageCase(seed int64) (*stageCase, bool) {
	rng := rand.New(rand.NewSource(seed))
	tc := *tech.Default()
	tc.Patterning.Engine = []string{tech.EngineSADP, tech.EngineLELE, tech.EngineTPL}[seed%3]
	tc.LineEndExtension = rng.Intn(3)
	tc.MinLineLen = 2 + rng.Intn(3)
	tc.LineEndSpacing = 1 + rng.Intn(3)
	clusters := 1 + rng.Intn(3)
	w, h := 150*clusters+rng.Intn(60), 20+10*rng.Intn(2)
	d := design.New(fmt.Sprintf("stages-%d", seed), w, h, &tc)
	used := make(map[[2]int]bool)
	for c := 0; c < clusters; c++ {
		// Clusters 150 columns apart sometimes share a region and
		// sometimes do not.
		cx, cw := 150*c+rng.Intn(110), 20+rng.Intn(21)
		for n := 6 + rng.Intn(9); n > 0; n-- {
			netID := d.AddNet(fmt.Sprintf("n%d", len(d.Nets)))
			for p := 2 + rng.Intn(3); p > 0; p-- {
				x, y := cx+rng.Intn(cw), rng.Intn(h)
				y1 := y + rng.Intn(2)
				if y1%10 == 0 || y1 >= h {
					y1 = y
				}
				if used[[2]int{x, y}] || used[[2]int{x, y1}] {
					continue
				}
				used[[2]int{x, y}], used[[2]int{x, y1}] = true, true
				d.AddPin(fmt.Sprintf("p%d", len(d.Pins)), netID, geom.MakeRect(x, y, x, y1))
			}
		}
	}
	for b := rng.Intn(1 + w*h/400); b > 0; b-- {
		x, y := rng.Intn(w), rng.Intn(h)
		rect := geom.MakeRect(x, y, min(x+rng.Intn(4), w-1), min(y+rng.Intn(3), h-1))
		layer := tech.M2 + rng.Intn(2)
		if slices.ContainsFunc(d.Pins, func(p design.Pin) bool { return p.Shape.Overlaps(rect) }) {
			continue
		}
		d.AddBlockage(layer, rect)
	}
	if d.Validate() != nil {
		return nil, false
	}
	pins := make([]int, len(d.Pins))
	for i := range pins {
		pins[i] = i
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
	if err != nil {
		return nil, false
	}
	cfg := Config{}
	if rng.Intn(2) == 0 {
		cfg.MaxNegotiationIters = 1 + rng.Intn(3)
	}
	return &stageCase{d: d, cfg: cfg, set: set, sol: assign.Build(set, assign.SqrtProfit).MinimumSolution()}, true
}

// newRouter returns a fresh, seeded router on its own grid. Every router
// of a case starts from the same state.
func (c *stageCase) newRouter() *Router {
	r := New(c.d, grid.New(c.d), c.cfg)
	r.SeedAssignment(c.set, c.sol)
	return r
}

// regionShard is a cold shard of rg, as RunPlan builds it.
func regionShard(r *Router, rg *Region, routes []*NetRoute) *shard {
	return &shard{Router: r, region: rg, box: rectWindow(rg.Bounds()), routes: routes, seedOcc: true, shardScratch: new(shardScratch)}
}

// diffGrids fails on the first node whose owner, occupancy or history
// differs between the two grids.
func diffGrids(t *testing.T, what string, got, want *grid.Graph) {
	t.Helper()
	for id := grid.NodeID(0); int(id) < got.NumNodes(); id++ {
		if got.Owner(id) != want.Owner(id) || got.Occupancy(id) != want.Occupancy(id) ||
			got.History(id) != want.History(id) || got.MetalCongested(id) != want.MetalCongested(id) {
			x, y, z := got.Coords(id)
			t.Fatalf("%s: node (%d,%d,L%d) owner/occ/hist %d/%d/%v, reference %d/%d/%v", what, x, y, z,
				got.Owner(id), got.Occupancy(id), got.History(id), want.Owner(id), want.Occupancy(id), want.History(id))
		}
	}
}

// diffRoutes fails on the first net whose route differs, nil slices and
// empty ones told apart.
func diffRoutes(t *testing.T, what string, got, want []*NetRoute) {
	t.Helper()
	for netID := range want {
		if !reflect.DeepEqual(got[netID], want[netID]) {
			t.Fatalf("%s: net %d route\n got %+v\nwant %+v", what, netID, got[netID], want[netID])
		}
	}
}

// stageCases is how many random cases each differential test draws.
func stageCases() int64 {
	if testing.Short() {
		return 12
	}
	return 45
}

// TestRunPlanMatchesReferenceStages routes each case with RunPlan at 1, 2
// and 8 workers and, on a second identical router, region by region with
// the reference stages, and requires identical routes, region summaries
// and grids.
func TestRunPlanMatchesReferenceStages(t *testing.T) {
	ran, drops := 0, 0
	for seed := int64(1); seed <= stageCases(); seed++ {
		c, ok := newStageCase(seed)
		if !ok {
			continue
		}
		ran++
		ref := c.newRouter()
		plan := ref.Partition()
		refRoutes := make([]*NetRoute, len(c.d.Nets))
		refSums := make([]RegionSummary, len(plan.Regions))
		for _, rg := range plan.Regions {
			s := regionShard(ref, rg, refRoutes)
			sum := s.refNegotiate()
			var dropped []int
			sum.CongestionUnrouted = s.refResolveCongestion(&dropped)
			sum.DRCUnrouted = s.refEnforceLineEndRules(&dropped)
			refSums[rg.ID] = sum
			drops += len(dropped)
		}
		for _, workers := range []int{1, 2, 8} {
			r := c.newRouter()
			res := r.RunPlan(context.Background(), r.Partition(), RunOpts{Workers: workers})
			what := fmt.Sprintf("seed %d (%s, %d regions) workers %d", seed, c.d.Tech.Patterning.Engine, len(plan.Regions), workers)
			diffRoutes(t, what, res.Routes, refRoutes)
			if !reflect.DeepEqual(res.RegionSummaries, refSums) {
				t.Fatalf("%s: summaries\n got %+v\nwant %+v", what, res.RegionSummaries, refSums)
			}
			diffGrids(t, what, r.g, ref.g)
		}
	}
	if ran == 0 || drops == 0 {
		t.Fatalf("%d cases ran and dropped %d nets: the cases do not exercise stages 3 and 4", ran, drops)
	}
}

// TestStagesMatchReference brings two identical routers to the same state
// with the reference stages 1 and 2, region by region, then runs the live
// counts and stages 3 and 4 on one and the reference ones on the other.
// Counts, drop sequences, routes and grids must agree after each stage.
// It then checks computeVirtual on every final route and trimSeeds on
// freshly seeded routers.
func TestStagesMatchReference(t *testing.T) {
	congestion, drc := 0, 0
	for seed := int64(1); seed <= stageCases(); seed++ {
		c, ok := newStageCase(seed)
		if !ok {
			continue
		}
		live, ref := c.newRouter(), c.newRouter()
		routes, refRoutes := make([]*NetRoute, len(c.d.Nets)), make([]*NetRoute, len(c.d.Nets))
		for _, rg := range live.Partition().Regions {
			what := fmt.Sprintf("seed %d (%s) region %d", seed, c.d.Tech.Patterning.Engine, rg.ID)
			s, rs := regionShard(live, rg, routes), regionShard(ref, rg, refRoutes)
			s.refNegotiate()
			rs.refNegotiate()
			if got, want := s.overusedCount(), rs.refOverusedCount(); got != want {
				t.Fatalf("%s: overusedCount %d, reference %d", what, got, want)
			}
			gotN, gotL := s.congestedCounts()
			wantN, wantL := rs.refCongestedCounts()
			if gotN != wantN || gotL != wantL {
				t.Fatalf("%s: congestedCounts %d %v, reference %d %v", what, gotN, gotL, wantN, wantL)
			}

			var want []int
			got := slices.Clone(s.resolveCongestion())
			rs.refResolveCongestion(&want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: stage 3 drops %v, reference %v", what, got, want)
			}
			diffRoutes(t, what+" stage 3", routes, refRoutes)
			diffGrids(t, what+" stage 3", live.g, ref.g)
			congestion += len(got)

			want = nil
			got = slices.Clone(s.enforceLineEndRules())
			rs.refEnforceLineEndRules(&want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: stage 4 drops %v, reference %v", what, got, want)
			}
			diffRoutes(t, what+" stage 4", routes, refRoutes)
			diffGrids(t, what+" stage 4", live.g, ref.g)
			drc += len(got)
		}

		for _, nr := range routes {
			if !nr.Routed {
				continue
			}
			cp := nr.Clone()
			live.refComputeVirtual(cp)
			if !slices.Equal(nr.Virtual, cp.Virtual) {
				t.Fatalf("seed %d net %d: Virtual %v, reference %v", seed, nr.NetID, nr.Virtual, cp.Virtual)
			}
		}

		// trimSeeds on fresh routers, every net's final route in turn.
		tl, tr := c.newRouter(), c.newRouter()
		var set nodeSet
		for _, nr := range routes {
			tl.trimSeeds(nr, &set)
			tr.refTrimSeeds(nr)
		}
		diffGrids(t, fmt.Sprintf("seed %d trimSeeds", seed), tl.g, tr.g)
	}
	if congestion == 0 || drc == 0 {
		t.Fatalf("stage 3 dropped %d nets and stage 4 %d: the cases do not exercise both", congestion, drc)
	}
}

// TestByLoNetMatchesSortSlice holds stage 4's per-track sort to the
// sort.Slice call it replaced on tie-heavy random tracks: equal (Lo, net)
// strips, such as two strips of one net clamped to Lo = 0, must end in
// the same order.
func TestByLoNetMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		segs := make([]metalSegment, 1+rng.Intn(40))
		for i := range segs {
			segs[i] = metalSegment{
				netID: rng.Intn(4),
				track: i, // tells equal strips apart
				span:  geom.Interval{Lo: rng.Intn(4), Hi: rng.Intn(8)},
			}
		}
		want := slices.Clone(segs)
		sort.Slice(want, func(a, b int) bool {
			if want[a].span.Lo != want[b].span.Lo {
				return want[a].span.Lo < want[b].span.Lo
			}
			return want[a].netID < want[b].netID
		})
		got := byLoNet(slices.Clone(segs))
		sort.Sort(&got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sort.Sort\n%v\nsort.Slice\n%v", trial, got, want)
		}
	}
}

// refTrackViolations is the reference stage 4's violation pass, its build
// and violationsPerNet closures verbatim: the strips of each (layer,
// track) in a map, each track sorted with sort.Slice.
func (s *shard) refTrackViolations(netStrips [][]metalSegment) map[int]int {
	r := s.Router
	rules := r.rules()
	routed := func(netID int) bool {
		nr := s.routes[netID]
		return nr != nil && nr.Routed
	}

	// Collect extended segments per (layer, track), in member net order.
	type trackKey struct{ layer, track int }
	build := func() map[trackKey][]metalSegment {
		byTrack := make(map[trackKey][]metalSegment)
		for i, netID := range s.region.Nets {
			if !routed(netID) {
				continue
			}
			for _, seg := range netStrips[i] {
				k := trackKey{seg.layer, seg.track}
				byTrack[k] = append(byTrack[k], seg)
			}
		}
		for k := range byTrack {
			segs := byTrack[k]
			sort.Slice(segs, func(a, b int) bool {
				if segs[a].span.Lo != segs[b].span.Lo {
					return segs[a].span.Lo < segs[b].span.Lo
				}
				return segs[a].netID < segs[b].netID
			})
			byTrack[k] = segs
		}
		return byTrack
	}

	// violationsPerNet counts the engine's track rule violations and
	// blockage violations.
	violationsPerNet := func(byTrack map[trackKey][]metalSegment) map[int]int {
		vio := make(map[int]int)
		for k, segs := range byTrack {
			strips := make([]tech.Seg, len(segs))
			for i, seg := range segs {
				strips[i] = tech.Seg{
					Net:   seg.netID,
					Layer: k.layer,
					Track: k.track,
					Lo:    seg.span.Lo,
					Hi:    seg.span.Hi,
				}
			}
			rules.TrackViolations(strips, func(net int) { vio[net]++ })
			// Blockage overlap on the same layer/track.
			for _, seg := range segs {
				if r.segmentHitsBlockage(k.layer, k.track, seg.span) {
					vio[seg.netID]++
				}
			}
		}
		return vio
	}
	return violationsPerNet(build())
}

// TestCountViolationsMatchesReference holds stage 4's violation pass to
// the reference on crowded random tracks: ten nets put up to eight short
// strips each on two tracks per layer, half of them at the grid edge, so
// most tracks hold more than twelve strips (where sort.Slice stops being
// an insertion sort) and many strips tie on (Lo, net).
func TestCountViolationsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		tc := *tech.Default()
		tc.Patterning.Engine = []string{tech.EngineSADP, tech.EngineLELE, tech.EngineTPL}[trial%3]
		tc.LineEndSpacing = 1 + rng.Intn(3)
		const nets, w, h = 10, 40, 12
		d := design.New("vio", w, h, &tc)
		for i := 0; i < nets; i++ {
			d.AddNet(fmt.Sprintf("n%d", i))
		}
		for b := rng.Intn(3); b > 0; b-- {
			x, y := rng.Intn(w), rng.Intn(2)
			d.AddBlockage(tech.M2+rng.Intn(2), geom.MakeRect(x, y, x, y))
		}
		r := New(d, grid.New(d), Config{})
		routes := make([]*NetRoute, nets)
		for i := range routes {
			routes[i] = &NetRoute{NetID: i, Routed: rng.Intn(6) > 0}
		}
		s := r.wholeShard(routes)
		b := &s.drc
		b.from, b.to, b.vio = make([]int, nets), make([]int, nets), make([]int, nets)
		netStrips := make([][]metalSegment, nets)
		for i := 0; i < nets; i++ {
			b.from[i] = len(b.strips)
			for k := rng.Intn(9); k > 0; k-- {
				layer := tech.M2 + rng.Intn(2)
				limit := r.trackLimit(layer)
				lo := 0 // half the strips clamp to the grid edge
				if rng.Intn(2) == 0 {
					lo = rng.Intn(limit - 3)
				}
				seg := metalSegment{netID: i, layer: layer, track: rng.Intn(2),
					span: geom.Interval{Lo: lo, Hi: min(lo+rng.Intn(4), limit-1)}}
				b.strips = append(b.strips, seg)
				netStrips[i] = append(netStrips[i], seg)
			}
			b.to[i] = len(b.strips)
		}
		s.countViolations()
		got := make(map[int]int)
		for _, i := range b.violating {
			got[s.region.Nets[i]] = b.vio[i]
		}
		if want := s.refTrackViolations(netStrips); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s): violations %v, reference %v", trial, tc.Patterning.Engine, got, want)
		}
	}
}

// TestSortTouchesMatchesStableSort holds stage 3's radix sort to a stable
// sort by node, on random touch lists that reuse a few nodes so equal
// nodes are common, with node IDs that take one to three passes.
func TestSortTouchesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf, spare []nodeTouch
	for trial := 0; trial < 400; trial++ {
		maxNode := grid.NodeID([]int{100, 1 << 12, 1 << 20, 1 << 30}[trial%4])
		pool := make([]grid.NodeID, 1+rng.Intn(20))
		for i := range pool {
			pool[i] = grid.NodeID(rng.Int63n(int64(maxNode) + 1))
		}
		ts := make([]nodeTouch, rng.Intn(300))
		for i := range ts {
			// member records the input position, which equal nodes keep.
			ts[i] = nodeTouch{node: pool[rng.Intn(len(pool))], member: int32(i)}
		}
		want := slices.Clone(ts)
		slices.SortStableFunc(want, func(a, b nodeTouch) int { return cmp.Compare(a.node, b.node) })
		buf = append(buf[:0], ts...)
		spare = slices.Grow(spare[:0], len(ts))[:len(ts)]
		buf, spare = sortTouches(buf, spare, maxNode)
		if !slices.Equal(buf, want) {
			t.Fatalf("trial %d (max node %d): radix sort\n%v\nstable sort\n%v", trial, maxNode, buf, want)
		}
	}
}
