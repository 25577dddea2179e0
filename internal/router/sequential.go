package router

import (
	"sort"

	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// SequentialConfig tunes the sequential pin-access-planning baseline
// (the PARR-style router of reference [12] in the paper).
//
//keypurity:options
type SequentialConfig struct {
	// RetryRounds is the number of deferred-net retry passes (net
	// deferring with dynamic reordering; default 3).
	RetryRounds int
	// WindowMargin is the base search window margin (default 8).
	WindowMargin int
	// MaxRipsPerNet bounds how many times a committed net may be ripped
	// up to make room for a failing net (default 2).
	MaxRipsPerNet int
	// VictimsPerFailure bounds how many committed nets are ripped per
	// failed net (default 4).
	VictimsPerFailure int
}

func (c SequentialConfig) withDefaults() SequentialConfig {
	if c.RetryRounds == 0 {
		c.RetryRounds = 3
	}
	if c.WindowMargin == 0 {
		c.WindowMargin = 8
	}
	if c.MaxRipsPerNet == 0 {
		c.MaxRipsPerNet = 2
	}
	if c.VictimsPerFailure == 0 {
		c.VictimsPerFailure = 4
	}
	return c
}

// RunSequential routes the design with the sequential pin access planning
// scheme of [12]: nets are processed one at a time; each net greedily
// plans the longest available pin access interval per pin given every
// earlier commitment as a hard blockage, routes with committed routes and
// their line-end clearance zones forbidden (design rule legalization
// during routing), and commits the result. Failed nets are deferred and
// retried with wider windows. The output is design-rule-clean by
// construction, mirroring the paper's description of [12].
func (r *Router) RunSequential(cfg SequentialConfig) *Result {
	start := now()
	cfg = cfg.withDefaults()
	res := &Result{Routes: make([]*NetRoute, len(r.d.Nets)), Regions: 1}
	for i := range res.Routes {
		res.Routes[i] = &NetRoute{NetID: i}
	}

	// The sequential baseline routes the whole design as one shard (no
	// region decomposition): the shard carries the avoid set and the
	// route table its search needs.
	s := r.wholeShard(res.Routes)
	s.avoid.reset(s.box)

	// One-sided clearance: committed strips block later metal within the
	// rule engine's full sequential distance (later nets' own extensions
	// are not yet known, so the whole clearance burden falls on the avoid
	// zone).
	clearance := r.rules().SequentialClearance()

	// The avoid set accumulates committed nets' line-end clearance zones;
	// avoidCount holds each cell's reference count, so a rip-up removes
	// exactly its own contribution (sequential design rule legalization).
	avoidCount := make(map[grid.NodeID]int)

	// Upfront pin access planning (the "planning" half of [12]): every
	// pin's M2 shadow is reserved for its net before any routing, so no
	// net can wire over a foreign pin's only landing cells. Reservations
	// are disjoint because pin shapes are disjoint.
	for i := range r.d.Pins {
		p := &r.d.Pins[i]
		for y := p.Shape.Y0; y <= p.Shape.Y1; y++ {
			for x := p.Shape.X0; x <= p.Shape.X1; x++ {
				id := r.g.ID(x, y, tech.M2)
				if r.g.Owner(id) == -1 && !r.g.Blocked(id) {
					r.g.SetOwner(id, p.NetID)
				}
			}
		}
	}

	// clearanceCells calls cell for every cell of a route's line-end
	// clearance zone.
	clearanceCells := func(nr *NetRoute, cell func(x, y, z int)) {
		s.build.segs = s.segmentsOf(s.build.segs[:0], nr)
		for _, seg := range s.build.segs {
			limit := r.d.Width
			if seg.layer == tech.M3 {
				limit = r.d.Height
			}
			lo, hi := seg.span.Lo-clearance, seg.span.Hi+clearance
			if lo < 0 {
				lo = 0
			}
			if hi > limit-1 {
				hi = limit - 1
			}
			for c := lo; c <= hi; c++ {
				if seg.layer == tech.M2 {
					cell(c, seg.track, tech.M2)
				} else {
					cell(seg.track, c, tech.M3)
				}
			}
		}
	}

	// addClearance/removeClearance maintain the counted avoid set.
	addClearance := func(nr *NetRoute) {
		clearanceCells(nr, func(x, y, z int) {
			avoidCount[r.g.ID(x, y, z)]++
			s.avoid.add(x, y, z)
		})
	}
	removeClearance := func(nr *NetRoute) {
		clearanceCells(nr, func(x, y, z int) {
			id := r.g.ID(x, y, z)
			avoidCount[id]--
			if avoidCount[id] <= 0 {
				delete(avoidCount, id)
				s.avoid.remove(x, y, z)
			}
		})
	}

	commit := func(nr *NetRoute) {
		// Hard-commit route nodes via ownership and record clearance.
		for _, id := range nr.Nodes {
			if _, _, z := r.g.Coords(id); z != tech.M1 {
				r.g.SetOwner(id, nr.NetID)
			}
		}
		r.occupy(nr, &s.nodes)
		addClearance(nr)
	}

	// rip removes a committed net: occupancy, clearance, and ownership of
	// its routing nodes.
	rip := func(nr *NetRoute) {
		removeClearance(nr)
		r.release(nr)
		for _, id := range nr.Nodes {
			if _, _, z := r.g.Coords(id); z != tech.M1 && r.g.Owner(id) == nr.NetID {
				r.g.ClearOwner(id)
			}
		}
		// Restore the net's upfront pin shadow reservations, which may
		// have doubled as route cells.
		for _, pid := range r.d.Nets[nr.NetID].PinIDs {
			p := &r.d.Pins[pid]
			for y := p.Shape.Y0; y <= p.Shape.Y1; y++ {
				for x := p.Shape.X0; x <= p.Shape.X1; x++ {
					id := r.g.ID(x, y, tech.M2)
					if r.g.Owner(id) == -1 && !r.g.Blocked(id) {
						r.g.SetOwner(id, p.NetID)
					}
				}
			}
		}
		nr.Routed = false
		nr.Nodes = nil
		nr.Edges = nil
		nr.Virtual = nil
	}

	// findVictims returns up to k committed nets with routing inside the
	// failed net's expanded bounding box, most-overlapping first.
	findVictims := func(netID, margin, k int, ripCount map[int]int) []int {
		box := r.d.NetBBox(netID).Expand(margin)
		var cands []ripCand
		for otherID, nr := range res.Routes {
			if otherID == netID || !nr.Routed || ripCount[otherID] >= cfg.MaxRipsPerNet {
				continue
			}
			// Cheap reject: a net whose own expanded bbox misses the
			// failed net's region cannot overlap it.
			if !r.d.NetBBox(otherID).Expand(margin).Overlaps(box) {
				continue
			}
			count := 0
			for _, id := range nr.Nodes {
				x, y, z := r.g.Coords(id)
				if z != tech.M1 && box.Contains(x, y) {
					count++
				}
			}
			if count > 0 {
				cands = append(cands, ripCand{otherID, count})
			}
		}
		sortCands(cands)
		var victims []int
		for i := 0; i < len(cands) && i < k; i++ {
			victims = append(victims, cands[i].net)
		}
		return victims
	}

	tryRoute := func(netID, margin int) bool {
		planned := s.planPinAccess(netID)
		nr := s.routeNetSequential(netID, margin)
		s.releasePlan(planned, nr)
		res.Routes[netID] = nr
		if nr.Routed {
			commit(nr)
			return true
		}
		return false
	}

	pending := r.netOrder()
	ripCount := make(map[int]int)
	margin := cfg.WindowMargin
	for round := 0; round <= cfg.RetryRounds && len(pending) > 0; round++ {
		t0 := now()
		var deferred []int
		for _, netID := range pending {
			if tryRoute(netID, margin) {
				continue
			}
			if round == 0 {
				deferred = append(deferred, netID)
				continue
			}
			// Rip up and reroute: evict the committed nets crowding the
			// failed net's region, route it, then re-commit the victims.
			victims := findVictims(netID, margin, cfg.VictimsPerFailure, ripCount)
			if len(victims) == 0 {
				deferred = append(deferred, netID)
				continue
			}
			for _, v := range victims {
				ripCount[v]++
				rip(res.Routes[v])
			}
			if !tryRoute(netID, margin) {
				deferred = append(deferred, netID)
			}
			for _, v := range victims {
				if !tryRoute(v, margin) {
					deferred = append(deferred, v)
				}
			}
		}
		pending = deferred
		// Deferred nets retry with doubling windows (escalating detour
		// search — the runtime cost the paper attributes to [12]).
		margin *= 2
		// The first pass is the independent-routing stage's time, the
		// retry rounds (rip-up and reroute) negotiation's.
		res.StageElapsed[min(round, 1)] += since(t0)
	}
	for _, netID := range pending {
		res.Routes[netID].Routed = false
		if res.Routes[netID].FailReason == "" {
			res.Routes[netID].FailReason = "search"
		}
	}

	for _, nr := range res.Routes {
		if nr.Routed {
			res.RoutedNets++
			res.Vias += nr.Vias(r.g)
			res.Wirelength += nr.Wirelength(r.g)
		}
	}
	res.Search = s.scratch.work
	res.Elapsed = since(start)
	return res
}

// ripCand is a rip-up candidate: a committed net and its node overlap with
// the failing net's region.
type ripCand struct{ net, count int }

// sortCands orders rip-up candidates by overlap count descending, then by
// net ID for determinism.
func sortCands(cands []ripCand) {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].count != cands[b].count {
			return cands[a].count > cands[b].count
		}
		return cands[a].net < cands[b].net
	})
}

// routeNetSequential routes one net with committed nets hard-blocked; the
// avoid set carries their line-end clearance, making each commitment
// rule-clean against earlier ones.
func (s *shard) routeNetSequential(netID, margin int) *NetRoute {
	return s.routeNet(netID, 0, margin)
}

// planPinAccess greedily reserves, for every pin of the net, the longest
// free M2 interval around the pin given current ownership — the
// sequential pin access planning of [12]. Returns the reserved node IDs.
func (s *shard) planPinAccess(netID int) []grid.NodeID {
	r := s.Router
	var reserved []grid.NodeID
	bbox := r.d.NetBBox(netID).XSpan()
	for _, pid := range r.d.Nets[netID].PinIDs {
		pin := &r.d.Pins[pid]
		bestTrack, bestSpan := -1, geom.EmptyInterval()
		for t := pin.Shape.Y0; t <= pin.Shape.Y1; t++ {
			span := s.freeSpanOnGrid(netID, t, pin.Shape.XSpan(), bbox)
			if span.Len() > bestSpan.Len() {
				bestTrack, bestSpan = t, span
			}
		}
		if bestTrack < 0 || bestSpan.Empty() {
			continue
		}
		for x := bestSpan.Lo; x <= bestSpan.Hi; x++ {
			id := r.g.ID(x, bestTrack, tech.M2)
			if r.g.Owner(id) == -1 {
				r.g.SetOwner(id, netID)
				reserved = append(reserved, id)
			}
		}
	}
	return reserved
}

// freeSpanOnGrid is the grid-state analogue of pin access interval
// generation: the maximal span on track t around the pin seed that is
// unblocked, unowned by other nets, outside committed clearance zones,
// and inside the net bounding box.
func (s *shard) freeSpanOnGrid(netID, t int, seed, bbox geom.Interval) geom.Interval {
	r := s.Router
	usable := func(x int) bool {
		if x < 0 || x >= r.d.Width {
			return false
		}
		return r.g.Enterable(r.g.ID(x, t, tech.M2), netID) && !s.avoid.has(x, t, tech.M2)
	}
	for x := seed.Lo; x <= seed.Hi; x++ {
		if !usable(x) {
			return geom.EmptyInterval()
		}
	}
	lo, hi := seed.Lo, seed.Hi
	for lo > bbox.Lo && usable(lo-1) {
		lo--
	}
	for hi < bbox.Hi && usable(hi+1) {
		hi++
	}
	return geom.Interval{Lo: lo, Hi: hi}
}

// releasePlan frees planned pin access cells that the final route does not
// use, so later nets can claim them.
func (s *shard) releasePlan(reserved []grid.NodeID, nr *NetRoute) {
	s.nodes.reset(s.box)
	for _, id := range nr.Nodes {
		s.nodes.add(s.g.Coords(id))
	}
	for _, id := range reserved {
		if !nr.Routed || !s.nodes.has(s.g.Coords(id)) {
			s.g.ClearOwner(id)
		}
	}
}
