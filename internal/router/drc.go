package router

import (
	"slices"
	"sort"

	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// metalSegment is one maximal unidirectional metal strip of a routed net
// after line-end extension. For M2 (horizontal), track is the y row and
// span covers x; for M3 (vertical), track is the x column and span covers
// y.
type metalSegment struct {
	netID int
	layer int
	track int
	span  geom.Interval
}

// segmentsOf decomposes a route into per-track metal strips on the routing
// layers, including via-only landings (single-cell strips). Segments come
// M2 before M3, tracks ascending, then coordinates ascending: seg order
// flows into nr.Virtual and from there into the result, so it depends on
// the node set only, never on node order.
func (r *Router) segmentsOf(nr *NetRoute) []metalSegment {
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

// extend applies the SADP line-end extension and the minimum line length
// rule, clamped to the grid extent limit (exclusive upper bound).
func extendSegment(span geom.Interval, ext, minLen, limit int) geom.Interval {
	span.Lo -= ext
	span.Hi += ext
	for span.Len() < minLen {
		if span.Hi < limit-1 {
			span.Hi++
		} else if span.Lo > 0 {
			span.Lo--
		} else {
			break
		}
	}
	if span.Lo < 0 {
		span.Lo = 0
	}
	if span.Hi > limit-1 {
		span.Hi = limit - 1
	}
	return span
}

// enforceLineEndRules extends every routed member net's line-ends per
// the technology's rule engine and checks the engine's track-level tip
// rules between diff-net strips on the same track plus overlap with
// blockages. Violating nets are first ripped up and rerouted with other
// nets' extended clearance zones forbidden (the paper's "line-end
// extensions and rip-up and reroute to accommodate the manufacturing
// constraints"); nets that still violate are unrouted. Region-local:
// only the shard's member nets can produce strips inside the region's
// influence rectangles, so no cross-region strip can appear on a shared
// track. Returns the number of nets unrouted.
func (s *shard) enforceLineEndRules() int {
	r := s.Router
	rules := r.rules()

	limitFor := func(layer int) int {
		if layer == tech.M2 {
			return r.d.Width
		}
		return r.d.Height
	}

	// Collect extended segments per (layer, track).
	type trackKey struct{ layer, track int }
	build := func() map[trackKey][]metalSegment {
		byTrack := make(map[trackKey][]metalSegment)
		for _, netID := range s.region.Nets {
			nr := s.routes[netID]
			if nr == nil || !nr.Routed {
				continue
			}
			for _, seg := range r.segmentsOf(nr) {
				seg.span.Lo, seg.span.Hi = rules.ExtendSpan(seg.span.Lo, seg.span.Hi, limitFor(seg.layer))
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

	// buildAvoid converts the current extended strips into a forbidden
	// node set with the extra clearance a rerouted net's own extension
	// will need (the engine's avoid margin: other strips are already
	// extended, so the margin keeps the final gap legal for a rerouted
	// net whose mask assignment is not yet known).
	buildAvoid := func(byTrack map[trackKey][]metalSegment) map[grid.NodeID]bool {
		margin := rules.AvoidMargin()
		avoid := make(map[grid.NodeID]bool)
		for k, segs := range byTrack {
			limit := limitFor(k.layer)
			for _, seg := range segs {
				lo, hi := seg.span.Lo-margin, seg.span.Hi+margin
				if lo < 0 {
					lo = 0
				}
				if hi > limit-1 {
					hi = limit - 1
				}
				for c := lo; c <= hi; c++ {
					if k.layer == tech.M2 {
						avoid[r.g.ID(c, k.track, tech.M2)] = true
					} else {
						avoid[r.g.ID(k.track, c, tech.M3)] = true
					}
				}
			}
		}
		return avoid
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
		s.avoid = buildAvoid(build())
		rerouted := s.routeNet(pick, r.cfg.PresentCostBase, margin)
		s.avoid = nil
		if rerouted.Routed {
			*s.routes[pick] = *rerouted
			r.occupy(s.routes[pick])
		} else {
			*s.routes[pick] = old
			r.occupy(s.routes[pick])
		}
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
	}
	return dropped
}

// segmentHitsBlockage reports whether an extended strip overlaps a design
// blockage cell on its layer.
func (r *Router) segmentHitsBlockage(layer, track int, span geom.Interval) bool {
	if layer == tech.M2 {
		for x := span.Lo; x <= span.Hi; x++ {
			if r.g.Blocked(r.g.ID(x, track, tech.M2)) {
				return true
			}
		}
		return false
	}
	for y := span.Lo; y <= span.Hi; y++ {
		if r.g.Blocked(r.g.ID(track, y, tech.M3)) {
			return true
		}
	}
	return false
}
