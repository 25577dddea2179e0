package router

import (
	"slices"
	"sort"

	"cpr/internal/geom"
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

// segmentsOf appends a route's per-track metal strips on the routing
// layers to dst, including via-only landings (single-cell strips).
// Segments come M2 before M3, tracks ascending, then coordinates
// ascending: seg order flows into nr.Virtual and from there into the
// result, so it depends on the node set only, never on node order. The
// sort keys live in the shard's buffers.
func (s *shard) segmentsOf(dst []metalSegment, nr *NetRoute) []metalSegment {
	// One sort key per metal cell: layer (M3 in the top bit), track in
	// the high word, coordinate along the track in the low word.
	keys := s.build.keys[:0]
	for _, id := range nr.Nodes {
		x, y, z := s.g.Coords(id)
		switch z {
		case tech.M2:
			keys = append(keys, uint64(y)<<32|uint64(x))
		case tech.M3:
			keys = append(keys, 1<<63|uint64(x)<<32|uint64(y))
		}
	}
	slices.Sort(keys)
	s.build.keys = keys

	// A cell starts a new strip unless it continues the previous cell's
	// strip on the same track (equal or next coordinate).
	for i, k := range keys {
		c := int(uint32(k))
		if i > 0 && k>>32 == keys[i-1]>>32 && uint32(k) <= uint32(keys[i-1])+1 {
			dst[len(dst)-1].span.Hi = c
			continue
		}
		layer := tech.M2
		if k>>63 == 1 {
			layer = tech.M3
		}
		dst = append(dst, metalSegment{
			netID: nr.NetID,
			layer: layer,
			track: int(k >> 32 & (1<<31 - 1)),
			span:  geom.Interval{Lo: c, Hi: c},
		})
	}
	return dst
}

// lineEndBuffers are stage 4's buffers.
type lineEndBuffers struct {
	// strips holds the member nets' extended strips back to back: member
	// i's are strips[from[i]:to[i]]. A reroute appends the net's new
	// strips, so the slice grows by at most one net per round.
	strips   []metalSegment
	from, to []int
	// track is one pass's routed strips, sorted stably by (layer,
	// track) with a counting sort over bucket, one bucket per track of
	// the region's bounds; run is one track's strips, sorted by (Lo,
	// net); segs is that track as the rule engine reads it.
	track  []metalSegment
	bucket []int
	run    byLoNet
	segs   []tech.Seg
	// vio counts each member's violations in one pass; violating lists
	// the members with a count. count adds one violation of a net.
	vio       []int
	violating []int
	// count looks nets up in nets, the members of the region the pass
	// counts: the closure outlives a region when its buffers pass to the
	// next.
	count func(net int)
	nets  []int
	tried []bool
	// dropped lists the nets stage 4 unrouted, in drop order.
	dropped []int
}

// byLoNet orders one track's strips by Lo, then net ID. It sorts through
// a pointer, so sort.Sort allocates nothing; sort.Sort runs the same
// pdqsort as sort.Slice, so equal strips end in the order sort.Slice
// gives them on the same input.
type byLoNet []metalSegment

func (x byLoNet) Len() int { return len(x) }
func (x byLoNet) Less(a, b int) bool {
	if x[a].span.Lo != x[b].span.Lo {
		return x[a].span.Lo < x[b].span.Lo
	}
	return x[a].netID < x[b].netID
}
func (x byLoNet) Swap(a, b int) { x[a], x[b] = x[b], x[a] }

// enforceLineEndRules extends every routed member net's line-ends per
// the technology's rule engine and checks the engine's track-level tip
// rules between diff-net strips on the same track plus overlap with
// blockages. Violating nets are first ripped up and rerouted with other
// nets' extended clearance zones forbidden (the paper's "line-end
// extensions and rip-up and reroute to accommodate the manufacturing
// constraints"); nets that still violate are unrouted. Region-local:
// only the shard's member nets can produce strips inside the region's
// influence rectangles, so no cross-region strip can appear on a shared
// track. Returns the nets unrouted, in drop order, in a buffer the shard
// reuses.
func (s *shard) enforceLineEndRules() []int {
	nets := s.region.Nets
	b := &s.drc
	b.strips = b.strips[:0]
	b.from = resize(b.from, len(nets))
	b.to = resize(b.to, len(nets))
	b.vio = resize(b.vio, len(nets))
	b.violating = b.violating[:0]
	b.tried = resize(b.tried, len(nets))
	b.dropped = b.dropped[:0]
	// A member's strips are computed here and recomputed only when a
	// reroute replaces its route; a net that is not routed is skipped
	// wherever strips are read, so its entry may be stale.
	for i, netID := range nets {
		if s.routed(netID) {
			s.extendStrips(i)
		}
	}

	// Phase 1: rip up and reroute violating nets away from other nets'
	// clearance zones. Prefer moving nets with larger routes (more room
	// to detour). A net whose reroute fails keeps its old route and is
	// not retried.
	margin := s.cfg.WindowMargin + s.cfg.WindowGrowth*(s.cfg.MaxNegotiationIters+1)
	maxRounds := min(2*len(nets), 200)
	for round := 0; round < maxRounds; round++ {
		s.countViolations()
		if len(b.violating) == 0 {
			return b.dropped
		}
		pick := -1
		for _, i := range b.violating {
			if b.tried[i] {
				continue
			}
			if pick < 0 ||
				len(s.routes[nets[i]].Nodes) > len(s.routes[nets[pick]].Nodes) ||
				(len(s.routes[nets[i]].Nodes) == len(s.routes[nets[pick]].Nodes) && i > pick) {
				pick = i
			}
		}
		if pick < 0 {
			break // every violating net already tried
		}
		b.tried[pick] = true
		nr := s.routes[nets[pick]]
		old := *nr
		s.release(nr)
		nr.Routed = false
		s.markAvoid()
		rerouted := s.routeNet(nets[pick], s.cfg.PresentCostBase, margin)
		s.avoid.clear()
		if rerouted.Routed {
			*nr = *rerouted
			s.extendStrips(pick)
		} else {
			*nr = old
		}
		s.occupy(nr, &s.nodes)
	}

	// Phase 2: drop nets that still violate, most-violating first.
	for iter := 0; iter < len(nets); iter++ {
		s.countViolations()
		if len(b.violating) == 0 {
			break
		}
		worst, worstCount := -1, 0
		for _, i := range b.violating {
			if c := b.vio[i]; c > worstCount || (c == worstCount && i > worst) {
				worst, worstCount = i, c
			}
		}
		if worst < 0 {
			break
		}
		nr := s.routes[nets[worst]]
		s.release(nr)
		nr.Routed = false
		nr.FailReason = "drc"
		nr.Nodes = nil
		nr.Edges = nil
		nr.Virtual = nil
		b.dropped = append(b.dropped, nets[worst])
	}
	return b.dropped
}

// routed reports whether a member net currently has a routed route.
func (s *shard) routed(netID int) bool {
	nr := s.routes[netID]
	return nr != nil && nr.Routed
}

// trackLimit is the grid extent along a layer's tracks.
func (r *Router) trackLimit(layer int) int {
	if layer == tech.M2 {
		return r.d.Width
	}
	return r.d.Height
}

// extendStrips appends member i's extended strips to the stage's strip
// buffer and points the member's entry at them.
func (s *shard) extendStrips(i int) {
	b := &s.drc
	eng := s.engine().eng
	from := len(b.strips)
	b.strips = s.segmentsOf(b.strips, s.routes[s.region.Nets[i]])
	for k := from; k < len(b.strips); k++ {
		seg := &b.strips[k]
		seg.span.Lo, seg.span.Hi = eng.ExtendSpan(seg.span.Lo, seg.span.Hi, s.trackLimit(seg.layer))
	}
	b.from[i], b.to[i] = from, len(b.strips)
}

// countViolations counts the rule engine's track violations and the
// blockage violations of the routed members' extended strips into
// b.vio, listing the violating members in b.violating. The strips of
// each (layer, track) reach the engine in the order the stage has always
// used: member order, then sorted by Lo and net with sort.Sort.
func (s *shard) countViolations() {
	b := &s.drc
	eng := s.engine().eng
	for _, i := range b.violating {
		b.vio[i] = 0
	}
	b.violating = b.violating[:0]
	b.nets = s.region.Nets
	if b.count == nil {
		b.count = func(net int) {
			i, _ := slices.BinarySearch(b.nets, net)
			if b.vio[i] == 0 {
				b.violating = append(b.violating, i)
			}
			b.vio[i]++
		}
	}

	// Counting sort by (layer, track): bucket[k+1] counts track k's
	// strips, the prefix sums make bucket[k] the start of track k, and
	// placing the strips in member order advances bucket[k] to the track's
	// end.
	b.bucket = resize(b.bucket, s.box.h+s.box.w+1)
	n := 0
	for i, netID := range s.region.Nets {
		if s.routed(netID) {
			for _, seg := range b.strips[b.from[i]:b.to[i]] {
				b.bucket[s.trackBucket(seg)+1]++
			}
			n += b.to[i] - b.from[i]
		}
	}
	for k := 1; k < len(b.bucket); k++ {
		b.bucket[k] += b.bucket[k-1]
	}
	b.track = slices.Grow(b.track[:0], n)[:n]
	for i, netID := range s.region.Nets {
		if s.routed(netID) {
			for _, seg := range b.strips[b.from[i]:b.to[i]] {
				k := s.trackBucket(seg)
				b.track[b.bucket[k]] = seg
				b.bucket[k]++
			}
		}
	}
	lo := 0
	for _, hi := range b.bucket[:len(b.bucket)-1] {
		if hi == lo {
			continue
		}
		b.run = b.track[lo:hi]
		sort.Sort(&b.run)
		b.segs = b.segs[:0]
		for _, seg := range b.run {
			b.segs = append(b.segs, tech.Seg{
				Net:   seg.netID,
				Layer: seg.layer,
				Track: seg.track,
				Lo:    seg.span.Lo,
				Hi:    seg.span.Hi,
			})
		}
		eng.TrackViolations(b.segs, b.count)
		// Blockage overlap on the same layer/track.
		for _, seg := range b.run {
			if s.segmentHitsBlockage(seg.layer, seg.track, seg.span) {
				b.count(seg.netID)
			}
		}
		lo = hi
	}
}

// trackBucket numbers a strip's (layer, track) within the region's
// bounds: M2 tracks (rows) first, then M3 tracks (columns), each
// ascending.
func (s *shard) trackBucket(seg metalSegment) int {
	if seg.layer == tech.M2 {
		return seg.track - s.box.y0
	}
	return s.box.h + seg.track - s.box.x0
}

// markAvoid fills the avoid set with the routed nets' extended strips
// plus the extra clearance a rerouted net's own extension will need (the
// engine's avoid margin: other strips are already extended, so the
// margin keeps the final gap legal for a rerouted net whose mask
// assignment is not yet known).
func (s *shard) markAvoid() {
	b := &s.drc
	margin := s.engine().eng.AvoidMargin()
	s.avoid.reset(s.box)
	for i, netID := range s.region.Nets {
		if !s.routed(netID) {
			continue
		}
		for _, seg := range b.strips[b.from[i]:b.to[i]] {
			lo, hi := max(seg.span.Lo-margin, 0), min(seg.span.Hi+margin, s.trackLimit(seg.layer)-1)
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
