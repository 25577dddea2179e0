package router

import (
	"fmt"
	"math"
	"math/bits"

	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// searchWindow restricts a net's search to a rectangle around its bounding
// box. All three layers inside the rectangle are searchable.
type searchWindow struct {
	x0, y0 int
	w, h   int
}

func (sw searchWindow) contains(x, y int) bool {
	return x >= sw.x0 && x < sw.x0+sw.w && y >= sw.y0 && y < sw.y0+sw.h
}

// local converts grid coordinates to a window-local dense index.
func (sw searchWindow) local(x, y, z int) int {
	return (z*sw.h+(y-sw.y0))*sw.w + (x - sw.x0)
}

func (sw searchWindow) size() int { return sw.w * sw.h * tech.NumLayers }

// queueItem is a search frontier entry (lazy-deletion A*): its key
// f = g + h and the window-local slot it was pushed for.
type queueItem struct {
	key  float64
	node int32
}

// radixQueue is the search frontier: a monotone priority queue over the
// bits of its keys, a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
// JACM 1990). A* with a consistent heuristic pops keys in non-decreasing
// order, and non-negative float64 keys order as their bits, so an entry
// is filed by how far its key lies above the last popped key: bucket i
// holds the keys whose bits first differ from last's at bit i−1, and
// bucket 0 the keys equal to last. A push appends to its bucket. When
// bucket 0 runs dry, a pop takes the lowest non-empty bucket, makes its
// least key the new last and files its entries again; each lands in a
// lower bucket, so an entry moves at most 64 times and pushes and pops
// cost O(1) amortized, with no sift.
//
// Equal keys leave in arrival order: every bucket holds its entries in
// arrival order (a refill moves a bucket's entries, in order, into
// buckets that are empty) and bucket 0 drains from the front. A key
// below last, which two roundings in relax could in principle produce
// one ulp under its parent's, is filed at last: it pops with the
// entries equal to last and is never lost. The entry keeps its own key,
// which the stale test reads.
type radixQueue struct {
	// last is the bits of the key the last pop was filed at, 0 before
	// the first.
	last uint64
	// head is bucket 0's next entry; bucket 0 is drained when head
	// reaches its length.
	head int
	// full has bit i−1 set when bucket i, i ≥ 1, holds an entry.
	full uint64
	b    [65][]queueItem
	// tie orders bucket 0 for tests, with rng the shuffle's xorshift
	// state; the zero value is arrival order.
	tie tieOrder
	rng uint64
}

// tieOrder names the order bucket 0's entries, which share one key,
// leave the queue in: arrival order (the zero value, the only one
// production uses), reverse arrival order, or a shuffle seeded by
// shuffle. Tests route under the others to check that routability does
// not rest on the order.
type tieOrder struct {
	reverse bool
	shuffle uint64
}

// reset empties the queue.
func (q *radixQueue) reset() {
	q.b[0], q.head = q.b[0][:0], 0
	for m := q.full; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) + 1
		q.b[i] = q.b[i][:0]
	}
	q.full, q.last = 0, 0
}

func (q *radixQueue) empty() bool { return q.head == len(q.b[0]) && q.full == 0 }

// push files it by its key: at last when the key is not above it.
func (q *radixQueue) push(it queueItem) {
	k := math.Float64bits(it.key)
	if k <= q.last {
		q.b[0] = append(q.b[0], it)
		return
	}
	i := bits.Len64(k ^ q.last)
	q.b[i] = append(q.b[i], it)
	q.full |= 1 << (i - 1)
}

// pop removes and returns an entry of least key. The queue must not be
// empty.
func (q *radixQueue) pop() queueItem {
	if q.head == len(q.b[0]) {
		q.refill()
	}
	if q.tie != (tieOrder{}) {
		return q.popTie()
	}
	it := q.b[0][q.head]
	q.head++
	return it
}

// refill moves the lowest non-empty bucket into lower ones, its least
// key becoming last; bucket 0 is empty, so it fills from the front.
func (q *radixQueue) refill() {
	i := bits.TrailingZeros64(q.full) + 1
	src := q.b[i]
	m := math.Float64bits(src[0].key)
	for _, it := range src[1:] {
		m = min(m, math.Float64bits(it.key))
	}
	q.b[0], q.head = q.b[0][:0], 0
	q.b[i] = src[:0]
	q.full &^= 1 << (i - 1)
	q.last = m
	for _, it := range src {
		q.push(it)
	}
}

// popTie pops bucket 0 by the tie order: its last entry, or a seeded
// random one swapped to the front.
func (q *radixQueue) popTie() queueItem {
	b := q.b[0]
	if q.tie.reverse {
		it := b[len(b)-1]
		q.b[0] = b[:len(b)-1]
		return it
	}
	if q.rng == 0 {
		q.rng = q.tie.shuffle
	}
	q.rng ^= q.rng << 13 // xorshift64
	q.rng ^= q.rng >> 7
	q.rng ^= q.rng << 17
	j := q.head + int(q.rng%uint64(len(b)-q.head))
	b[q.head], b[j] = b[j], b[q.head]
	it := b[q.head]
	q.head++
	return it
}

// SearchStats counts the path search's deterministic work: searches run,
// frontier pushes, pops, and stale pops (entries whose node was reached
// by a shorter path after they were pushed, discarded on pop). The counts
// depend only on the routing problem, never on worker count or timing.
type SearchStats struct {
	Searches  int64
	Pushes    int64
	Pops      int64
	StalePops int64
}

func (a *SearchStats) add(b SearchStats) {
	a.Searches += b.Searches
	a.Pushes += b.Pushes
	a.Pops += b.Pops
	a.StalePops += b.StalePops
}

// since is the work a running count a holds beyond its earlier reading
// start.
func (a SearchStats) since(start SearchStats) SearchStats {
	return SearchStats{
		Searches:  a.Searches - start.Searches,
		Pushes:    a.Pushes - start.Pushes,
		Pops:      a.Pops - start.Pops,
		StalePops: a.StalePops - start.StalePops,
	}
}

// xyz packs a node's grid coordinates into one word: x in bits 0–30,
// y in bits 31–61 and z in the top two bits (grid extents stay far below
// 2^31). The search stores it per slot, so expanding a popped slot needs
// no division.
type xyz uint64

func packXYZ(x, y, z int) xyz { return xyz(uint64(x) | uint64(y)<<31 | uint64(z)<<62) }

func (p xyz) unpack() (x, y, z int) {
	return int(p & (1<<31 - 1)), int(p >> 31 & (1<<31 - 1)), int(p >> 62)
}

// blockedDist is the distance a slot is stamped with once its node is
// found unenterable or avoided: below every offer, so the search turns
// away later offers to it at the first check.
const blockedDist = -1

// searchSlot is one window node's search state. Its fields sit together
// because a relaxation reads seen and dist, and a push writes all four.
// dist is g, the cost of the best path found from a source.
type searchSlot struct {
	dist float64
	seen uint32
	prev int32 // predecessor slot, -2 for a source
	at   xyz   // the node's grid coordinates
}

// searchScratch is one shard's reusable search state: scratch reserved
// once and reused by every search, and by the next region's shard
// (scratchPool), as VPR's Incremental_reroute_resources does. Slots are
// window-local node indices. A slot's dist, prev and at hold data only
// while its seen stamp equals gen, and a slot is a target only while
// target[slot] equals gen, so starting a search clears nothing: it bumps
// gen. routeNet sizes the arrays for the widest window its margin allows
// (shard.fitScratch), so a stage's searches never regrow them.
//
// Scratch belongs to one shard at a time, never to the Router: regions
// search concurrently on one Router.
type searchScratch struct {
	slots  []searchSlot
	target []uint32
	gen    uint32
	queue  radixQueue
	// The heuristic's terms (h): goal is the bounding box of the
	// search's in-window targets and hWire the wire cost, or 0 when no
	// target lies in the window. hApproach and hTarget are h at an
	// approach and at a target, −A and −(A + T) when the search prices
	// the pin approach (priceApproach) and 0 when it does not. plane is
	// the window's slots per layer.
	goal               geom.Rect
	hWire              float64
	hApproach, hTarget float64
	plane              int32
	// path holds the last path found; search returns it, valid until
	// the shard's next search.
	path []grid.NodeID
	work SearchStats
}

// reserve sizes the slot arrays for windows of up to n slots; arrays
// already that large are kept, stamps and all.
func (sc *searchScratch) reserve(n int) {
	if n > len(sc.slots) {
		sc.slots = make([]searchSlot, n)
		sc.target = make([]uint32, n)
	}
}

// begin readies the scratch for a search over size slots, growing the
// arrays to it if they are smaller (a search routeNet did not size them
// for).
func (sc *searchScratch) begin(size int) {
	sc.reserve(size)
	sc.gen++
	if sc.gen == 0 { // wrapped: old stamps could alias the new generation
		clear(sc.slots)
		clear(sc.target)
		sc.gen = 1
	}
	sc.queue.reset()
	sc.work.Searches++
}

// h is the A* heuristic at slot li, node (x, y, z), less the constant
// A + T (priceApproach): −(A + T) at a target, −A at an approach (the M2
// node above an M1 target), and the wire cost times the Manhattan
// distance to the targets' bounding box elsewhere. Targets and
// approaches lie in the box, so only a node at distance 0 reads the
// target stamps. When the search does not price the approach, A and T
// are 0 and h is the wire cost times the distance everywhere.
func (sc *searchScratch) h(li int32, x, y, z int) float64 {
	b := sc.goal
	dist := max(b.X0-x, 0, x-b.X1) + max(b.Y0-y, 0, y-b.Y1)
	if dist == 0 {
		if sc.target[li] == sc.gen {
			return sc.hTarget
		}
		if z == tech.M2 && sc.target[li-sc.plane] == sc.gen {
			return sc.hApproach
		}
	}
	return sc.hWire * float64(dist)
}

// key is the frontier key of slot li, node (x, y, z), at distance g:
// g + h, or 0 where that is negative. No key falls under 0 in exact
// arithmetic (a source on a target returns before any push, and a
// search with a source on an approach prices only T), so the clamp only
// catches a key rounded an ulp under 0, whose float bits would not
// order. push and the stale test both read it.
func (sc *searchScratch) key(li int32, x, y, z int, g float64) float64 {
	return max(g+sc.h(li, x, y, z), 0)
}

// push records g as the tentative distance of slot li, node (x, y, z),
// reached from slot from, unless the slot already holds a distance no
// greater, and queues the slot under its key.
func (sc *searchScratch) push(li int32, x, y, z int, g float64, from int32) {
	sl := &sc.slots[li]
	if sl.seen == sc.gen && g >= sl.dist {
		return
	}
	*sl = searchSlot{dist: g, seen: sc.gen, prev: from, at: packXYZ(x, y, z)}
	sc.queue.push(queueItem{key: sc.key(li, x, y, z, g), node: li})
	sc.work.Pushes++
}

// shardRules is the rule engine a shard routes under and the parameters
// its hot paths read. Resolving the engine allocates, and a parameter
// read through it is an interface call per use, so a shard resolves
// them once (shard.engine).
type shardRules struct {
	eng tech.RuleEngine
	// clearance is the engine's ClearanceMargin: the line-end clearance
	// cells computeVirtual adds and nodeCoster prices.
	clearance    int
	cRadius      int
	cWeight      float64
	wire         int
	via          int
	forbiddenVia int
}

// engine returns the shard's rules, resolving them on first use. Every
// caller is in shard.run's call graph, so the keypurity analyzer still
// sees each engine parameter the routing stages read.
func (s *shard) engine() *shardRules {
	if s.rulesOf.eng == nil {
		rules := s.rules()
		s.rulesOf = shardRules{
			eng:          rules,
			clearance:    rules.ClearanceMargin(),
			cRadius:      rules.ConflictRadius(),
			cWeight:      rules.ConflictWeight(),
			wire:         rules.WireCost(),
			via:          rules.ViaCost(false),
			forbiddenVia: rules.ViaCost(true),
		}
	}
	return &s.rulesOf
}

// viaCost is the cost of the via at (x, y) between zLow and zLow+1.
func (p *shardRules) viaCost(g *grid.Graph, x, y, zLow int) int {
	if g.ForbiddenVia(x, y, zLow) {
		return p.forbiddenVia
	}
	return p.via
}

// nodeSet is a generation-stamped set of grid nodes inside a box: a node
// is a member while its stamp equals gen, so adding one is a store and
// clearing the set is a generation bump. Nodes are named by coordinates
// or, through the grid, by ID. Nodes outside the box are never members,
// and a set that was never reset is empty.
//
// A shard keeps two: the DRC avoid set and a general set that replaces
// per-call node maps (a route tree under construction, the nodes a count
// has visited). Each user of the general set resets it first.
type nodeSet struct {
	box   searchWindow
	stamp []uint32
	gen   uint32
}

// reset empties the set and sizes it to box, reusing the stamps when
// they are large enough.
func (ns *nodeSet) reset(box searchWindow) {
	ns.box = box
	if n := box.size(); n > len(ns.stamp) {
		ns.stamp = make([]uint32, n)
	}
	ns.clear()
}

// clear empties the set.
func (ns *nodeSet) clear() {
	ns.gen++
	if ns.gen == 0 { // wrapped: old stamps could alias the new generation
		clear(ns.stamp)
		ns.gen = 1
	}
}

// add makes (x, y, z) a member; a node outside the box is dropped.
func (ns *nodeSet) add(x, y, z int) {
	if ns.box.contains(x, y) {
		ns.stamp[ns.box.local(x, y, z)] = ns.gen
	}
}

// remove takes (x, y, z) out of the set. Stamp 0 is never a generation.
func (ns *nodeSet) remove(x, y, z int) {
	if ns.box.contains(x, y) {
		ns.stamp[ns.box.local(x, y, z)] = 0
	}
}

// has reports whether (x, y, z) is a member.
func (ns *nodeSet) has(x, y, z int) bool {
	return ns.box.contains(x, y) && ns.stamp[ns.box.local(x, y, z)] == ns.gen
}

// insert makes node id a member and reports whether it was not one
// before. The node must lie inside the box: the set cannot tell whether
// it saw an outside node, so one panics.
func (ns *nodeSet) insert(g *grid.Graph, id grid.NodeID) bool {
	x, y, z := g.Coords(id)
	if !ns.box.contains(x, y) {
		panic(fmt.Sprintf("router: node (%d,%d,L%d) outside the node set's box %+v", x, y, z, ns.box))
	}
	st := &ns.stamp[ns.box.local(x, y, z)]
	if *st == ns.gen {
		return false
	}
	*st = ns.gen
	return true
}

// nodeCoster prices entering a node: the congestion-aware cost of the
// negotiation (PathFinder history plus present congestion).
type nodeCoster struct {
	g       *grid.Graph
	presFac float64
	margin  int
	cRadius int
	cWeight float64
}

// cost is the congestion-aware cost of entering a node. For wire cells it
// also prices the occupancy of cells within the line-end clearance margin
// along the track direction: a path that stops near another net's strip
// will overlap it with its own clearance cells, and pricing the
// neighbourhood is what lets negotiation discover that before the overlap
// materializes.
//
// Engines with a cross-track conflict radius (TPL color spacing)
// additionally price occupancy on neighbouring tracks — the stitch cost
// term — so dense conflict neighbourhoods are avoided before they
// materialize in the conflict graph. The term is skipped entirely at
// radius zero, keeping the float arithmetic of the radius-free engines
// untouched.
func (nc *nodeCoster) cost(id grid.NodeID, x, y, z int) float64 {
	g, presFac := nc.g, nc.presFac
	c := g.History(id)
	if presFac <= 0 {
		return c
	}
	if occ := g.Occupancy(id); occ > 0 {
		c += presFac * float64(occ)
	}
	switch z {
	case tech.M2:
		for m := 1; m <= nc.margin; m++ {
			if x-m >= 0 {
				if occ := g.Occupancy(g.ID(x-m, y, tech.M2)); occ > 0 {
					c += 0.5 * presFac * float64(occ)
				}
			}
			if x+m < g.W {
				if occ := g.Occupancy(g.ID(x+m, y, tech.M2)); occ > 0 {
					c += 0.5 * presFac * float64(occ)
				}
			}
		}
		for m := 1; m <= nc.cRadius; m++ {
			if y-m >= 0 {
				if occ := g.Occupancy(g.ID(x, y-m, tech.M2)); occ > 0 {
					c += nc.cWeight * presFac * float64(occ)
				}
			}
			if y+m < g.H {
				if occ := g.Occupancy(g.ID(x, y+m, tech.M2)); occ > 0 {
					c += nc.cWeight * presFac * float64(occ)
				}
			}
		}
	case tech.M3:
		for m := 1; m <= nc.margin; m++ {
			if y-m >= 0 {
				if occ := g.Occupancy(g.ID(x, y-m, tech.M3)); occ > 0 {
					c += 0.5 * presFac * float64(occ)
				}
			}
			if y+m < g.H {
				if occ := g.Occupancy(g.ID(x, y+m, tech.M3)); occ > 0 {
					c += 0.5 * presFac * float64(occ)
				}
			}
		}
		for m := 1; m <= nc.cRadius; m++ {
			if x-m >= 0 {
				if occ := g.Occupancy(g.ID(x-m, y, tech.M3)); occ > 0 {
					c += nc.cWeight * presFac * float64(occ)
				}
			}
			if x+m < g.W {
				if occ := g.Occupancy(g.ID(x+m, y, tech.M3)); occ > 0 {
					c += nc.cWeight * presFac * float64(occ)
				}
			}
		}
	}
	return c
}

// search runs multi-source A* from the tree nodes to any target node,
// restricted to the window and to nodes enterable by netID. The node
// cost combines the technology edge cost with PathFinder history and
// present congestion penalties. The heuristic (searchScratch.h) is the
// wire cost times the Manhattan distance to the bounding box of the
// in-window targets, plus, when every in-window target is an M1 cell,
// the cheapest finish through a pin approach (priceApproach). It is
// consistent, so the first target popped ends a cheapest path, as under
// Dijkstra; among paths of equal cost the search may pick another. A
// source on a target is a path of cost 0 and returns at once. It
// returns the path from a source to the reached target (inclusive), held
// in the shard's scratch and valid until its next search, so a search on
// the shard's warmed scratch allocates nothing.
func (s *shard) search(netID int, sources, targets []grid.NodeID,
	win searchWindow, presFac float64) ([]grid.NodeID, bool) {

	if len(targets) == 0 {
		return nil, false
	}
	g := s.g
	p := s.engine()
	sc := &s.scratch
	sc.begin(win.size())
	sc.queue.tie = s.tie
	sc.goal = geom.Rect{X0: 1, X1: 0} // empty
	allM1 := true
	for _, t := range targets {
		if x, y, z := g.Coords(t); win.contains(x, y) {
			sc.target[win.local(x, y, z)] = sc.gen
			sc.goal = sc.goal.Union(geom.MakeRect(x, y, x, y))
			allM1 = allM1 && z == tech.M1
		}
	}
	nc := nodeCoster{g: g, presFac: presFac, margin: p.clearance, cRadius: p.cRadius, cWeight: p.cWeight}
	sc.hWire, sc.hApproach, sc.hTarget = 0, 0, 0
	sc.plane = int32(win.w * win.h)
	if !sc.goal.Empty() {
		sc.hWire = float64(p.wire)
		if allM1 {
			s.priceApproach(&nc, netID, sources, targets, win)
		}
	}
	for _, src := range sources {
		x, y, z := g.Coords(src)
		if !win.contains(x, y) {
			continue
		}
		if !g.Enterable(src, netID) {
			continue
		}
		li := int32(win.local(x, y, z))
		if sc.target[li] == sc.gen {
			// A path of cost 0; of the sources on targets, the queue
			// would have popped this first one first.
			sc.path = append(sc.path[:0], src)
			return sc.path, true
		}
		sc.push(li, x, y, z, 0, -2)
	}

	base := p.wire
	// Neighbour slots are offsets from the popped slot: ±1 along x, ±row
	// along y and ±plane across layers. A via neighbour shares the popped
	// node's (x, y), so only wire steps can leave the window.
	row, plane := int32(win.w), sc.plane
	xLast, yLast := win.x0+win.w-1, win.y0+win.h-1
	goal := int32(-1)
	for !sc.queue.empty() {
		item := sc.queue.pop()
		sc.work.Pops++
		li := item.node
		sl := &sc.slots[li]
		x, y, z := sl.at.unpack()
		// The entry is stale when its slot has since been reached by a
		// cheaper path: its key exceeds the key of the slot's g (h is
		// fixed per slot). The key is the one pushed, also when the
		// queue filed it at a higher one.
		d := sl.dist
		if item.key > sc.key(li, x, y, z, d) {
			sc.work.StalePops++
			continue
		}
		if sc.target[li] == sc.gen {
			goal = li
			break
		}
		switch z {
		case tech.M1:
			s.relax(&nc, netID, li, d, li+plane, x, y, tech.M2, p.viaCost(g, x, y, 0))
		case tech.M2:
			if x > win.x0 {
				s.relax(&nc, netID, li, d, li-1, x-1, y, tech.M2, base)
			}
			if x < xLast {
				s.relax(&nc, netID, li, d, li+1, x+1, y, tech.M2, base)
			}
			s.relax(&nc, netID, li, d, li-plane, x, y, tech.M1, p.viaCost(g, x, y, 0))
			s.relax(&nc, netID, li, d, li+plane, x, y, tech.M3, p.viaCost(g, x, y, 1))
		case tech.M3:
			if y > win.y0 {
				s.relax(&nc, netID, li, d, li-row, x, y-1, tech.M3, base)
			}
			if y < yLast {
				s.relax(&nc, netID, li, d, li+row, x, y+1, tech.M3, base)
			}
			s.relax(&nc, netID, li, d, li-plane, x, y, tech.M2, p.viaCost(g, x, y, 1))
		}
	}
	if goal < 0 {
		return nil, false
	}

	// Walk back to the source twice: once to size the path, once to fill
	// it in source->target order.
	n := 0
	for cur := goal; cur >= 0; cur = sc.slots[cur].prev {
		n++
	}
	if cap(sc.path) < n {
		sc.path = make([]grid.NodeID, n)
	}
	path := sc.path[:n]
	for cur := goal; cur >= 0; cur = sc.slots[cur].prev {
		n--
		path[n] = g.ID(sc.slots[cur].at.unpack())
	}
	return path, true
}

// priceApproach sets the heuristic's approach terms for a search whose
// in-window targets are all M1 cells, as every routeNet search's pin
// cells are. A path reaches an M1 target t only through its approach
// a(t), the M2 node above it, and then down t's V1 via. A is the least
// node cost of an approach the net may enter and the avoid set does not
// hold; T is the least V1 via cost plus node cost of a target whose
// approach the net may enter, avoided or not, since a source there is
// popped and steps down to its target. The heuristic is then 0 at a
// target, T at an approach and wire × distance + A + T elsewhere. It is
// consistent only with the two minima taken apart: a joint
// min(A_t + T_t) can exceed what a path pays through an approach of
// small A and large T beside one of large A and small T (DESIGN §4f has
// the argument edge class by edge class). When no approach can be
// entered, A and T stay 0.
//
// Keys leave out the constant A + T (searchScratch.h): the same order in
// exact arithmetic, and every node but a target or an approach keeps the
// key it had without the approach term, bit for bit, so rounding cannot
// merge two keys that were apart. That keeps every key at least 0 only
// while every source's h is at least A + T. A source on an approach has
// h = T, so its key, and the key of the target it steps down to, would
// fall under 0, where the queue files them all at 0 in arrival order
// rather than by cost: a search with such a source prices only T
// (A = 0), which keeps h consistent.
func (s *shard) priceApproach(nc *nodeCoster, netID int, sources, targets []grid.NodeID, win searchWindow) {
	g, p, sc := s.g, s.engine(), &s.scratch
	a, t := math.Inf(1), math.Inf(1)
	for _, id := range targets {
		x, y, _ := g.Coords(id)
		aid := g.ID(x, y, tech.M2)
		if !win.contains(x, y) || !g.Enterable(aid, netID) {
			continue
		}
		t = min(t, float64(p.viaCost(g, x, y, 0))+nc.cost(id, x, y, tech.M1))
		if !s.avoid.has(x, y, tech.M2) {
			a = min(a, nc.cost(aid, x, y, tech.M2))
		}
	}
	if math.IsInf(a, 1) {
		return
	}
	for _, src := range sources {
		if x, y, z := g.Coords(src); z == tech.M2 && win.contains(x, y) &&
			sc.target[win.local(x, y, tech.M1)] == sc.gen {
			a = 0
			break
		}
	}
	sc.hApproach, sc.hTarget = -a, -(a + t)
}

// fitScratch sizes the search scratch for every member net's window at
// the given margin, before routeNet searches with it. The first call
// sizes it for the widest margin stages 1 and 2 use, so negotiation never
// resizes it; only the DRC stage's wider reroute windows and the
// sequential baseline's widening retries grow it, once per margin, and
// scratch a previous region grew large enough is kept. The region's
// bounds contain every such window but can be much larger.
func (s *shard) fitScratch(margin int) {
	if margin <= s.scratchMargin {
		return
	}
	m := max(margin, s.cfg.WindowMargin, s.cfg.MaxWindowMargin)
	n := 0
	for _, netID := range s.region.Nets {
		n = max(n, s.window(netID, m).size())
	}
	s.scratch.reserve(n)
	s.scratchMargin = m
}

// relax offers the neighbour (nx, ny, nz) in window slot li of the
// popped slot from, whose distance is d, at the given edge cost.
//
// An offer that cannot win stops at the neighbour's slot, before the
// enterability test and the cost. Every edge cost is at least 1
// (tech.Validate) and every node cost at least 0 (Config.Validate), and
// adding a non-negative term never rounds below the other operand, so
// the offer is at least d. A slot already holding a distance no greater
// would make push reject it. A node that cannot be entered is stamped
// with blockedDist once per search: ownership, blockages and the avoid
// set do not change while a search runs, so the first check turns away
// every later offer to it.
func (s *shard) relax(nc *nodeCoster, netID int, from int32, d float64, li int32, nx, ny, nz, edgeCost int) {
	sc := &s.scratch
	sl := &sc.slots[li]
	if sl.seen == sc.gen && sl.dist <= d {
		return
	}
	g := nc.g
	nid := g.ID(nx, ny, nz)
	if !g.Enterable(nid, netID) || s.avoid.has(nx, ny, nz) {
		sl.seen, sl.dist = sc.gen, blockedDist
		return
	}
	nd := d + float64(edgeCost) + nc.cost(nid, nx, ny, nz)
	sc.push(li, nx, ny, nz, nd, from)
}
