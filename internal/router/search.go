package router

import (
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

// heapItem is a search frontier entry (lazy-deletion Dijkstra): a
// tentative distance and the window-local index it was pushed for.
type heapItem struct {
	dist float64
	node int32
}

// searchHeap is a binary min-heap of frontier entries ordered by dist.
// push and pop repeat container/heap's up and down sifts comparison for
// comparison and swap for swap, so entries of equal distance leave in
// exactly the order container/heap gives them. Routes depend on that tie
// order byte for byte (TestRoutedBytesGolden in internal/core pins it).
type searchHeap []heapItem

func (h *searchHeap) push(it heapItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *searchHeap) pop() heapItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].dist < q[j].dist {
			j = r // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
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

// searchScratch is one shard's reusable search state: scratch reserved
// once and reused by every search, as VPR's Incremental_reroute_resources
// does. Slots are window-local node indices. A slot's dist, prev and
// toGlobal hold data only while seen[slot] equals gen, and a slot is a
// target only while target[slot] equals gen, so starting a search clears
// nothing: it bumps gen. The arrays grow geometrically to the largest
// window searched, never past the grid's node count, and never shrink.
//
// Scratch belongs to one shard, never to the Router: regions search
// concurrently on one Router.
type searchScratch struct {
	dist     []float64
	prev     []int32 // predecessor slot, -2 for a source
	toGlobal []grid.NodeID
	seen     []uint32
	target   []uint32
	gen      uint32
	heap     searchHeap
	work     SearchStats
	// costs and wire hold the rule engine's search parameters, resolved
	// by the shard's first search: resolving the engine allocates.
	costs nodeCoster
	wire  int
}

// begin readies the scratch for a search over size slots. limit is the
// grid's node count, which no window exceeds.
func (sc *searchScratch) begin(size, limit int) {
	if size > len(sc.seen) {
		n := min(2*len(sc.seen), limit)
		if n < size {
			n = size
		}
		sc.dist = make([]float64, n)
		sc.prev = make([]int32, n)
		sc.toGlobal = make([]grid.NodeID, n)
		sc.seen = make([]uint32, n)
		sc.target = make([]uint32, n)
	}
	sc.gen++
	if sc.gen == 0 { // wrapped: old stamps could alias the new generation
		clear(sc.seen)
		clear(sc.target)
		sc.gen = 1
	}
	sc.heap = sc.heap[:0]
	sc.work.Searches++
}

// push records d as slot li's tentative distance, reached from slot
// from, unless the slot already holds a distance no greater.
func (sc *searchScratch) push(id grid.NodeID, li int32, d float64, from int32) {
	if sc.seen[li] == sc.gen && d >= sc.dist[li] {
		return
	}
	sc.seen[li] = sc.gen
	sc.dist[li] = d
	sc.prev[li] = from
	sc.toGlobal[li] = id
	sc.heap.push(heapItem{dist: d, node: li})
	sc.work.Pushes++
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

// search runs multi-source Dijkstra from the tree nodes to any target
// node, restricted to the window and to nodes enterable by netID. The
// node cost combines the technology edge cost with PathFinder history and
// present congestion penalties. It returns the path from a source to the
// reached target (inclusive). On the shard's warmed scratch the returned
// path is the search's only allocation.
func (s *shard) search(netID int, sources, targets []grid.NodeID,
	win searchWindow, presFac float64) ([]grid.NodeID, bool) {

	if len(targets) == 0 {
		return nil, false
	}
	r := s.Router
	sc := &s.scratch
	sc.begin(win.size(), r.g.NumNodes())
	for _, t := range targets {
		if x, y, z := r.g.Coords(t); win.contains(x, y) {
			sc.target[win.local(x, y, z)] = sc.gen
		}
	}
	for _, src := range sources {
		x, y, z := r.g.Coords(src)
		if !win.contains(x, y) {
			continue
		}
		if !r.g.Enterable(src, netID) {
			continue
		}
		sc.push(src, int32(win.local(x, y, z)), 0, -2)
	}

	if sc.costs.g == nil {
		rules := r.rules()
		sc.costs = nodeCoster{
			g:       r.g,
			margin:  rules.ClearanceMargin(),
			cRadius: rules.ConflictRadius(),
			cWeight: rules.ConflictWeight(),
		}
		sc.wire = rules.WireCost()
	}
	nc := sc.costs
	nc.presFac = presFac
	base := sc.wire
	goal := int32(-1)
	for len(sc.heap) > 0 {
		item := sc.heap.pop()
		sc.work.Pops++
		li := item.node
		if item.dist > sc.dist[li] {
			sc.work.StalePops++
			continue
		}
		if sc.target[li] == sc.gen {
			goal = li
			break
		}
		x, y, z := r.g.Coords(sc.toGlobal[li])
		switch z {
		case tech.M1:
			s.relax(&nc, win, netID, item, x, y, tech.M2, r.g.ViaCost(x, y, 0))
		case tech.M2:
			s.relax(&nc, win, netID, item, x-1, y, tech.M2, base)
			s.relax(&nc, win, netID, item, x+1, y, tech.M2, base)
			s.relax(&nc, win, netID, item, x, y, tech.M1, r.g.ViaCost(x, y, 0))
			s.relax(&nc, win, netID, item, x, y, tech.M3, r.g.ViaCost(x, y, 1))
		case tech.M3:
			s.relax(&nc, win, netID, item, x, y-1, tech.M3, base)
			s.relax(&nc, win, netID, item, x, y+1, tech.M3, base)
			s.relax(&nc, win, netID, item, x, y, tech.M2, r.g.ViaCost(x, y, 1))
		}
	}
	if goal < 0 {
		return nil, false
	}

	// Walk back to the source twice: once to size the path, once to fill
	// it in source->target order.
	n := 0
	for cur := goal; cur >= 0; cur = sc.prev[cur] {
		n++
	}
	path := make([]grid.NodeID, n)
	for cur := goal; cur >= 0; cur = sc.prev[cur] {
		n--
		path[n] = sc.toGlobal[cur]
	}
	return path, true
}

// relax offers the neighbour (nx, ny, nz) of the popped entry from, at
// the given edge cost.
func (s *shard) relax(nc *nodeCoster, win searchWindow, netID int, from heapItem, nx, ny, nz, edgeCost int) {
	if !win.contains(nx, ny) {
		return
	}
	g := nc.g
	nid := g.ID(nx, ny, nz)
	if !g.Enterable(nid, netID) {
		return
	}
	if s.avoid != nil && s.avoid[nid] {
		return
	}
	nd := from.dist + float64(edgeCost) + nc.cost(nid, nx, ny, nz)
	s.scratch.push(nid, int32(win.local(nx, ny, nz)), nd, from.node)
}
