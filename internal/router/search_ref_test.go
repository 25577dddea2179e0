package router

// The reference path search: plain multi-source Dijkstra, the search as
// it stood before it skipped offers that cannot win, sifted through a
// hole, stored packed coordinates, tested a stamped avoid set and became
// A*. Its heap, scratch, cost and relaxation are kept verbatim (renamed,
// with its own heap entry type and the deleted Graph.ViaCost inlined as
// refViaCost), and the differential tests below hold the live search to
// it: the same found flag and a valid path of the same cost on every
// search. Among paths of equal cost the two may pick different ones,
// and A* does less work.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// refShard is what the reference search reads of a shard: the router, a
// map-based avoid set (nil when no cell is avoided) and its own scratch.
type refShard struct {
	*Router
	avoid   map[grid.NodeID]bool
	scratch refScratch
}

// refViaCost is the deleted Graph.ViaCost.
func refViaCost(g *grid.Graph, x, y, zLow int) int {
	return g.Rules().ViaCost(g.ForbiddenVia(x, y, zLow))
}

// refHeapItem is a reference frontier entry: a tentative distance and
// the window-local index it was pushed for.
type refHeapItem struct {
	dist float64
	node int32
}

// refSearchHeap is a binary min-heap of frontier entries ordered by dist.
// push and pop repeat container/heap's up and down sifts comparison for
// comparison and swap for swap, so entries of equal distance leave in
// exactly the order container/heap gives them.
type refSearchHeap []refHeapItem

func (h *refSearchHeap) push(it refHeapItem) {
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

func (h *refSearchHeap) pop() refHeapItem {
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

// refScratch is one shard's reusable search state: scratch reserved
// once and reused by every search, as VPR's Incremental_reroute_resources
// does. Slots are window-local node indices. A slot's dist, prev and
// toGlobal hold data only while seen[slot] equals gen, and a slot is a
// target only while target[slot] equals gen, so starting a search clears
// nothing: it bumps gen. The arrays grow geometrically to the largest
// window searched, never past the grid's node count, and never shrink.
//
// Scratch belongs to one shard, never to the Router: regions search
// concurrently on one Router.
type refScratch struct {
	dist     []float64
	prev     []int32 // predecessor slot, -2 for a source
	toGlobal []grid.NodeID
	seen     []uint32
	target   []uint32
	gen      uint32
	heap     refSearchHeap
	work     SearchStats
	// costs and wire hold the rule engine's search parameters, resolved
	// by the shard's first search: resolving the engine allocates.
	costs refCoster
	wire  int
}

// begin readies the scratch for a search over size slots. limit is the
// grid's node count, which no window exceeds.
func (sc *refScratch) begin(size, limit int) {
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
func (sc *refScratch) push(id grid.NodeID, li int32, d float64, from int32) {
	if sc.seen[li] == sc.gen && d >= sc.dist[li] {
		return
	}
	sc.seen[li] = sc.gen
	sc.dist[li] = d
	sc.prev[li] = from
	sc.toGlobal[li] = id
	sc.heap.push(refHeapItem{dist: d, node: li})
	sc.work.Pushes++
}

// refCoster prices entering a node: the congestion-aware cost of the
// negotiation (PathFinder history plus present congestion).
type refCoster struct {
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
func (nc *refCoster) cost(id grid.NodeID, x, y, z int) float64 {
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
func (s *refShard) search(netID int, sources, targets []grid.NodeID,
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
		sc.costs = refCoster{
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
			s.relax(&nc, win, netID, item, x, y, tech.M2, refViaCost(r.g, x, y, 0))
		case tech.M2:
			s.relax(&nc, win, netID, item, x-1, y, tech.M2, base)
			s.relax(&nc, win, netID, item, x+1, y, tech.M2, base)
			s.relax(&nc, win, netID, item, x, y, tech.M1, refViaCost(r.g, x, y, 0))
			s.relax(&nc, win, netID, item, x, y, tech.M3, refViaCost(r.g, x, y, 1))
		case tech.M3:
			s.relax(&nc, win, netID, item, x, y-1, tech.M3, base)
			s.relax(&nc, win, netID, item, x, y+1, tech.M3, base)
			s.relax(&nc, win, netID, item, x, y, tech.M2, refViaCost(r.g, x, y, 1))
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
func (s *refShard) relax(nc *refCoster, win searchWindow, netID int, from refHeapItem, nx, ny, nz, edgeCost int) {
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

// searchCase is one random routing state for the differential tests: a
// small design under one rule engine, with random blockages, foreign
// pins, seeded owners, history and occupancy. A coarse case draws every
// cost term from multiples of 1/4, so equal distances and heap ties are
// common; a fine case draws them from the reals, so a change in the order
// of float additions shows as a different path.
type searchCase struct {
	d      *design.Design
	g      *grid.Graph
	r      *Router
	rng    *rand.Rand
	coarse bool
}

// cost draws a cost term in [0, max).
func (c *searchCase) cost(max float64) float64 {
	if c.coarse {
		return float64(c.rng.Intn(int(4*max))) / 4
	}
	return c.rng.Float64() * max
}

func newSearchCase(seed int64) (*searchCase, bool) {
	rng := rand.New(rand.NewSource(seed))
	tc := *tech.Default()
	tc.Patterning.Engine = []string{tech.EngineSADP, tech.EngineLELE, tech.EngineTPL}[rng.Intn(3)]
	w, h := 6+rng.Intn(25), 4+rng.Intn(17)
	d := design.New("ref", w, h, &tc)
	used := make(map[[2]int]bool)
	for n := 2 + rng.Intn(5); n > 0; n-- {
		netID := d.AddNet("n")
		for p := 2 + rng.Intn(3); p > 0; p-- {
			x, y := rng.Intn(w), rng.Intn(h)
			x1 := min(x+rng.Intn(2), w-1)
			if used[[2]int{x, y}] || used[[2]int{x1, y}] {
				continue
			}
			used[[2]int{x, y}], used[[2]int{x1, y}] = true, true
			d.AddPin("p", netID, geom.MakeRect(x, y, x1, y))
		}
	}
	for b := rng.Intn(1 + w*h/25); b > 0; b-- {
		x, y := rng.Intn(w), rng.Intn(h)
		rect := geom.MakeRect(x, y, min(x+rng.Intn(3), w-1), min(y+rng.Intn(3), h-1))
		layer := rng.Intn(tech.NumLayers)
		if layer == tech.M2 && slices.ContainsFunc(d.Pins, func(p design.Pin) bool { return p.Shape.Overlaps(rect) }) {
			continue
		}
		d.AddBlockage(layer, rect)
	}
	if d.Validate() != nil {
		return nil, false
	}
	g := grid.New(d)
	c := &searchCase{d: d, g: g, r: New(d, g, Config{}), rng: rng, coarse: rng.Intn(2) == 0}
	// Seeded owners: M2 cells reserved for random nets.
	for i := rng.Intn(1 + w*h/8); i > 0; i-- {
		id := g.ID(rng.Intn(w), rng.Intn(h), tech.M2)
		if g.Owner(id) < 0 && !g.Blocked(id) {
			g.SetOwner(id, rng.Intn(len(d.Nets)))
		}
	}
	c.congest()
	return c, true
}

// congest adds random history and metal or clearance occupancy.
func (c *searchCase) congest() {
	n := c.g.NumNodes()
	for i := c.rng.Intn(1 + n/4); i > 0; i-- {
		c.g.AddHistory(grid.NodeID(c.rng.Intn(n)), c.cost(2))
	}
	for i := c.rng.Intn(1 + n/4); i > 0; i-- {
		c.occupy(grid.NodeID(c.rng.Intn(n)))
	}
}

// occupy adds one net's metal or clearance occupancy to a node.
func (c *searchCase) occupy(id grid.NodeID) {
	if c.rng.Intn(2) == 0 {
		c.g.Occupy(id)
	} else {
		c.g.OccupyVirtual(id)
	}
}

// loadApproaches piles cost where late negotiation rounds found it: on
// the approach of each M1 target (the M2 node above it) and on the
// approach's clearance neighbours along its track, which its node cost
// prices. Targets get history too, and an approach is now and then
// seeded for the net itself, as a reserved pin-access interval is.
func (c *searchCase) loadApproaches(netID int, targets []grid.NodeID) {
	g := c.g
	margin := c.r.clearanceMargin()
	for _, t := range targets {
		x, y, z := g.Coords(t)
		if z != tech.M1 {
			continue
		}
		a := g.ID(x, y, tech.M2)
		if c.rng.Intn(3) == 0 && g.Owner(a) < 0 && !g.Blocked(a) {
			g.SetOwner(a, netID)
		}
		g.AddHistory(a, c.cost(4))
		g.AddHistory(t, c.cost(2))
		for k := c.rng.Intn(3); k > 0; k-- {
			c.occupy(a)
		}
		for m := 1; m <= margin; m++ {
			for _, nx := range []int{x - m, x + m} {
				if nx >= 0 && nx < g.W && c.rng.Intn(2) == 0 {
					c.occupy(g.ID(nx, y, tech.M2))
				}
			}
		}
	}
}

// randomCells returns up to k random nodes of the window on any layer.
func (c *searchCase) randomCells(win searchWindow, k int) []grid.NodeID {
	var cells []grid.NodeID
	for i := c.rng.Intn(k + 1); i > 0; i-- {
		cells = append(cells, c.g.ID(win.x0+c.rng.Intn(win.w), win.y0+c.rng.Intn(win.h), c.rng.Intn(tech.NumLayers)))
	}
	return cells
}

// pathCost checks that path is one the search may return and prices it
// with the reference's costs, adding terms in path order as the
// reference does. The path must start at an enterable source, end at a
// target and take only wire steps along a layer's direction and vias,
// entering only window nodes that netID may enter and the avoid set does
// not hold.
func (s *refShard) pathCost(t *testing.T, netID int, sources, targets, path []grid.NodeID,
	win searchWindow, presFac float64) float64 {
	t.Helper()
	g := s.g
	if !slices.Contains(sources, path[0]) || !g.Enterable(path[0], netID) {
		t.Fatalf("path starts at %d, not at an enterable source", path[0])
	}
	if !slices.Contains(targets, path[len(path)-1]) {
		t.Fatalf("path ends at %d, not at a target", path[len(path)-1])
	}
	nc := s.scratch.costs
	nc.presFac = presFac
	cost := 0.0
	for i := 1; i < len(path); i++ {
		x0, y0, z0 := g.Coords(path[i-1])
		x, y, z := g.Coords(path[i])
		var edge int
		switch {
		case z == z0 && z == tech.M2 && y == y0 && (x == x0-1 || x == x0+1),
			z == z0 && z == tech.M3 && x == x0 && (y == y0-1 || y == y0+1):
			edge = s.scratch.wire
		case x == x0 && y == y0 && (z == z0-1 || z == z0+1):
			edge = refViaCost(g, x, y, min(z, z0))
		default:
			t.Fatalf("path step %d: (%d,%d,L%d) -> (%d,%d,L%d) is not a grid edge", i, x0, y0, z0, x, y, z)
		}
		if !win.contains(x, y) || !g.Enterable(path[i], netID) || s.avoid[path[i]] {
			t.Fatalf("path step %d enters (%d,%d,L%d): outside the window, unenterable or avoided", i, x, y, z)
		}
		cost += float64(edge) + nc.cost(path[i], x, y, z)
	}
	return cost
}

// searchDraw is one random search on a routing state.
type searchDraw struct {
	netID            int
	win              searchWindow
	sources, targets []grid.NodeID
	presFac          float64
	// avoid is the avoid set as a map, nil when the search has none.
	avoid map[grid.NodeID]bool
}

// draw picks a random search on the state: a net, a window, sources on
// one of its pins plus random window nodes, targets on one of its pins
// (now and then with random nodes of any layer, which turn the approach
// term off unless all are M1), a present factor, zero or not, and for
// half the searches an avoid set, filled into s's. A third of the draws load the
// targets' approaches (loadApproaches). It reports false when the net
// has no pins.
func (c *searchCase) draw(s *shard) (searchDraw, bool) {
	d, r, rng := c.d, c.r, c.rng
	sd := searchDraw{netID: rng.Intn(len(d.Nets))}
	pins := d.Nets[sd.netID].PinIDs
	if len(pins) == 0 {
		return sd, false
	}
	sd.win = r.window(sd.netID, rng.Intn(6))
	sd.sources = append(r.appendPinCells(nil, pins[rng.Intn(len(pins))]), c.randomCells(sd.win, 4)...)
	sd.targets = r.appendPinCells(nil, pins[rng.Intn(len(pins))])
	if rng.Intn(4) == 0 {
		sd.targets = append(sd.targets, c.randomCells(sd.win, 3)...)
	}
	if rng.Intn(2) == 0 {
		sd.presFac = 0.25 + c.cost(3)
	}

	// The avoid set: on for half the searches, as the DRC stage and the
	// sequential baseline use it. The live set is sized to a box around
	// the window, as a region's bounds are.
	s.avoid.clear()
	if rng.Intn(2) == 0 {
		win := sd.win
		box := rectWindow(r.clampRect(geom.Rect{
			X0: win.x0, Y0: win.y0, X1: win.x0 + win.w - 1, Y1: win.y0 + win.h - 1,
		}.Expand(rng.Intn(3))))
		s.avoid.reset(box)
		sd.avoid = make(map[grid.NodeID]bool)
		for k := rng.Intn(1 + win.size()/3); k > 0; k-- {
			x, y, z := rng.Intn(d.Width), rng.Intn(d.Height), tech.M2+rng.Intn(2)
			s.avoid.add(x, y, z)
			sd.avoid[c.g.ID(x, y, z)] = true
		}
	}
	if rng.Intn(3) == 0 {
		c.loadApproaches(sd.netID, sd.targets)
	}
	return sd, true
}

// diffSearches runs searches on the live shard and the reference side by
// side on one routing state, changing the avoid set, the congestion and
// the present-cost factor between them, and fails on the first search
// whose found flag differs or whose path is invalid or costs other than
// the reference's. Costs are compared to a relative 1e-9: two paths of
// equal cost can add the same terms in another order and round apart.
func diffSearches(t *testing.T, seed int64) {
	t.Helper()
	c, ok := newSearchCase(seed)
	if !ok {
		return
	}
	s := c.r.wholeShard(make([]*NetRoute, len(c.d.Nets)))
	ref := &refShard{Router: c.r}
	for i := 0; i < 12; i++ {
		sd, ok := c.draw(s)
		if !ok {
			continue
		}
		netID, sources, targets, win, presFac := sd.netID, sd.sources, sd.targets, sd.win, sd.presFac
		ref.avoid = sd.avoid
		path, ok := s.search(netID, sources, targets, win, presFac)
		refPath, refOK := ref.search(netID, sources, targets, win, presFac)
		if ok != refOK {
			t.Fatalf("seed %d search %d (net %d, presFac %v, avoid %v): found %v, reference %v",
				seed, i, netID, presFac, ref.avoid != nil, ok, refOK)
		}
		if ok {
			cost := ref.pathCost(t, netID, sources, targets, path, win, presFac)
			refCost := ref.pathCost(t, netID, sources, targets, refPath, win, presFac)
			if math.Abs(cost-refCost) > 1e-9*max(1, refCost) {
				t.Fatalf("seed %d search %d (net %d, presFac %v, avoid %v): path %v costs %v, reference %v costs %v",
					seed, i, netID, presFac, ref.avoid != nil, path, cost, refPath, refCost)
			}
		}
		if c.rng.Intn(3) == 0 {
			c.congest()
		}
	}
}

// TestSearchMatchesReference holds the search to the reference on random
// small routing states under all three rule engines.
func TestSearchMatchesReference(t *testing.T) {
	n := int64(400)
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= n; seed++ {
		diffSearches(t, seed)
	}
}

// TestSearchApproachSources holds the search to the reference where the
// sources sit on targets' approaches, as a route tree that crossed a
// pin's cells on M2 does. The two targets' approaches cost alike, so A
// is theirs; the target pushed first is the dearer one, which a search
// that filed both targets' keys under 0 at 0 would return. Some source
// lists put a target among the sources: a path of cost 0, which must
// win under every tie order over a target reached from an approach at
// key 0.
func TestSearchApproachSources(t *testing.T) {
	tc := *tech.Default()
	d := design.New("approach", 8, 3, &tc)
	net := d.AddNet("n")
	d.AddPin("p", net, geom.MakeRect(2, 1, 3, 1))
	d.AddPin("q", net, geom.MakeRect(6, 1, 6, 1))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	r := New(d, g, Config{})
	c1, c2 := g.ID(2, 1, tech.M1), g.ID(3, 1, tech.M1)
	a1, a2, q := g.ID(2, 1, tech.M2), g.ID(3, 1, tech.M2), g.ID(6, 1, tech.M2)
	g.AddHistory(a1, 5)
	g.AddHistory(a2, 5)
	g.AddHistory(c1, 3)
	targets := []grid.NodeID{c1, c2}
	win := r.window(net, 2)
	ref := &refShard{Router: r}
	orders := testTieOrders
	for seed := uint64(1); seed <= 8; seed++ {
		orders = append(orders, tieOrder{shuffle: seed * 0x9e3779b97f4a7c15})
	}
	for _, order := range orders {
		r.tie = order
		for _, sources := range [][]grid.NodeID{{a1, a2}, {q, a1, a2}, {a2, a1}, {a1, a2, c1}, {a1, c2, a2}} {
			for _, presFac := range []float64{0, 1.5} {
				s := r.wholeShard(make([]*NetRoute, len(d.Nets)))
				path, ok := s.search(net, sources, targets, win, presFac)
				refPath, refOK := ref.search(net, sources, targets, win, presFac)
				if !ok || !refOK {
					t.Fatalf("tie %+v sources %v: found %v, reference %v", order, sources, ok, refOK)
				}
				cost := ref.pathCost(t, net, sources, targets, path, win, presFac)
				refCost := ref.pathCost(t, net, sources, targets, refPath, win, presFac)
				if math.Abs(cost-refCost) > 1e-9*max(1, refCost) {
					t.Fatalf("tie %+v sources %v presFac %v: path %v costs %v, reference %v costs %v",
						order, sources, presFac, path, cost, refPath, refCost)
				}
			}
		}
	}
}

// FuzzSearchMatchesReference's seeds 9 and 74 search loaded approaches
// (loadApproaches), where a search that prices an approach wrongly
// returns a dearer path than the reference.
func FuzzSearchMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1001, -3, 9, 74} {
		f.Add(seed)
	}
	f.Fuzz(diffSearches)
}
