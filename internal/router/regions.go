package router

import (
	"slices"
	"sort"

	"cpr/internal/geom"
	"cpr/internal/grid"
)

// Region is one independent routing subproblem: a set of nets whose
// influence rectangles form a connected component. Nets of different
// regions provably cannot interact — no search window, clearance cell,
// extended line-end strip, or DRC avoid zone of one region's nets can
// reach another region's rectangles — so regions route independently
// (and concurrently) with byte-identical results to any interleaving.
type Region struct {
	// ID is the region's index in the plan, ascending by smallest member
	// net ID. It is positional provenance only; region content keys must
	// not include it (indices shift when unrelated regions appear).
	ID int
	// Nets lists the member net IDs, ascending.
	Nets []int
	// Rects holds each member's influence rectangle, parallel to Nets,
	// clamped to the grid.
	Rects []geom.Rect
}

// Bounds returns the bounding box of the region's influence rectangles.
func (rg *Region) Bounds() geom.Rect {
	var box geom.Rect
	box.X1, box.Y1 = -1, -1
	for _, rc := range rg.Rects {
		box = box.Union(rc)
	}
	return box
}

// Plan is the region decomposition of one seeded routing problem.
// Compute it with Router.Partition after SeedAssignment (seeded cells
// widen influence rectangles).
type Plan struct {
	Regions []*Region
	// NetRegion maps net ID -> region ID.
	NetRegion []int
}

// maxSearchMargin is the widest window expansion any stage can apply to a
// net's bounding box: negotiation rounds grow the margin up to
// MaxWindowMargin, while the DRC reroute pass uses an uncapped
// WindowMargin + WindowGrowth*(MaxNegotiationIters+1).
func (r *Router) maxSearchMargin() int {
	m := r.cfg.WindowMargin + r.cfg.WindowGrowth*(r.cfg.MaxNegotiationIters+1)
	if r.cfg.MaxWindowMargin > m {
		m = r.cfg.MaxWindowMargin
	}
	return m
}

// influenceMargin is the interaction radius of one net: the widest search
// window any stage can open around its bounding box, plus everything that
// can reach beyond a route inside that window — line-end clearance cells
// plus the rule engine's reach (extension, minimum-length growth, tip
// spacing, the DRC avoid-zone margin, and any cross-track color
// coupling). Two nets whose bounding boxes (including seeded cells) are
// separated by more than twice this margin can never affect each other's
// routing in any stage.
func (r *Router) influenceMargin() int {
	return r.maxSearchMargin() + r.clearanceMargin() + r.rules().RuleReach()
}

// influenceRect returns a net's influence rectangle: the union of its pin
// bounding box and its seeded interval cells, expanded by the influence
// margin and clamped to the grid.
func (r *Router) influenceRect(netID, margin int) geom.Rect {
	box := r.d.NetBBox(netID)
	for _, id := range r.seededNodes[netID] {
		x, y, _ := r.g.Coords(id)
		box = box.Union(geom.Rect{X0: x, Y0: y, X1: x, Y1: y})
	}
	box = box.Expand(margin)
	return r.clampRect(box)
}

// clampRect clips a rectangle to the grid extents.
func (r *Router) clampRect(box geom.Rect) geom.Rect {
	if box.X0 < 0 {
		box.X0 = 0
	}
	if box.Y0 < 0 {
		box.Y0 = 0
	}
	if box.X1 >= r.d.Width {
		box.X1 = r.d.Width - 1
	}
	if box.Y1 >= r.d.Height {
		box.Y1 = r.d.Height - 1
	}
	return box
}

// Partition decomposes the seeded routing problem into independent
// regions: connected components of the net influence-rectangle overlap
// graph. Call it after SeedAssignment. The decomposition is deterministic:
// regions are ordered by their smallest member net ID, members ascending.
func (r *Router) Partition() *Plan {
	n := len(r.d.Nets)
	margin := r.influenceMargin()
	rects := make([]geom.Rect, n)
	for i := 0; i < n; i++ {
		rects[i] = r.influenceRect(i, margin)
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}

	// Sweep over rectangles sorted by X0 to avoid the full quadratic
	// pairwise check on designs with many spread-out nets.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if rects[order[a]].X0 != rects[order[b]].X0 {
			return rects[order[a]].X0 < rects[order[b]].X0
		}
		return order[a] < order[b]
	})
	for ai, a := range order {
		ra := rects[a]
		for _, b := range order[ai+1:] {
			if rects[b].X0 > ra.X1 {
				break
			}
			if ra.Overlaps(rects[b]) {
				union(a, b)
			}
		}
	}

	// Components keyed by root = smallest member net ID.
	members := make(map[int][]int)
	for i := 0; i < n; i++ {
		root := find(i)
		members[root] = append(members[root], i)
	}
	roots := make([]int, 0, len(members))
	for root := range members {
		roots = append(roots, root)
	}
	sort.Ints(roots)

	plan := &Plan{NetRegion: make([]int, n)}
	for id, root := range roots {
		nets := members[root] // ascending: appended in net ID order
		rg := &Region{ID: id, Nets: nets, Rects: make([]geom.Rect, len(nets))}
		for i, netID := range nets {
			rg.Rects[i] = rects[netID]
			plan.NetRegion[netID] = id
		}
		plan.Regions = append(plan.Regions, rg)
	}
	return plan
}

// SeededCells returns a sorted copy of the seeded interval cells reserved
// for a net by SeedAssignment (empty for unseeded nets). Canonical input
// for region content keys.
func (r *Router) SeededCells(netID int) []grid.NodeID {
	seeds := r.seededNodes[netID]
	if len(seeds) == 0 {
		return nil
	}
	out := append([]grid.NodeID(nil), seeds...)
	slices.Sort(out)
	return out
}

// Grid returns the routing grid the router operates on.
func (r *Router) Grid() *grid.Graph { return r.g }

// Config returns the router's effective (defaulted) configuration.
func (r *Router) Configuration() Config { return r.cfg }
