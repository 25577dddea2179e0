// Package verify independently checks routing results: it re-derives
// connectivity, exclusivity, and design-rule compliance from the raw route
// edges, without trusting any of the router's own bookkeeping. The test
// suites use it as the ground-truth oracle for every routing flow.
package verify

import (
	"fmt"
	"sort"

	"cpr/internal/cutmask"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/router"
	"cpr/internal/tech"
)

// Report is the outcome of verifying one routing result.
type Report struct {
	// Errors lists every violation found (empty means clean).
	Errors []string
	// CheckedNets is the number of routed nets examined.
	CheckedNets int
}

// Ok reports whether the result verified clean.
func (r *Report) Ok() bool { return len(r.Errors) == 0 }

func (r *Report) addf(format string, args ...interface{}) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// Check verifies a routing result against its design:
//
//  1. every routed net's edges form a connected graph touching every pin
//     of the net;
//  2. every edge is geometrically valid: unit-length wire steps in the
//     layer's preferred direction, or vias between adjacent layers;
//  3. no metal node is used by two different routed nets, no metal node
//     lies on a design blockage, and M1 is entered only over own pins;
//  4. after line-end extension, strips of different nets on the same
//     track respect the technology rule engine's tip spacing rules and
//     the minimum line length, and — for multi-mask engines — the
//     routed segments admit a legal mask decomposition (reported as
//     rule errors).
func Check(d *design.Design, g *grid.Graph, res *router.Result) *Report {
	rep := &Report{}
	nodeUser := make(map[grid.NodeID]int)

	for netID, nr := range res.Routes {
		if nr == nil || !nr.Routed {
			continue
		}
		rep.CheckedNets++
		checkNet(d, g, netID, nr, nodeUser, rep)
	}
	checkLineEnds(d, g, res, rep)
	return rep
}

// ObjectiveEqual reports whether two routing results of the same design
// achieve the same routing objective: the same number of routed nets and
// the same set of routed net IDs. Wirelength and via counts may differ —
// an eco-fast rerun is free to find a different but equally complete
// routing — so they are deliberately not compared. Returns nil when
// equal, or an error naming the first divergence.
func ObjectiveEqual(d *design.Design, a, b *router.Result) error {
	if a.RoutedNets != b.RoutedNets {
		return fmt.Errorf("routed net count differs: %d vs %d", a.RoutedNets, b.RoutedNets)
	}
	if len(a.Routes) != len(b.Routes) {
		return fmt.Errorf("route table size differs: %d vs %d", len(a.Routes), len(b.Routes))
	}
	for netID := range a.Routes {
		ra := a.Routes[netID] != nil && a.Routes[netID].Routed
		rb := b.Routes[netID] != nil && b.Routes[netID].Routed
		if ra != rb {
			return fmt.Errorf("net %s: routed %t vs %t", d.Nets[netID].Name, ra, rb)
		}
	}
	return nil
}

// checkNet validates one net's tree and registers its metal nodes.
func checkNet(d *design.Design, g *grid.Graph, netID int, nr *router.NetRoute,
	nodeUser map[grid.NodeID]int, rep *Report) {

	name := d.Nets[netID].Name

	// Edge geometry and adjacency structure.
	adj := make(map[grid.NodeID][]grid.NodeID)
	addAdj := func(a, b grid.NodeID) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	nodesInEdges := make(map[grid.NodeID]bool)
	for _, e := range nr.Edges {
		x1, y1, z1 := g.Coords(e.From)
		x2, y2, z2 := g.Coords(e.To)
		switch {
		case z1 == z2 && z1 == tech.M2 && y1 == y2 && abs(x1-x2) == 1:
		case z1 == z2 && z1 == tech.M3 && x1 == x2 && abs(y1-y2) == 1:
		case x1 == x2 && y1 == y2 && abs(z1-z2) == 1:
		default:
			rep.addf("net %s: invalid edge (%d,%d,L%d)-(%d,%d,L%d)",
				name, x1, y1, z1, x2, y2, z2)
			continue
		}
		addAdj(e.From, e.To)
		nodesInEdges[e.From] = true
		nodesInEdges[e.To] = true
	}

	// Node list must cover the edge endpoints.
	nodeSet := make(map[grid.NodeID]bool, len(nr.Nodes))
	for _, id := range nr.Nodes {
		nodeSet[id] = true
	}
	for id := range nodesInEdges {
		if !nodeSet[id] {
			x, y, z := g.Coords(id)
			rep.addf("net %s: edge endpoint (%d,%d,L%d) missing from node list", name, x, y, z)
		}
	}

	// Exclusivity, blockages, and M1 discipline.
	for _, id := range nr.Nodes {
		x, y, z := g.Coords(id)
		if g.Blocked(id) {
			rep.addf("net %s: metal on blocked cell (%d,%d,L%d)", name, x, y, z)
		}
		if z == tech.M1 {
			if own := g.Owner(id); own != netID {
				rep.addf("net %s: M1 cell (%d,%d) not its own pin (owner %d)", name, x, y, own)
			}
		}
		if prev, ok := nodeUser[id]; ok && prev != netID {
			rep.addf("net %s: metal cell (%d,%d,L%d) shared with net %s",
				name, x, y, z, d.Nets[prev].Name)
		}
		nodeUser[id] = netID
	}

	// Connectivity: every pin reachable from the first pin's cells.
	pins := d.Nets[netID].PinIDs
	if len(pins) <= 1 {
		return
	}
	// Union nodes connected by edges. A pin's shape is one conductor, so
	// its in-tree cells are mutually connected even without route edges
	// between them: two subtrees tapping different cells of the same pin
	// are electrically joined through the pin metal. Chain each pin's
	// in-tree cells so the walk sees that.
	for _, pid := range pins {
		var first grid.NodeID
		found := false
		for _, c := range pinCells(d, g, pid) {
			if !nodeSet[c] {
				continue
			}
			if !found {
				first, found = c, true
				continue
			}
			addAdj(first, c)
		}
	}
	visited := make(map[grid.NodeID]bool)
	var stack []grid.NodeID
	seed := pinCells(d, g, pins[0])
	for _, c := range seed {
		if nodeSet[c] {
			stack = append(stack, c)
			visited[c] = true
		}
	}
	if len(stack) == 0 {
		rep.addf("net %s: route does not touch pin %s", name, d.Pins[pins[0]].Name)
		return
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !visited[nb] {
				visited[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for _, pid := range pins[1:] {
		touched := false
		for _, c := range pinCells(d, g, pid) {
			if visited[c] {
				touched = true
				break
			}
		}
		if !touched {
			rep.addf("net %s: pin %s not connected", name, d.Pins[pid].Name)
		}
	}
}

// checkLineEnds re-derives per-track metal strips from all routed nets
// and validates the technology rule engine's track-level tip rules. For
// multi-mask engines it additionally runs the engine's mask legality
// analysis (decomposition/coloring) over the raw routed segments and
// reports its errors — e.g. uncolorable segments under TPL. The raw
// segments come from cutmask.Segments, which reads only the route
// nodes, not the router's own strip bookkeeping.
func checkLineEnds(d *design.Design, g *grid.Graph, res *router.Result, rep *Report) {
	rules := g.Rules()
	type stripKey struct{ layer, track int }
	byTrack := make(map[stripKey][]tech.Seg)
	raw := cutmask.Segments(g, res)
	for _, s := range raw {
		limit := d.Width
		if s.Layer == tech.M3 {
			limit = d.Height
		}
		s.Lo, s.Hi = rules.ExtendSpan(s.Lo, s.Hi, limit)
		key := stripKey{s.Layer, s.Track}
		byTrack[key] = append(byTrack[key], s)
	}

	// Visit tracks in (layer, track) order so violation messages land in
	// Report.Errors deterministically.
	keys := make([]stripKey, 0, len(byTrack))
	for key := range byTrack {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].track < keys[j].track
	})
	netName := func(net int) string { return d.Nets[net].Name }
	for _, key := range keys {
		strips := byTrack[key]
		sort.Slice(strips, func(a, b int) bool {
			if strips[a].Lo != strips[b].Lo {
				return strips[a].Lo < strips[b].Lo
			}
			return strips[a].Net < strips[b].Net
		})
		rules.CheckTrack(key.layer, key.track, strips, netName, rep.addf)
	}

	if rules.Colors() > 1 {
		mask := rules.AnalyzeMask(raw, d.Width, d.Height)
		rep.Errors = append(rep.Errors, mask.Errors...)
	}
}

func pinCells(d *design.Design, g *grid.Graph, pid int) []grid.NodeID {
	sh := d.Pins[pid].Shape
	var cells []grid.NodeID
	for y := sh.Y0; y <= sh.Y1; y++ {
		for x := sh.X0; x <= sh.X1; x++ {
			cells = append(cells, g.ID(x, y, tech.M1))
		}
	}
	return cells
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
