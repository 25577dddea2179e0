// Package grid models the 3-D unidirectional routing grid used by the
// negotiation-congestion router: M1 (pin landing layer, no wires), M2
// (horizontal wires), M3 (vertical wires), with V1/V2 vias between
// adjacent layers.
//
// The grid tracks three per-node quantities used by PathFinder-style
// negotiation: hard blockage (design obstructions), net ownership (pins
// and seeded pin access intervals, hard for every other net), and soft
// congestion state (occupancy count plus accumulated history cost).
package grid

import (
	"fmt"

	"cpr/internal/design"
	"cpr/internal/tech"
)

// NodeID identifies a grid node; layer-major, then row-major.
type NodeID int

// Graph is the routing grid. Build one per design with New.
type Graph struct {
	W, H int
	Tech *tech.Technology

	// rules is the technology's rule engine, resolved once at New.
	rules tech.RuleEngine

	planeSize int

	// blocked marks nodes covered by design blockages.
	blocked []bool
	// owner is -1 for free nodes, otherwise the net that owns the node
	// (pin cells on M1, seeded interval cells on M2). Owned nodes are
	// hard blockages for every other net.
	owner []int32
	// occ counts distinct nets currently using the node, including
	// line-end clearance (virtual) usage.
	occ []int16
	// occMetal counts distinct nets with actual metal on the node.
	occMetal []int16
	// hist is the accumulated PathFinder history cost.
	hist []float32
	// forbiddenVia marks via positions carrying the forbidden grid cost
	// (design-rule-risky via landings); [0] is V1 (M1-M2), [1] is V2
	// (M2-M3), both indexed by y*W+x.
	forbiddenVia [2][]bool
}

// New builds the grid for a validated design: blockages are rasterized,
// every pin's M1 cells are owned by its net, and via positions adjacent to
// blockages (where a via landing pad plus line-end extension would violate
// cut mask rules) are marked with the forbidden cost.
func New(d *design.Design) *Graph {
	g := &Graph{
		W:         d.Width,
		H:         d.Height,
		Tech:      d.Tech,
		rules:     tech.RulesFor(d.Tech),
		planeSize: d.Width * d.Height,
	}
	n := g.planeSize * tech.NumLayers
	g.blocked = make([]bool, n)
	g.owner = make([]int32, n)
	for i := range g.owner {
		g.owner[i] = -1
	}
	g.occ = make([]int16, n)
	g.occMetal = make([]int16, n)
	g.hist = make([]float32, n)
	g.forbiddenVia[0] = make([]bool, g.planeSize)
	g.forbiddenVia[1] = make([]bool, g.planeSize)

	for _, b := range d.Blockages {
		for y := b.Shape.Y0; y <= b.Shape.Y1; y++ {
			for x := b.Shape.X0; x <= b.Shape.X1; x++ {
				g.blocked[g.ID(x, y, b.Layer)] = true
			}
		}
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		for y := p.Shape.Y0; y <= p.Shape.Y1; y++ {
			for x := p.Shape.X0; x <= p.Shape.X1; x++ {
				g.owner[g.ID(x, y, tech.M1)] = int32(p.NetID)
			}
		}
	}
	g.markForbiddenVias()
	return g
}

// markForbiddenVias flags via positions with a landing pad next to a
// blocked cell on a wire layer, in that layer's routing direction: the
// situation where the mandatory line-end extension cannot be printed.
// Each via has two landings, and the strip ending at each one is
// extended: V1 lands on M2 (M1 carries no wires), V2 on M2 and on M3.
func (g *Graph) markForbiddenVias() {
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			// M2 (horizontal) landings: check x neighbours.
			m2 := g.isBlockedAt(x-1, y, tech.M2) || g.isBlockedAt(x+1, y, tech.M2)
			// M3 (vertical) landing: check y neighbours.
			m3 := g.isBlockedAt(x, y-1, tech.M3) || g.isBlockedAt(x, y+1, tech.M3)
			g.forbiddenVia[0][y*g.W+x] = m2
			g.forbiddenVia[1][y*g.W+x] = m2 || m3
		}
	}
}

func (g *Graph) isBlockedAt(x, y, z int) bool {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return false
	}
	return g.blocked[g.ID(x, y, z)]
}

// ID returns the node ID for grid coordinates. Coordinates must be in
// range.
func (g *Graph) ID(x, y, z int) NodeID {
	return NodeID(z*g.planeSize + y*g.W + x)
}

// Coords returns the grid coordinates of a node ID.
func (g *Graph) Coords(id NodeID) (x, y, z int) {
	z = int(id) / g.planeSize
	rem := int(id) % g.planeSize
	return rem % g.W, rem / g.W, z
}

// InBounds reports whether (x, y) lies on the grid.
func (g *Graph) InBounds(x, y int) bool {
	return x >= 0 && x < g.W && y >= 0 && y < g.H
}

// NumNodes returns the total node count.
func (g *Graph) NumNodes() int { return len(g.blocked) }

// Blocked reports whether a node is covered by a design blockage.
func (g *Graph) Blocked(id NodeID) bool { return g.blocked[id] }

// Owner returns the owning net of a node, or -1.
func (g *Graph) Owner(id NodeID) int { return int(g.owner[id]) }

// SetOwner assigns node ownership (used to seed pin access intervals).
// Setting an owner on a node owned by a different net is a programming
// error and panics: assignment results are conflict-free by construction.
func (g *Graph) SetOwner(id NodeID, netID int) {
	if cur := g.owner[id]; cur >= 0 && cur != int32(netID) {
		x, y, z := g.Coords(id)
		panic(fmt.Sprintf("grid: node (%d,%d,L%d) already owned by net %d, cannot give to %d",
			x, y, z, cur, netID))
	}
	g.owner[id] = int32(netID)
}

// ClearOwner removes ownership from a node.
func (g *Graph) ClearOwner(id NodeID) { g.owner[id] = -1 }

// Enterable reports whether net netID may route through the node:
// not design-blocked, not owned by another net, and — on M1 — owned by
// the net itself (M1 carries no wires, it is only entered to land on own
// pins).
func (g *Graph) Enterable(id NodeID, netID int) bool {
	if g.blocked[id] {
		return false
	}
	own := g.owner[id]
	if int(id) < g.planeSize { // M1
		return own == int32(netID)
	}
	return own < 0 || own == int32(netID)
}

// Occupy adds one net's metal usage of the node.
func (g *Graph) Occupy(id NodeID) {
	g.occ[id]++
	g.occMetal[id]++
}

// Release removes one net's metal usage of the node.
func (g *Graph) Release(id NodeID) {
	if g.occ[id] > 0 {
		g.occ[id]--
	}
	if g.occMetal[id] > 0 {
		g.occMetal[id]--
	}
}

// OccupyVirtual adds one net's line-end clearance usage of the node: it
// contributes to congestion negotiation but not to the metal-overlap
// congested grid count.
func (g *Graph) OccupyVirtual(id NodeID) { g.occ[id]++ }

// ReleaseVirtual removes one net's clearance usage of the node.
func (g *Graph) ReleaseVirtual(id NodeID) {
	if g.occ[id] > 0 {
		g.occ[id]--
	}
}

// Occupancy returns the number of nets using the node.
func (g *Graph) Occupancy(id NodeID) int { return int(g.occ[id]) }

// Overused reports whether more than one net uses the node.
func (g *Graph) Overused(id NodeID) bool { return g.occ[id] > 1 }

// MetalCongested reports whether the node's metal is claimed by more than
// one net (the per-node form of CongestedCount, for region-local scans).
func (g *Graph) MetalCongested(id NodeID) bool { return g.occMetal[id] > 1 }

// CongestedCount returns the number of nodes whose metal is claimed by
// more than one net (the paper's "congested routing grids", Figure 7(b)).
func (g *Graph) CongestedCount() int {
	n := 0
	for _, c := range g.occMetal {
		if c > 1 {
			n++
		}
	}
	return n
}

// OverusedCount returns the number of nodes overused by any usage,
// including line-end clearance overlap (what negotiation must resolve).
func (g *Graph) OverusedCount() int {
	n := 0
	for _, c := range g.occ {
		if c > 1 {
			n++
		}
	}
	return n
}

// AddHistory increases the history cost of a node.
func (g *Graph) AddHistory(id NodeID, inc float64) { g.hist[id] += float32(inc) }

// History returns the accumulated history cost of a node.
func (g *Graph) History(id NodeID) float64 { return float64(g.hist[id]) }

// ResetCongestion clears occupancy and history (not ownership/blockage).
func (g *Graph) ResetCongestion() {
	for i := range g.occ {
		g.occ[i] = 0
		g.occMetal[i] = 0
	}
	for i := range g.hist {
		g.hist[i] = 0
	}
}

// Rules returns the technology rule engine the grid was built with.
func (g *Graph) Rules() tech.RuleEngine { return g.rules }

// ForbiddenVia reports whether the via at (x, y) between zLow and zLow+1
// carries the forbidden cost.
func (g *Graph) ForbiddenVia(x, y, zLow int) bool {
	return g.forbiddenVia[zLow][y*g.W+x]
}

// Edge is one grid edge of a routed net: either a wire step on M2/M3 or a
// via between adjacent layers. From < To always holds (edges are
// undirected; the canonical form keeps the smaller node first).
type Edge struct {
	From, To NodeID
}

// MakeEdge returns the canonical (ordered) edge between two nodes.
func MakeEdge(a, b NodeID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{From: a, To: b}
}

// IsVia reports whether the edge crosses layers.
func (g *Graph) IsVia(e Edge) bool {
	_, _, z1 := g.Coords(e.From)
	_, _, z2 := g.Coords(e.To)
	return z1 != z2
}

// CongestedByLayer returns the metal-congested node count per layer
// (diagnostic for congestion analyses).
func (g *Graph) CongestedByLayer() [tech.NumLayers]int {
	var out [tech.NumLayers]int
	for i, c := range g.occMetal {
		if c > 1 {
			out[i/g.planeSize]++
		}
	}
	return out
}
