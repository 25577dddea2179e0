package grid

import (
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/tech"
)

func testDesign(t *testing.T) *design.Design {
	t.Helper()
	d := design.New("g", 12, 10, tech.Default())
	na := d.AddNet("a")
	nb := d.AddNet("b")
	d.AddPin("a1", na, geom.MakeRect(2, 2, 3, 2))
	d.AddPin("b1", nb, geom.MakeRect(7, 2, 7, 2))
	d.AddBlockage(tech.M2, geom.MakeRect(10, 5, 11, 6))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIDCoordsRoundTrip(t *testing.T) {
	g := New(testDesign(t))
	for z := 0; z < tech.NumLayers; z++ {
		for y := 0; y < g.H; y += 3 {
			for x := 0; x < g.W; x += 3 {
				gx, gy, gz := g.Coords(g.ID(x, y, z))
				if gx != x || gy != y || gz != z {
					t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)", x, y, z, gx, gy, gz)
				}
			}
		}
	}
	if g.NumNodes() != 12*10*3 {
		t.Errorf("NumNodes = %d, want %d", g.NumNodes(), 12*10*3)
	}
}

func TestBlockageRasterization(t *testing.T) {
	g := New(testDesign(t))
	if !g.Blocked(g.ID(10, 5, tech.M2)) || !g.Blocked(g.ID(11, 6, tech.M2)) {
		t.Error("blockage cells not marked")
	}
	if g.Blocked(g.ID(9, 5, tech.M2)) || g.Blocked(g.ID(10, 5, tech.M3)) {
		t.Error("non-blockage cells marked")
	}
}

func TestPinOwnership(t *testing.T) {
	g := New(testDesign(t))
	if g.Owner(g.ID(2, 2, tech.M1)) != 0 || g.Owner(g.ID(3, 2, tech.M1)) != 0 {
		t.Error("pin a1 cells not owned by net 0")
	}
	if g.Owner(g.ID(7, 2, tech.M1)) != 1 {
		t.Error("pin b1 cell not owned by net 1")
	}
	if g.Owner(g.ID(5, 5, tech.M2)) != -1 {
		t.Error("free cell has an owner")
	}
}

func TestEnterable(t *testing.T) {
	g := New(testDesign(t))
	// M1: only own pins.
	if !g.Enterable(g.ID(2, 2, tech.M1), 0) {
		t.Error("net 0 must enter its own pin")
	}
	if g.Enterable(g.ID(2, 2, tech.M1), 1) {
		t.Error("net 1 must not enter net 0's pin")
	}
	if g.Enterable(g.ID(5, 5, tech.M1), 0) {
		t.Error("free M1 cells are not routable")
	}
	// M2: free cells open to all, owned cells only to the owner.
	if !g.Enterable(g.ID(5, 5, tech.M2), 0) || !g.Enterable(g.ID(5, 5, tech.M2), 1) {
		t.Error("free M2 cell should be enterable by all nets")
	}
	g.SetOwner(g.ID(5, 5, tech.M2), 1)
	if g.Enterable(g.ID(5, 5, tech.M2), 0) {
		t.Error("owned M2 cell must block other nets")
	}
	if !g.Enterable(g.ID(5, 5, tech.M2), 1) {
		t.Error("owned M2 cell must admit its owner")
	}
	// Blocked cells admit nobody.
	if g.Enterable(g.ID(10, 5, tech.M2), 0) {
		t.Error("blocked cell must not be enterable")
	}
}

func TestSetOwnerConflictPanics(t *testing.T) {
	g := New(testDesign(t))
	g.SetOwner(g.ID(5, 5, tech.M2), 0)
	g.SetOwner(g.ID(5, 5, tech.M2), 0) // same net: fine
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cross-net ownership")
		}
	}()
	g.SetOwner(g.ID(5, 5, tech.M2), 1)
}

func TestOccupancyAndCongestion(t *testing.T) {
	g := New(testDesign(t))
	n := g.ID(5, 5, tech.M2)
	if g.Overused(n) {
		t.Error("fresh node overused")
	}
	g.Occupy(n)
	if g.Overused(n) || g.CongestedCount() != 0 {
		t.Error("single occupancy must not be congestion")
	}
	g.Occupy(n)
	if !g.Overused(n) || g.CongestedCount() != 1 {
		t.Error("double occupancy must be congestion")
	}
	g.Release(n)
	if g.Overused(n) {
		t.Error("release must clear overuse")
	}
	g.Release(n)
	g.Release(n) // extra release is a no-op
	if g.Occupancy(n) != 0 {
		t.Errorf("occupancy = %d, want 0", g.Occupancy(n))
	}
}

func TestHistory(t *testing.T) {
	g := New(testDesign(t))
	n := g.ID(4, 4, tech.M3)
	g.AddHistory(n, 1.5)
	g.AddHistory(n, 1.0)
	if got := g.History(n); got < 2.49 || got > 2.51 {
		t.Errorf("history = %g, want 2.5", got)
	}
	g.ResetCongestion()
	if g.History(n) != 0 {
		t.Error("ResetCongestion must clear history")
	}
}

func TestForbiddenViaNearBlockage(t *testing.T) {
	d := testDesign(t)
	// Beside the M2 blockage at x [10,11], y [5,6], add an M3 blockage
	// at x 4, y [7,8].
	d.AddBlockage(tech.M3, geom.MakeRect(4, 7, 4, 8))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := New(d)
	// A via is forbidden when a landing has a blocked neighbour along
	// its layer's direction: x on M2 (V1's landing and V2's lower one),
	// y on M3 (V2's upper one).
	for _, c := range []struct {
		name       string
		x, y, zLow int
		want       bool
	}{
		{"V1 beside the M2 blockage", 9, 5, 0, true},
		{"V2 beside the M2 blockage (its M2 landing)", 9, 5, 1, true},
		{"V2 below the M3 blockage (its M3 landing)", 4, 6, 1, true},
		{"V2 above the M3 blockage", 4, 9, 1, true},
		{"V1 below the M3 blockage: it lands on M2 only", 4, 6, 0, false},
		{"V2 beside the M3 blockage, across M3's direction", 5, 7, 1, false},
		{"V2 above the M2 blockage, across M2's direction", 10, 4, 1, false},
		{"V1 far from blockages", 5, 5, 0, false},
		{"V2 far from blockages", 5, 5, 1, false},
	} {
		if got := g.ForbiddenVia(c.x, c.y, c.zLow); got != c.want {
			t.Errorf("%s: ForbiddenVia(%d, %d, %d) = %v, want %v", c.name, c.x, c.y, c.zLow, got, c.want)
		}
	}
}

func TestEdgeCanonicalAndVia(t *testing.T) {
	g := New(testDesign(t))
	a := g.ID(5, 5, tech.M2)
	b := g.ID(5, 5, tech.M3)
	e := MakeEdge(b, a)
	if e.From != a || e.To != b {
		t.Error("MakeEdge must order nodes")
	}
	if !g.IsVia(e) {
		t.Error("cross-layer edge is a via")
	}
	wire := MakeEdge(g.ID(5, 5, tech.M2), g.ID(6, 5, tech.M2))
	if g.IsVia(wire) {
		t.Error("same-layer edge is not a via")
	}
}

func TestInBounds(t *testing.T) {
	g := New(testDesign(t))
	if !g.InBounds(0, 0) || !g.InBounds(11, 9) {
		t.Error("corners must be in bounds")
	}
	if g.InBounds(-1, 0) || g.InBounds(12, 0) || g.InBounds(0, 10) {
		t.Error("out-of-range coordinates accepted")
	}
}

func TestCongestedByLayer(t *testing.T) {
	g := New(testDesign(t))
	m2 := g.ID(5, 5, tech.M2)
	m3 := g.ID(6, 6, tech.M3)
	g.Occupy(m2)
	g.Occupy(m2)
	g.Occupy(m3)
	g.Occupy(m3)
	g.Occupy(m3)
	by := g.CongestedByLayer()
	if by[tech.M1] != 0 || by[tech.M2] != 1 || by[tech.M3] != 1 {
		t.Errorf("CongestedByLayer = %v, want [0 1 1]", by)
	}
	if g.CongestedCount() != 2 {
		t.Errorf("CongestedCount = %d, want 2", g.CongestedCount())
	}
}

func TestVirtualOccupancySeparation(t *testing.T) {
	g := New(testDesign(t))
	n := g.ID(4, 4, tech.M2)
	g.Occupy(n)        // metal from net A
	g.OccupyVirtual(n) // clearance from net B
	if !g.Overused(n) {
		t.Error("metal+virtual overlap must count as overuse")
	}
	if g.CongestedCount() != 0 {
		t.Error("virtual overlap must not count as metal congestion")
	}
	if g.OverusedCount() != 1 {
		t.Errorf("OverusedCount = %d, want 1", g.OverusedCount())
	}
	g.ReleaseVirtual(n)
	if g.Overused(n) {
		t.Error("virtual release failed")
	}
}
