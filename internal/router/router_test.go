package router

import (
	"math"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/pinaccess"
	"cpr/internal/tech"
)

// twoPinDesign is a single net with pins on the same track, 10 apart.
func twoPinDesign(t *testing.T) *design.Design {
	t.Helper()
	d := design.New("two", 20, 10, tech.Default())
	n := d.AddNet("n")
	d.AddPin("p0", n, geom.MakeRect(3, 4, 3, 4))
	d.AddPin("p1", n, geom.MakeRect(13, 4, 13, 4))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRouteSimpleNet(t *testing.T) {
	d := twoPinDesign(t)
	g := grid.New(d)
	res := New(d, g, Config{}).Run()
	if res.RoutedNets != 1 {
		t.Fatalf("routed %d/1 nets: %+v", res.RoutedNets, res.Routes[0])
	}
	nr := res.Routes[0]
	// Straight route: M1 via up, 10 M2 steps, via down = 2 vias, 10 WL.
	if got := nr.Vias(g); got != 2 {
		t.Errorf("vias = %d, want 2", got)
	}
	if got := nr.Wirelength(g); got != 10 {
		t.Errorf("wirelength = %d, want 10", got)
	}
	if res.InitialCongested != 0 {
		t.Errorf("initial congestion = %d, want 0", res.InitialCongested)
	}
}

func TestRouteAroundBlockage(t *testing.T) {
	d := design.New("blk", 20, 10, tech.Default())
	n := d.AddNet("n")
	d.AddPin("p0", n, geom.MakeRect(3, 4, 3, 4))
	d.AddPin("p1", n, geom.MakeRect(13, 4, 13, 4))
	// Wall on M2 track 4 between the pins forces a detour via M3.
	d.AddBlockage(tech.M2, geom.MakeRect(8, 4, 8, 4))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{}).Run()
	if res.RoutedNets != 1 {
		t.Fatalf("net not routed: %+v", res.Routes[0])
	}
	nr := res.Routes[0]
	if got := nr.Vias(g); got < 4 {
		t.Errorf("vias = %d, want >= 4 (detour through M3)", got)
	}
	// The blocked cell must not be used.
	for _, id := range nr.Nodes {
		if g.Blocked(id) {
			t.Error("route crosses a blockage")
		}
	}
}

func TestMultiPinNet(t *testing.T) {
	d := design.New("multi", 30, 10, tech.Default())
	n := d.AddNet("n")
	d.AddPin("p0", n, geom.MakeRect(2, 4, 2, 4))
	d.AddPin("p1", n, geom.MakeRect(15, 4, 15, 4))
	d.AddPin("p2", n, geom.MakeRect(27, 4, 27, 4))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{}).Run()
	if res.RoutedNets != 1 {
		t.Fatalf("net not routed")
	}
	// Tree connecting collinear pins: about 25 wire edges.
	if wl := res.Routes[0].Wirelength(g); wl < 25 {
		t.Errorf("wirelength = %d, want >= 25", wl)
	}
}

func TestOtherNetsPinsAreBlockages(t *testing.T) {
	// Net 0's only corridor on its track is through net 1's pin on M1 —
	// which must not matter (M1 carries no wires). But net 1's pin M2
	// shadow is open, so net 0 may cross above it on M2.
	d := design.New("cross", 20, 10, tech.Default())
	n0 := d.AddNet("a")
	n1 := d.AddNet("b")
	d.AddPin("a0", n0, geom.MakeRect(3, 4, 3, 4))
	d.AddPin("a1", n0, geom.MakeRect(13, 4, 13, 4))
	d.AddPin("b0", n1, geom.MakeRect(8, 4, 8, 4))
	d.AddPin("b1", n1, geom.MakeRect(8, 7, 8, 7))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{}).Run()
	if res.RoutedNets != 2 {
		t.Fatalf("routed %d/2: %v %v", res.RoutedNets,
			res.Routes[0].FailReason, res.Routes[1].FailReason)
	}
	// Net 0 must never enter net 1's pin cells on M1.
	b0 := g.ID(8, 4, tech.M1)
	for _, id := range res.Routes[0].Nodes {
		if id == b0 {
			t.Error("net 0 routed through net 1's pin")
		}
	}
}

func TestSeedAssignmentReservesAndRoutes(t *testing.T) {
	d := twoPinDesign(t)
	g := grid.New(d)
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := assign.Build(set, assign.SqrtProfit)
	sol := m.MinimumSolution()
	r := New(d, g, Config{})
	r.SeedAssignment(set, sol)
	// The seeded cells belong to net 0 now.
	iv := set.Intervals[sol.ByPin[0]]
	id := g.ID(iv.Span.Lo, iv.Track, tech.M2)
	if g.Owner(id) != 0 {
		t.Error("seeded interval cell not owned")
	}
	res := r.Run()
	if res.RoutedNets != 1 {
		t.Fatalf("seeded net not routed: %+v", res.Routes[0])
	}
}

func TestCongestionForcesNegotiation(t *testing.T) {
	// A vertical wall at x=10 with a single M2 gap at track 4: both nets
	// must squeeze their M2 crossing through the same cells, so the
	// independent stage congests and negotiation must resolve it (here by
	// sacrificing one net; the corridor fits only one).
	d := design.New("contend", 20, 10, tech.Default())
	n0 := d.AddNet("a")
	n1 := d.AddNet("b")
	d.AddPin("a0", n0, geom.MakeRect(1, 2, 1, 2))
	d.AddPin("a1", n0, geom.MakeRect(18, 2, 18, 2))
	d.AddPin("b0", n1, geom.MakeRect(1, 6, 1, 6))
	d.AddPin("b1", n1, geom.MakeRect(18, 6, 18, 6))
	d.AddBlockage(tech.M2, geom.MakeRect(10, 0, 10, 3))
	d.AddBlockage(tech.M2, geom.MakeRect(10, 5, 10, 9))
	d.AddBlockage(tech.M3, geom.MakeRect(9, 0, 11, 9))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{SkipDRC: true}).Run()
	if res.InitialCongested == 0 {
		t.Error("expected initial congestion when nets share the only corridor")
	}
	if got := g.CongestedCount(); got != 0 {
		t.Errorf("residual congestion %d after negotiation", got)
	}
	if res.RoutedNets < 1 {
		t.Errorf("routed %d nets, want >= 1", res.RoutedNets)
	}
	if res.RoutedNets+res.CongestionUnrouted+drcCount(res) != 2 {
		t.Errorf("accounting broken: routed=%d congUnrouted=%d", res.RoutedNets, res.CongestionUnrouted)
	}
}

func drcCount(res *Result) int { return res.DRCUnrouted }

func TestUnroutableNetReported(t *testing.T) {
	// A pin fully walled in by blockages (M2 above it is open only at the
	// pin, M3 blocked everywhere around) cannot escape.
	d := design.New("walled", 10, 10, tech.Default())
	n := d.AddNet("n")
	d.AddPin("p0", n, geom.MakeRect(4, 4, 4, 4))
	d.AddPin("p1", n, geom.MakeRect(8, 8, 8, 8))
	// Block M2 row 4 except the pin cell, and M3 column 4 entirely.
	d.AddBlockage(tech.M2, geom.MakeRect(0, 4, 3, 4))
	d.AddBlockage(tech.M2, geom.MakeRect(5, 4, 9, 4))
	d.AddBlockage(tech.M3, geom.MakeRect(4, 0, 4, 9))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{}).Run()
	if res.RoutedNets != 0 {
		t.Error("walled-in net should be unroutable")
	}
	if res.Routes[0].FailReason == "" {
		t.Error("unrouted net should carry a fail reason")
	}
}

func TestLineEndSpacingViolationDropsNet(t *testing.T) {
	// Two nets routed head-to-head on the same track with a 2-cell gap;
	// after 1-cell extensions on both sides the gap closes below the
	// spacing rule, so one net must be dropped.
	d := design.New("lineend", 24, 10, tech.Default())
	n0 := d.AddNet("a")
	n1 := d.AddNet("b")
	d.AddPin("a0", n0, geom.MakeRect(1, 4, 1, 4))
	d.AddPin("a1", n0, geom.MakeRect(9, 4, 9, 4))
	d.AddPin("b0", n1, geom.MakeRect(12, 4, 12, 4))
	d.AddPin("b1", n1, geom.MakeRect(22, 4, 22, 4))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{}).Run()
	// Straight routes: a covers x1..9, b covers x12..22 on track 4.
	// Extended by 1 the gap closes below the spacing rule, and the pins
	// sit too close for any legal detour, so exactly one net survives —
	// dropped either by clearance-cell negotiation or by the final DRC
	// stage.
	if res.RoutedNets != 1 {
		t.Errorf("routed %d nets, want 1 after line-end enforcement", res.RoutedNets)
	}
	if res.DRCUnrouted+res.CongestionUnrouted != 1 {
		t.Errorf("drc=%d congestion=%d drops, want 1 total",
			res.DRCUnrouted, res.CongestionUnrouted)
	}
}

func TestSkipDRCSkipsOnlyFinalCheck(t *testing.T) {
	// SkipDRC disables the final rule check; line-end clearance cells
	// still participate in negotiation, so the infeasible head-to-head
	// pair resolves through congestion instead.
	d := design.New("lineend2", 24, 10, tech.Default())
	n0 := d.AddNet("a")
	n1 := d.AddNet("b")
	d.AddPin("a0", n0, geom.MakeRect(1, 4, 1, 4))
	d.AddPin("a1", n0, geom.MakeRect(9, 4, 9, 4))
	d.AddPin("b0", n1, geom.MakeRect(12, 4, 12, 4))
	d.AddPin("b1", n1, geom.MakeRect(22, 4, 22, 4))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{SkipDRC: true}).Run()
	if res.DRCUnrouted != 0 {
		t.Errorf("SkipDRC ran the DRC stage: drcUnrouted %d", res.DRCUnrouted)
	}
	if res.RoutedNets+res.CongestionUnrouted != 2 {
		t.Errorf("accounting: routed=%d congestion=%d", res.RoutedNets, res.CongestionUnrouted)
	}
}

// TestSegmentsOfRuns checks how segmentsOf cuts one track's cells into
// strips: consecutive and repeated coordinates merge, gaps split.
func TestSegmentsOfRuns(t *testing.T) {
	d := twoPinDesign(t)
	g := grid.New(d)
	r := New(d, g, Config{})
	var nodes []grid.NodeID
	for _, x := range []int{5, 1, 2, 3, 7, 8, 2} {
		nodes = append(nodes, g.ID(x, 6, tech.M2))
	}
	got := r.wholeShard(nil).segmentsOf(nil, &NetRoute{NetID: 0, Nodes: nodes})
	want := []geom.Interval{{Lo: 1, Hi: 3}, {Lo: 5, Hi: 5}, {Lo: 7, Hi: 8}}
	if len(got) != len(want) {
		t.Fatalf("segments = %+v, want spans %v", got, want)
	}
	for i := range want {
		if got[i].span != want[i] || got[i].layer != tech.M2 || got[i].track != 6 {
			t.Errorf("segment %d = %+v, want M2 track 6 span %v", i, got[i], want[i])
		}
	}
	if segs := r.wholeShard(nil).segmentsOf(nil, &NetRoute{Nodes: []grid.NodeID{g.ID(3, 4, tech.M1)}}); len(segs) != 0 {
		t.Errorf("M1-only route has segments %+v", segs)
	}
}

// TestExtendSegment checks extendStrips on one M2 strip: the rule
// engine's line-end extension and minimum length, clamped to the grid
// width along the track.
func TestExtendSegment(t *testing.T) {
	for _, tc := range []struct {
		ext, minLen, width int
		lo, hi             int
		wantLo, wantHi     int
	}{
		{1, 2, 20, 5, 8, 4, 9}, // plain extension (the default rules)
		{1, 2, 20, 0, 2, 0, 3}, // clamped at the grid boundary
		{0, 3, 20, 4, 4, 4, 6}, // no extension: min length alone grows hi
		{0, 5, 3, 0, 0, 0, 2},  // a 3-cell grid caps growth
	} {
		tt := tech.Default()
		tt.LineEndExtension, tt.MinLineLen = tc.ext, tc.minLen
		d := design.New("ext", tc.width, 10, tt)
		d.AddNet("n")
		g := grid.New(d)
		var nodes []grid.NodeID
		for x := tc.lo; x <= tc.hi; x++ {
			nodes = append(nodes, g.ID(x, 6, tech.M2))
		}
		s := New(d, g, Config{}).wholeShard([]*NetRoute{{NetID: 0, Nodes: nodes}})
		s.drc.from, s.drc.to = make([]int, 1), make([]int, 1)
		s.extendStrips(0)
		strips := s.drc.strips[s.drc.from[0]:s.drc.to[0]]
		want := geom.Interval{Lo: tc.wantLo, Hi: tc.wantHi}
		if len(strips) != 1 || strips[0].span != want {
			t.Errorf("ext %d, minLen %d, width %d: [%d,%d] extends to %+v, want span %v",
				tc.ext, tc.minLen, tc.width, tc.lo, tc.hi, strips, want)
		}
	}
}

func TestSingleAndZeroPinNets(t *testing.T) {
	d := design.New("deg", 10, 10, tech.Default())
	n0 := d.AddNet("single")
	d.AddPin("p", n0, geom.MakeRect(4, 4, 4, 4))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{}).Run()
	if res.RoutedNets != 1 {
		t.Error("single-pin net should be trivially routed")
	}
	if res.Vias != 0 || res.Wirelength != 0 {
		t.Errorf("trivial net has vias=%d wl=%d", res.Vias, res.Wirelength)
	}
}

func TestNetOrderStrategies(t *testing.T) {
	d := design.New("order", 40, 10, tech.Default())
	// Net 0: long 2-pin; net 1: short 3-pin.
	n0 := d.AddNet("long")
	d.AddPin("l0", n0, geom.MakeRect(1, 2, 1, 2))
	d.AddPin("l1", n0, geom.MakeRect(36, 2, 36, 2))
	n1 := d.AddNet("short")
	d.AddPin("s0", n1, geom.MakeRect(10, 6, 10, 6))
	d.AddPin("s1", n1, geom.MakeRect(14, 6, 14, 6))
	d.AddPin("s2", n1, geom.MakeRect(18, 6, 18, 6))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		order NetOrder
		first int
	}{
		{OrderHPWLAsc, 1},  // short net first
		{OrderHPWLDesc, 0}, // long net first
		{OrderByID, 0},
		{OrderByPins, 1}, // 3-pin net first
	}
	for _, c := range cases {
		g := grid.New(d)
		r := New(d, g, Config{Order: c.order})
		got := r.netOrder()
		if got[0] != c.first {
			t.Errorf("%v: first net %d, want %d", c.order, got[0], c.first)
		}
		// Every strategy still routes everything on this easy design.
		res := r.Run()
		if res.RoutedNets != 2 {
			t.Errorf("%v: routed %d/2", c.order, res.RoutedNets)
		}
	}
}

func TestNetOrderStrings(t *testing.T) {
	if OrderHPWLAsc.String() != "hpwl-asc" || OrderHPWLDesc.String() != "hpwl-desc" ||
		OrderByID.String() != "id" || OrderByPins.String() != "pins" {
		t.Error("NetOrder strings wrong")
	}
}

// TestNewRejectsInvalidConfig: New panics on a configuration Validate
// refuses, and accepts the zero configuration.
func TestNewRejectsInvalidConfig(t *testing.T) {
	d := design.New("cfg", 8, 8, tech.Default())
	n := d.AddNet("n")
	d.AddPin("p", n, geom.MakeRect(1, 1, 1, 1))
	g := grid.New(d)
	New(d, g, Config{})
	for _, cfg := range []Config{
		{HistoryIncrement: -0.5},
		{HistoryIncrement: math.NaN()},
		{PresentCostBase: math.Inf(1)},
		{PresentCostGrowth: math.NaN()},
	} {
		if cfg.Validate() == nil {
			t.Errorf("%+v: Validate accepted it", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: New did not panic", cfg)
				}
			}()
			New(d, g, cfg)
		}()
	}
}
