package router

import (
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// TestRouteNetAllocatesOnlyRoute is routeNet's allocation contract: on a
// warmed shard, routing a net allocates the NetRoute it returns and its
// Nodes, Edges and Virtual slices, each at its exact length, and nothing
// else.
func TestRouteNetAllocatesOnlyRoute(t *testing.T) {
	d := design.New("alloc", 40, 20, tech.Default())
	n := d.AddNet("n")
	d.AddPin("p0", n, geom.MakeRect(3, 4, 3, 5))
	d.AddPin("p1", n, geom.MakeRect(30, 12, 30, 12))
	d.AddPin("p2", n, geom.MakeRect(17, 16, 17, 16))
	d.AddBlockage(tech.M2, geom.MakeRect(10, 0, 10, 14))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	r := New(d, grid.New(d), Config{})
	s := r.wholeShard(make([]*NetRoute, len(d.Nets)))
	for _, presFac := range []float64{0, 2} {
		nr := s.routeNet(n, presFac, r.cfg.WindowMargin)
		if !nr.Routed || len(nr.Edges) == 0 || len(nr.Virtual) == 0 {
			t.Fatalf("presFac %v: route %+v, want a routed net with edges and clearance cells", presFac, nr)
		}
		for name, l := range map[string][2]int{
			"Nodes":   {len(nr.Nodes), cap(nr.Nodes)},
			"Edges":   {len(nr.Edges), cap(nr.Edges)},
			"Virtual": {len(nr.Virtual), cap(nr.Virtual)},
		} {
			if l[0] != l[1] {
				t.Errorf("presFac %v: %s has length %d, capacity %d", presFac, name, l[0], l[1])
			}
		}
		allocs := testing.AllocsPerRun(20, func() { s.routeNet(n, presFac, r.cfg.WindowMargin) })
		if allocs != 4 {
			t.Errorf("presFac %v: warmed routeNet allocates %v times, want 4 (route, nodes, edges, virtual)", presFac, allocs)
		}
	}
}

// TestStageCountsAllocateNothing checks that the per-round counts and a
// DRC violation pass reuse the shard's sets and buffers: on a warmed
// shard, overusedCount, congestedCounts and countViolations allocate
// nothing.
func TestStageCountsAllocateNothing(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 10 && checked < 3; seed++ {
		c, ok := newStageCase(seed)
		if !ok {
			continue
		}
		r := c.newRouter()
		routes := make([]*NetRoute, len(c.d.Nets))
		s := r.wholeShard(routes)
		for _, netID := range s.netOrderOf(s.region.Nets) {
			routes[netID] = s.routeNet(netID, 0, r.cfg.WindowMargin)
			s.occupy(routes[netID], &s.nodes)
		}
		if congested, _ := s.congestedCounts(); s.overusedCount() == 0 || congested == 0 {
			continue // the counts have nothing to find
		}
		checked++
		if a := testing.AllocsPerRun(10, func() { s.overusedCount() }); a != 0 {
			t.Errorf("seed %d: overusedCount allocates %v times, want 0", seed, a)
		}
		if a := testing.AllocsPerRun(10, func() { s.congestedCounts() }); a != 0 {
			t.Errorf("seed %d: congestedCounts allocates %v times, want 0", seed, a)
		}
		s.enforceLineEndRules()
		if a := testing.AllocsPerRun(10, s.countViolations); a != 0 {
			t.Errorf("seed %d: a warmed violation pass allocates %v times, want 0", seed, a)
		}
	}
	if checked == 0 {
		t.Fatal("no case left congestion after stage 1")
	}
}
