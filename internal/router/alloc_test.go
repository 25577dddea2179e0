package router

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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

// copiesDesign lays k copies of one random cluster of nets side by side,
// far enough apart that each copy is a region of its own and every
// copy's region, windows and routes are the first one's, shifted.
func copiesDesign(t *testing.T, k int) *design.Design {
	t.Helper()
	const w, h, gap = 30, 24, 200
	d := design.New("copies", gap*(k+1), h, tech.Default())
	for c := 0; c < k; c++ {
		rng := rand.New(rand.NewSource(5))
		x0 := gap * (c + 1) // every copy a gap from the grid's edges
		used := make(map[[2]int]bool)
		for n := 0; n < 10; n++ {
			netID := d.AddNet(fmt.Sprintf("c%dn%d", c, n))
			for p := 2 + rng.Intn(2); p > 0; p-- {
				x, y := rng.Intn(w), rng.Intn(h)
				if used[[2]int{x, y}] || x == w/2 { // the blockage's column
					continue
				}
				used[[2]int{x, y}] = true
				d.AddPin(fmt.Sprintf("c%dp%d", c, len(d.Pins)), netID, geom.MakeRect(x0+x, y, x0+x, y))
			}
		}
		d.AddBlockage(tech.M2, geom.MakeRect(x0+w/2, 2, x0+w/2, h-3))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunPlanGrowsScratchOnce is the allocation contract of RunPlan's
// scratch free list: on a plan of identical regions routed by one
// worker, only the first region grows shard scratch. Every later region
// costs the same allocations, fewer than the first by at least what
// growing a scratch costs, and, on the scratch the first region left,
// moves none of its arrays. Each count is the least of three runs, as
// the runtime now and then allocates on its own.
func TestRunPlanGrowsScratchOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	least := func(f func() uint64) uint64 { return min(f(), f(), f()) }

	// Two regions on one scratch, as the free list hands it over: the
	// second moves no array of the scratch the first grew, and growth is
	// what the first allocates beyond the second.
	var first, second uint64
	for i := 0; i < 3; i++ {
		d := copiesDesign(t, 2)
		r := New(d, grid.New(d), Config{})
		plan := r.Partition()
		routes := make([]*NetRoute, len(d.Nets))
		sc := new(shardScratch)
		a := mallocs(func() {
			sh := regionShard(r, plan.Regions[0], routes)
			sh.shardScratch = sc
			sh.run(context.Background())
		})
		arrays := scratchArrays(sc)
		b := mallocs(func() {
			sh := regionShard(r, plan.Regions[1], routes)
			sh.shardScratch = sc
			sh.run(context.Background())
		})
		for name, ref := range scratchArrays(sc) {
			if ref != arrays[name] {
				t.Fatalf("the second region moved %s from %+v to %+v", name, arrays[name], ref)
			}
		}
		if i == 0 || a < first {
			first = a
		}
		if i == 0 || b < second {
			second = b
		}
	}
	if first <= second {
		t.Fatalf("a region on a new scratch allocates %d times, on a used one %d", first, second)
	}
	growth := first - second

	// run routes k copies through RunPlan; with k = 0 it routes an empty
	// plan on one copy, RunPlan's cost without regions.
	run := func(k int) uint64 {
		d := copiesDesign(t, max(k, 1))
		r := New(d, grid.New(d), Config{})
		plan := r.Partition()
		if k == 0 {
			plan = &Plan{NetRegion: plan.NetRegion}
		} else if len(plan.Regions) != k {
			t.Fatalf("%d copies make %d regions", k, len(plan.Regions))
		}
		return mallocs(func() { r.RunPlan(context.Background(), plan, RunOpts{Workers: 1}) })
	}
	var none, one, two, three uint64
	for k, a := range []*uint64{&none, &one, &two, &three} {
		*a = least(func() uint64 { return run(k) })
	}
	t.Logf("allocations: no region %d, then %d, %d, %d per added region; a new scratch grows in %d",
		none, one-none, two-one, three-two, growth)
	if three-two != two-one {
		t.Errorf("the second region allocates %d times, the third %d", two-one, three-two)
	}
	if one-none < two-one+growth {
		t.Errorf("the first region allocates %d times and the second %d; growing a scratch takes %d",
			one-none, two-one, growth)
	}
}

// arrayRef is where a slice's backing array starts, and its capacity.
type arrayRef struct {
	at  uintptr
	cap int
}

// scratchArrays maps every slice the shard scratch owns, by field path,
// to its backing array. The DRC buffers' nets is the region's member
// list, not scratch.
func scratchArrays(sc *shardScratch) map[string]arrayRef {
	out := make(map[string]arrayRef)
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			out[path] = arrayRef{v.Pointer(), v.Cap()}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.Name != "nets" {
					walk(path+"."+f.Name, v.Field(i))
				}
			}
		}
	}
	walk("shardScratch", reflect.ValueOf(sc).Elem())
	return out
}
