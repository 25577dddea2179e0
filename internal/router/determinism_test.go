package router_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/pinaccess"
	"cpr/internal/render"
	"cpr/internal/router"
	"cpr/internal/tech"
	"cpr/internal/telemetry"
)

// determinismDesign builds a design dense enough to force negotiation.
func determinismDesign(t *testing.T) *design.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	d := design.New("determinism", 48, 20, tech.Default())
	occupied := make(map[[2]int]bool)
	place := func() (geom.Rect, bool) {
		for attempt := 0; attempt < 60; attempt++ {
			x, y := rng.Intn(48), rng.Intn(20)
			if y%10 == 9 {
				y--
			}
			if occupied[[2]int{x, y}] {
				continue
			}
			occupied[[2]int{x, y}] = true
			return geom.MakeRect(x, y, x, y), true
		}
		return geom.Rect{}, false
	}
	for i := 0; i < 24; i++ {
		k := 2 + rng.Intn(2)
		shapes := make([]geom.Rect, 0, k)
		for j := 0; j < k; j++ {
			if sh, ok := place(); ok {
				shapes = append(shapes, sh)
			}
		}
		if len(shapes) < 2 {
			continue
		}
		id := d.AddNet(fmt.Sprintf("n%d", i))
		for j, sh := range shapes {
			d.AddPin(fmt.Sprintf("n%d_p%d", i, j), id, sh)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// shuffledCopy rebuilds a ByPin map inserting keys in a shuffled order, so
// the two runs see maps with different internal layouts.
func shuffledCopy(byPin map[int]int, seed int64) map[int]int {
	keys := make([]int, 0, len(byPin))
	for k := range byPin {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	out := make(map[int]int, len(byPin))
	for _, k := range keys {
		out[k] = byPin[k]
	}
	return out
}

// dumpRun executes the full seeded negotiation flow and serializes
// everything observable — the design bytes, every route's nodes, edges and
// virtual cells, the run metrics, and the rendered SVG — into one buffer.
// Wall-clock fields (Elapsed, StageElapsed) are deliberately excluded.
func dumpRun(t *testing.T, d *design.Design, set *pinaccess.Set, byPin map[int]int) []byte {
	t.Helper()
	g := grid.New(d)
	sol := &assign.Solution{ByPin: byPin}
	r := router.New(d, g, router.Config{})
	r.SeedAssignment(set, sol)
	res := r.Run()

	var b bytes.Buffer
	if err := designio.Write(&b, d); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "routed=%d vias=%d wl=%d initcong=%d iters=%d congunrouted=%d drcunrouted=%d\n",
		res.RoutedNets, res.Vias, res.Wirelength, res.InitialCongested,
		res.NegotiationIters, res.CongestionUnrouted, res.DRCUnrouted)
	for netID, nr := range res.Routes {
		fmt.Fprintf(&b, "net %d routed=%v fail=%q\n", netID, nr.Routed, nr.FailReason)
		fmt.Fprintf(&b, "  nodes %v\n", nr.Nodes)
		fmt.Fprintf(&b, "  edges %v\n", nr.Edges)
		fmt.Fprintf(&b, "  virtual %v\n", nr.Virtual)
	}
	seeds := []render.Seed{{Set: set, ByPin: byPin}}
	if err := render.SVG(&b, d, g, res, seeds, render.SVGOptions{ShowIntervals: true}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestNegotiationRouterByteIdentical runs the identical seeded routing
// problem several times, each time handing the router assignment maps
// built with a different insertion order, and requires the complete
// serialized outcome to be byte-identical. This is the regression gate for
// the determinism contract behind the content-addressed result cache: a
// map-iteration-order leak anywhere in seeding, search, DRC, or rendering
// shows up here as a byte diff.
func TestNegotiationRouterByteIdentical(t *testing.T) {
	d := determinismDesign(t)
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), allPins(d))
	if err != nil {
		t.Fatal(err)
	}
	m := assign.Build(set, assign.SqrtProfit)
	sol := m.MinimumSolution()

	base := dumpRun(t, d, set, shuffledCopy(sol.ByPin, 1))
	if !bytes.Contains(base, []byte("routed=")) {
		t.Fatal("dump missing metrics line")
	}
	for trial := int64(2); trial <= 4; trial++ {
		got := dumpRun(t, d, set, shuffledCopy(sol.ByPin, trial))
		if !bytes.Equal(got, base) {
			t.Fatalf("trial %d: routing outcome not byte-identical (len %d vs %d): %s",
				trial, len(got), len(base), firstDiff(base, got))
		}
	}
}

// TestSearchWorkDeterministicAcrossWorkers: the path search work
// counters depend only on the routing problem. They are identical for
// Workers 1, 2 and 8 and with telemetry on, the registry publishes the
// run's totals, and the route:negotiate spans carry their share.
func TestSearchWorkDeterministicAcrossWorkers(t *testing.T) {
	d := clusteredDesign(t, "search-work", 3, 12, 1717, true)
	var base router.SearchStats
	for i, workers := range []int{1, 2, 8} {
		res := router.New(d, grid.New(d), router.Config{Workers: workers}).Run()
		if res.Regions < 3 {
			t.Fatalf("workers=%d: %d regions, want 3", workers, res.Regions)
		}
		if i == 0 {
			base = res.Search
			continue
		}
		if res.Search != base {
			t.Errorf("workers=%d: search work %+v, workers=1 did %+v", workers, res.Search, base)
		}
	}
	if base.Searches == 0 || base.Pops == 0 || base.Pops > base.Pushes || base.StalePops > base.Pops {
		t.Fatalf("implausible search work %+v", base)
	}

	reg := telemetry.NewRegistry()
	tr := telemetry.New()
	ctx := telemetry.WithTracer(telemetry.WithRegistry(context.Background(), reg), tr)
	res := router.New(d, grid.New(d), router.Config{Workers: 2}).RunCtx(ctx)
	if res.Search != base {
		t.Errorf("traced search work %+v, untraced %+v", res.Search, base)
	}
	for name, want := range map[string]int64{
		"cpr_router_search_searches_total":   base.Searches,
		"cpr_router_search_pushes_total":     base.Pushes,
		"cpr_router_search_pops_total":       base.Pops,
		"cpr_router_search_stale_pops_total": base.StalePops,
	} {
		if got := reg.Counter(name, "").Value(); got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	var negPops int64
	for _, sp := range tr.FindAll("route:negotiate") {
		for _, a := range sp.Attrs() {
			if a.Key == "pops" {
				negPops += a.Value.(int64)
			}
		}
	}
	if negPops == 0 || negPops > base.Pops {
		t.Errorf("route:negotiate spans carry %d pops, want within (0, %d]", negPops, base.Pops)
	}
}

func allPins(d *design.Design) []int {
	pins := make([]int, len(d.Pins))
	for i := range pins {
		pins[i] = i
	}
	return pins
}

// firstDiff describes the first byte position where a and b diverge.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("common prefix of %d bytes, lengths differ", n)
}
