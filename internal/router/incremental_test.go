package router_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/render"
	"cpr/internal/router"
	"cpr/internal/tech"
	"cpr/internal/verify"
)

// clusterPitch spaces pin clusters far enough apart that their influence
// rects (net bbox + the router's maximum search/DRC margin) cannot
// overlap, so Partition yields one region per cluster.
const clusterPitch = 300

// clusteredDesign builds a design whose nets are confined to well
// separated pin clusters, so the router partitions it into `clusters`
// independent regions. Each cluster is dense enough to force
// negotiation within it.
func clusteredDesign(t testing.TB, name string, clusters, netsPerCluster int, seed int64, blockages bool) *design.Design {
	t.Helper()
	const clusterW, height = 48, 20
	width := (clusters-1)*clusterPitch + clusterW
	rng := rand.New(rand.NewSource(seed))
	d := design.New(name, width, height, tech.Default())
	occupied := make(map[[2]int]bool)
	place := func(x0 int) (geom.Rect, bool) {
		for attempt := 0; attempt < 60; attempt++ {
			x, y := x0+rng.Intn(clusterW), rng.Intn(height)
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
	for c := 0; c < clusters; c++ {
		x0 := c * clusterPitch
		for i := 0; i < netsPerCluster; i++ {
			k := 2 + rng.Intn(2)
			shapes := make([]geom.Rect, 0, k)
			for j := 0; j < k; j++ {
				if sh, ok := place(x0); ok {
					shapes = append(shapes, sh)
				}
			}
			if len(shapes) < 2 {
				continue
			}
			id := d.AddNet(fmt.Sprintf("c%dn%d", c, i))
			for j, sh := range shapes {
				d.AddPin(fmt.Sprintf("c%dn%d_p%d", c, i, j), id, sh)
			}
		}
		if blockages {
			x := x0 + 4 + rng.Intn(clusterW-12)
			y := rng.Intn(height)
			if !occupied[[2]int{x, y}] && !occupied[[2]int{x + 1, y}] && !occupied[[2]int{x + 2, y}] {
				d.Blockages = append(d.Blockages, design.Blockage{
					Layer: tech.M2,
					Shape: geom.MakeRect(x, y, x+2, y),
				})
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// dumpFullRun serializes everything observable about a full core run —
// the design bytes, every route's nodes/edges/virtual cells, the
// metrics, and the rendered SVG — with wall-clock and provenance fields
// excluded. Byte equality of dumps is the strict-mode invariant.
func dumpFullRun(t *testing.T, d *design.Design, res *core.RunResult) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := designio.Write(&b, d); err != nil {
		t.Fatal(err)
	}
	r := res.Router
	fmt.Fprintf(&b, "routed=%d vias=%d wl=%d initcong=%d iters=%d congunrouted=%d drcunrouted=%d\n",
		r.RoutedNets, r.Vias, r.Wirelength, r.InitialCongested,
		r.NegotiationIters, r.CongestionUnrouted, r.DRCUnrouted)
	for netID, nr := range r.Routes {
		if nr == nil {
			continue
		}
		fmt.Fprintf(&b, "net %d routed=%v fail=%q nodes %v edges %v virtual %v\n",
			netID, nr.Routed, nr.FailReason, nr.Nodes, nr.Edges, nr.Virtual)
	}
	m := res.Metrics.ZeroTimes()
	fmt.Fprintf(&b, "metrics %+v\n", m)
	if err := render.SVG(&b, d, grid.New(d), r, nil, render.SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// rebuildECO reconstructs a design from an edited pin/blockage list the
// way a fresh ECO netlist would: pin IDs and net IDs renumbered in pin
// order, nets that lost their pins dropped.
func rebuildECO(t *testing.T, d *design.Design, pins []design.Pin, blockages []design.Blockage) *design.Design {
	t.Helper()
	nd := design.New(d.Name, d.Width, d.Height, d.Tech)
	netMap := make(map[int]int)
	for _, p := range pins {
		nid, ok := netMap[p.NetID]
		if !ok {
			nid = nd.AddNet(d.Nets[p.NetID].Name)
			netMap[p.NetID] = nid
		}
		nd.AddPin(p.Name, nid, p.Shape)
	}
	nd.Blockages = append([]design.Blockage(nil), blockages...)
	return nd
}

// ecoEdit applies one random one-pin or one-blockage edit, confined to
// the edited net's own cluster so the other clusters' regions stay
// byte-identical. Retries until the edited design validates.
func ecoEdit(t *testing.T, d *design.Design, rng *rand.Rand) *design.Design {
	t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		pins := append([]design.Pin(nil), d.Pins...)
		blockages := append([]design.Blockage(nil), d.Blockages...)
		switch rng.Intn(3) {
		case 0: // move one pin a few sites within its cluster
			if len(pins) == 0 {
				continue
			}
			p := &pins[rng.Intn(len(pins))]
			dx := 1 + rng.Intn(3)
			if rng.Intn(2) == 0 {
				dx = -dx
			}
			p.Shape = geom.MakeRect(p.Shape.X0+dx, p.Shape.Y0, p.Shape.X1+dx, p.Shape.Y1)
		case 1: // add one pin next to an existing pin of a random net
			if len(pins) == 0 {
				continue
			}
			anchor := pins[rng.Intn(len(pins))]
			x := anchor.Shape.X0 + rng.Intn(11) - 5
			y := rng.Intn(d.Height)
			pins = append(pins, design.Pin{
				Name:  fmt.Sprintf("eco_%d", attempt),
				NetID: anchor.NetID,
				Shape: geom.MakeRect(x, y, x, y),
			})
		default: // toggle one blockage near an existing pin
			if len(blockages) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(blockages))
				blockages = append(blockages[:i], blockages[i+1:]...)
			} else {
				if len(pins) == 0 {
					continue
				}
				anchor := pins[rng.Intn(len(pins))]
				x := anchor.Shape.X0 + rng.Intn(7) - 3
				y := rng.Intn(d.Height)
				blockages = append(blockages, design.Blockage{
					Layer: tech.M2,
					Shape: geom.MakeRect(x, y, x+2, y),
				})
			}
		}
		nd := rebuildECO(t, d, pins, blockages)
		if nd.Validate() == nil {
			return nd
		}
	}
	t.Fatal("could not produce a valid random ECO edit in 200 attempts")
	return nil
}

// TestIncrementalStrictByteIdentical is the strict-mode contract as a
// property test: over random one-pin/one-blockage ECO edits of
// multi-region designs, core.Rerun in strict mode must be byte-identical
// — design bytes, every route, the metrics, and the rendered SVG — to a
// cold run of the edited design, for Workers in {1, 2, 8}, while
// actually splicing routes (a rerun sequence that never splices would
// pass vacuously).
func TestIncrementalStrictByteIdentical(t *testing.T) {
	cases := []struct {
		name      string
		clusters  int
		blockages bool
		seed      int64
	}{
		{"two-cluster", 2, false, 4242},
		{"three-cluster-blk", 3, true, 1717},
	}
	workerCounts := []int{1, 2, 8}
	const edits = 3
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d := clusteredDesign(t, "strict-"+tc.name, tc.clusters, 12, tc.seed, tc.blockages)
			rng := rand.New(rand.NewSource(tc.seed))
			prev, err := core.Run(d, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			splicedTotal := 0
			for step := 0; step < edits; step++ {
				d = ecoEdit(t, d, rng)
				cold, err := core.Run(d, core.Options{})
				if err != nil {
					t.Fatalf("step %d: cold run: %v", step, err)
				}
				coldDump := dumpFullRun(t, d, cold)
				for _, workers := range workerCounts {
					inc, err := core.Rerun(prev, d, core.Options{Workers: workers})
					if err != nil {
						t.Fatalf("step %d workers=%d: rerun: %v", step, workers, err)
					}
					if inc.Incremental == nil {
						t.Fatalf("step %d workers=%d: no incremental stats", step, workers)
					}
					if got := dumpFullRun(t, d, inc); !bytes.Equal(got, coldDump) {
						t.Fatalf("step %d workers=%d: strict rerun differs from cold run: %s",
							step, workers, firstDiff(coldDump, got))
					}
					if inc.Incremental.NetsWarm != 0 {
						t.Fatalf("step %d workers=%d: strict rerun warm-started %d nets",
							step, workers, inc.Incremental.NetsWarm)
					}
					splicedTotal += inc.Incremental.NetsSpliced
				}
				prev = cold
			}
			if splicedTotal == 0 {
				t.Error("no net was ever spliced across the edit sequence; incremental routing is inert")
			}
		})
	}
}

// TestIncrementalEcoFastVerifiedEquivalent is the eco-fast contract:
// over the same kind of random ECO edits, an eco-fast rerun must verify
// DRC-clean against the independent oracle and achieve an objective
// equal to the cold run's, while actually warm-starting nets.
func TestIncrementalEcoFastVerifiedEquivalent(t *testing.T) {
	d := clusteredDesign(t, "ecofast", 2, 12, 9090, true)
	rng := rand.New(rand.NewSource(9090))
	prev, err := core.Run(d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmTotal, splicedTotal := 0, 0
	for step := 0; step < 4; step++ {
		d = ecoEdit(t, d, rng)
		cold, err := core.Run(d, core.Options{})
		if err != nil {
			t.Fatalf("step %d: cold run: %v", step, err)
		}
		for _, workers := range []int{1, 8} {
			inc, err := core.Rerun(prev, d, core.Options{Workers: workers, RerunMode: core.RerunEcoFast})
			if err != nil {
				t.Fatalf("step %d workers=%d: eco-fast rerun: %v", step, workers, err)
			}
			if rep := verify.Check(d, grid.New(d), inc.Router); !rep.Ok() {
				t.Fatalf("step %d workers=%d: eco-fast result fails verification: %v",
					step, workers, rep.Errors)
			}
			if err := verify.ObjectiveEqual(d, cold.Router, inc.Router); err != nil {
				t.Fatalf("step %d workers=%d: eco-fast objective differs from cold: %v",
					step, workers, err)
			}
			if inc.Incremental == nil {
				t.Fatalf("step %d workers=%d: no incremental stats", step, workers)
			}
			warmTotal += inc.Incremental.NetsWarm
			splicedTotal += inc.Incremental.NetsSpliced
		}
		prev = cold
	}
	if warmTotal == 0 {
		t.Error("no net was ever warm-started across the edit sequence; eco-fast path is inert")
	}
	if splicedTotal == 0 {
		t.Error("no net was ever spliced across the edit sequence; eco-fast splicing is inert")
	}
}

// TestEcoFastFailsWithoutSpliceSeeding is the required negative control
// for the eco-fast safety argument: warm-starting nets WITHOUT replaying
// their occupancy and congestion history onto the grid
// (RunOpts.SkipSpliceSeeding) must produce a result the eco-fast
// equivalence check rejects.
//
// The failure is an objective loss, not a DRC violation: the router's
// final DRC stage detects overlaps from the route tables themselves (not
// grid occupancy), so a fresh net routed straight through invisible warm
// metal is always caught and repaired there — verify.Check stays clean
// even unseeded. But that repair is a single-net greedy fix with none of
// negotiation's congestion history, so under contention it strands nets
// the seeded run routes. On this pinned congested instance the seeded
// run routes strictly more nets than the unseeded one, which is exactly
// the divergence verify.ObjectiveEqual (the eco-fast runtime gate) is
// there to catch: if this test ever passes with seeding skipped, the
// equivalence oracle has lost the power to detect a seeding regression.
func TestEcoFastFailsWithoutSpliceSeeding(t *testing.T) {
	// One dense cluster, seed pinned to a congested instance where the
	// seeded and unseeded outcomes provably diverge.
	d := clusteredDesign(t, "noseed", 1, 20, 1, false)
	cold := router.New(d, grid.New(d), router.Config{}).Run()
	warm := make(map[int]*router.NetRoute)
	i := 0
	for netID, nr := range cold.Routes {
		if nr != nil && nr.Routed {
			if i%2 == 0 {
				warm[netID] = nr
			}
			i++
		}
	}
	if len(warm) < 4 {
		t.Fatalf("only %d warm candidates; the control exercises nothing", len(warm))
	}

	run := func(skip bool) *router.Result {
		g := grid.New(d)
		r := router.New(d, g, router.Config{})
		res := r.RunPlan(context.Background(), r.Partition(),
			router.RunOpts{Warm: warm, SkipSpliceSeeding: skip})
		if res.WarmNets != len(warm) {
			t.Fatalf("warm nets = %d, want %d", res.WarmNets, len(warm))
		}
		if rep := verify.Check(d, g, res); !rep.Ok() {
			t.Fatalf("skip=%v fails verification: %v (DRC repair should keep both runs clean)",
				skip, rep.Errors)
		}
		return res
	}

	seeded, unseeded := run(false), run(true)
	if unseeded.RoutedNets >= seeded.RoutedNets {
		t.Fatalf("unseeded warm-start routed %d nets vs %d seeded; the negative control is inert",
			unseeded.RoutedNets, seeded.RoutedNets)
	}
	if err := verify.ObjectiveEqual(d, seeded, unseeded); err == nil {
		t.Fatal("ObjectiveEqual accepted the unseeded result; a seeding regression would go undetected")
	}
}

// splicedRegionsFrom bundles a cold result's routes per region, the way
// pipeline route artifacts do.
func splicedRegionsFrom(plan *router.Plan, cold *router.Result, keep func(id int) bool) map[int]*router.SplicedRegion {
	spliced := make(map[int]*router.SplicedRegion)
	for _, rg := range plan.Regions {
		if !keep(rg.ID) {
			continue
		}
		routes := make([]*router.NetRoute, len(rg.Nets))
		for i, netID := range rg.Nets {
			routes[i] = cold.Routes[netID]
		}
		spliced[rg.ID] = &router.SplicedRegion{Routes: routes, Summary: cold.RegionSummaries[rg.ID]}
	}
	return spliced
}

// TestSplicedRunContributesNoPriorTime is the Elapsed double-counting
// regression test: a run that splices every region computes nothing, so
// its StageElapsed must be all-zero (the spliced regions' prior-run time
// must not reappear), while its counter summaries match the cold run's.
// ZeroTimes must clear every wall-clock field.
func TestSplicedRunContributesNoPriorTime(t *testing.T) {
	d := clusteredDesign(t, "times", 2, 12, 321, false)
	g1 := grid.New(d)
	r1 := router.New(d, g1, router.Config{})
	cold := r1.Run()
	if cold.Regions < 2 {
		t.Fatalf("expected >= 2 regions, got %d", cold.Regions)
	}
	var coldStage int64
	for _, s := range cold.StageElapsed {
		coldStage += int64(s)
	}
	if coldStage == 0 {
		t.Fatal("cold run recorded no stage time; the regression assertion below would be vacuous")
	}

	g2 := grid.New(d)
	r2 := router.New(d, g2, router.Config{})
	plan := r2.Partition()
	res := r2.RunPlan(context.Background(), plan,
		router.RunOpts{Spliced: splicedRegionsFrom(plan, cold, func(int) bool { return true })})

	if res.SplicedNets != len(d.Nets) {
		t.Fatalf("spliced %d nets, want all %d", res.SplicedNets, len(d.Nets))
	}
	for i, s := range res.StageElapsed {
		if s != 0 {
			t.Errorf("StageElapsed[%d] = %v on an all-spliced run, want 0 (prior-run time re-counted)", i, s)
		}
	}
	if res.NegotiationIters != cold.NegotiationIters {
		t.Errorf("spliced NegotiationIters = %d, want cold's %d", res.NegotiationIters, cold.NegotiationIters)
	}
	if res.Search != (router.SearchStats{}) {
		t.Errorf("all-spliced run counts search work %+v, want none", res.Search)
	}
	if len(res.RegionSummaries) != len(cold.RegionSummaries) {
		t.Fatalf("region summaries: %d vs cold %d", len(res.RegionSummaries), len(cold.RegionSummaries))
	}
	for i := range res.RegionSummaries {
		if res.RegionSummaries[i] != cold.RegionSummaries[i] {
			t.Errorf("region %d summary %+v differs from cold %+v", i, res.RegionSummaries[i], cold.RegionSummaries[i])
		}
	}

	res.ZeroTimes()
	if res.Elapsed != 0 {
		t.Errorf("ZeroTimes left Elapsed = %v", res.Elapsed)
	}
	for i, s := range res.StageElapsed {
		if s != 0 {
			t.Errorf("ZeroTimes left StageElapsed[%d] = %v", i, s)
		}
	}
}
