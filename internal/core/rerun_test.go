package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cpr/internal/blockstore"
	"cpr/internal/cache"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/exchange"
	"cpr/internal/geom"
	"cpr/internal/lagrange"
	"cpr/internal/pipeline"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/tech"
)

// dumpRunResult serializes everything observable about a run — the
// design bytes, the pin-opt report, every route, and the metrics — with
// the wall-clock fields (Elapsed, CPUSeconds) and the provenance-only
// Incremental field excluded. Byte equality of dumps is the incremental
// invariant: Rerun must be indistinguishable from a cold run.
func dumpRunResult(t *testing.T, d *design.Design, res *RunResult) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := designio.Write(&b, d); err != nil {
		t.Fatal(err)
	}
	if res.PinOpt != nil {
		fmt.Fprintf(&b, "pinopt %+v\n", reportFingerprint(res.PinOpt))
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
	return b.Bytes()
}

// rebuild reconstructs a design from an edited pin and blockage list,
// renumbering pin IDs and net membership the way a fresh ECO netlist
// would. Nets that lost their last pin are dropped.
func rebuild(t *testing.T, d *design.Design, pins []design.Pin, blockages []design.Blockage) *design.Design {
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

// editDesign applies one random validity-preserving edit: move a pin,
// delete a pin, add a pin, or toggle a blockage. It retries until the
// edited design validates.
func editDesign(t *testing.T, d *design.Design, rng *rand.Rand) *design.Design {
	t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		pins := append([]design.Pin(nil), d.Pins...)
		blockages := append([]design.Blockage(nil), d.Blockages...)
		switch rng.Intn(4) {
		case 0: // move a pin in x
			if len(pins) == 0 {
				continue
			}
			p := &pins[rng.Intn(len(pins))]
			dx := 1 + rng.Intn(3)
			if rng.Intn(2) == 0 {
				dx = -dx
			}
			p.Shape = geom.MakeRect(p.Shape.X0+dx, p.Shape.Y0, p.Shape.X1+dx, p.Shape.Y1)
		case 1: // delete a pin (keep its net non-empty)
			if len(pins) == 0 {
				continue
			}
			i := rng.Intn(len(pins))
			victim := pins[i]
			siblings := 0
			for _, p := range pins {
				if p.NetID == victim.NetID {
					siblings++
				}
			}
			if siblings < 3 {
				continue // keep the net routable (>= 2 pins)
			}
			pins = append(pins[:i], pins[i+1:]...)
		case 2: // add a pin to an existing net
			if len(d.Nets) == 0 {
				continue
			}
			net := rng.Intn(len(d.Nets))
			x, y := rng.Intn(d.Width), rng.Intn(d.Height)
			pins = append(pins, design.Pin{
				Name:  fmt.Sprintf("eco_%d_%d", attempt, len(pins)),
				NetID: net,
				Shape: geom.MakeRect(x, y, x, y),
			})
		default: // toggle a blockage
			if len(blockages) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(blockages))
				blockages = append(blockages[:i], blockages[i+1:]...)
			} else {
				x, y := rng.Intn(d.Width-3), rng.Intn(d.Height)
				blockages = append(blockages, design.Blockage{
					Layer: tech.M2,
					Shape: geom.MakeRect(x, y, x+2, y),
				})
			}
		}
		nd := rebuild(t, d, pins, blockages)
		if nd.Validate() == nil {
			return nd
		}
	}
	t.Fatal("could not produce a valid random edit in 200 attempts")
	return nil
}

// TestRerunByteIdenticalRandomEdits is the incremental invariant as a
// property test: over a sequence of random ECO edits (pin moves, adds,
// deletes, blockage toggles), Rerun against the previous result must be
// byte-identical to a cold run of the edited design, for every worker
// count.
func TestRerunByteIdenticalRandomEdits(t *testing.T) {
	specs := []synth.Spec{
		{Name: "eco-a", Nets: 120, Width: 140, Height: 60, Seed: 11},
		{Name: "eco-b", Nets: 90, Width: 120, Height: 40, Seed: 22, BlockageFraction: 0.04},
	}
	const editsPerSpec = 4
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(spec.Seed))
			d := mustGenerate(t, spec)
			prev, err := Run(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			reusedTotal := 0
			for step := 0; step < editsPerSpec; step++ {
				d = editDesign(t, d, rng)
				cold, err := Run(d, Options{})
				if err != nil {
					t.Fatalf("step %d: cold run: %v", step, err)
				}
				coldDump := dumpRunResult(t, d, cold)
				for _, workers := range determinismWorkers {
					inc, err := Rerun(prev, d, Options{Workers: workers})
					if err != nil {
						t.Fatalf("step %d workers=%d: rerun: %v", step, workers, err)
					}
					if inc.Incremental == nil {
						t.Fatalf("step %d workers=%d: Rerun returned no incremental stats", step, workers)
					}
					if got := dumpRunResult(t, d, inc); !bytes.Equal(got, coldDump) {
						t.Fatalf("step %d workers=%d: rerun output differs from cold run (reused %d/%d panels)",
							step, workers, inc.Incremental.Reused, inc.Incremental.Panels)
					}
					reusedTotal += inc.Incremental.Reused
				}
				prev = cold
			}
			if reusedTotal == 0 {
				t.Error("no panel was ever reused across the edit sequence; incremental path is inert")
			}
		})
	}
}

// TestRerunRecomputesOnlyDirtyPanels pins down the reuse granularity on
// a >= 16-panel design: after a single-pin move inside one panel, Rerun
// must recompute only the panels reachable from that edit and the panel
// cache must answer every other panel. The hit counters of the panel
// cache are the assertion, per the two-level cache contract.
func TestRerunRecomputesOnlyDirtyPanels(t *testing.T) {
	spec := synth.Spec{Name: "eco-wide", Nets: 260, Width: 150, Height: 170, Seed: 33}
	d := mustGenerate(t, spec)
	if got := d.NumPanels(); got < 16 {
		t.Fatalf("design has %d panels, want >= 16", got)
	}

	pc := cache.New[*pipeline.PanelArtifact](4096)
	prev, err := Run(d, Options{PanelCache: pc})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Incremental == nil || prev.Incremental.Reused != 0 {
		t.Fatalf("cold run reported reuse: %+v", prev.Incremental)
	}
	nonEmpty := prev.Incremental.Panels

	// Move one pin by one site within its own panel.
	pins := append([]design.Pin(nil), d.Pins...)
	var edited *design.Design
	var editedPanel int
	rng := rand.New(rand.NewSource(7))
	for attempt := 0; ; attempt++ {
		if attempt >= 500 {
			t.Fatal("could not find a movable pin")
		}
		i := rng.Intn(len(pins))
		trial := append([]design.Pin(nil), pins...)
		p := &trial[i]
		p.Shape = geom.MakeRect(p.Shape.X0+1, p.Shape.Y0, p.Shape.X1+1, p.Shape.Y1)
		nd := rebuild(t, d, trial, d.Blockages)
		if nd.Validate() == nil {
			edited = nd
			editedPanel = d.Tech.PanelOfTrack(p.Shape.Y0)
			break
		}
	}

	before := pc.Stats()
	res, err := Rerun(prev, edited, Options{PanelCache: pc})
	if err != nil {
		t.Fatal(err)
	}
	inc := res.Incremental
	if inc == nil {
		t.Fatal("no incremental stats")
	}
	// The edited pin dirties its own panel; because its net's bounding
	// box may have moved, every panel that net touches is conservatively
	// dirty too. A single-pin move must never dirty more than a handful
	// of panels on a 17-panel design.
	if len(inc.Recomputed) == 0 || len(inc.Recomputed) > 4 {
		t.Fatalf("recomputed panels = %v, want 1..4 (edit in panel %d)", inc.Recomputed, editedPanel)
	}
	found := false
	for _, p := range inc.Recomputed {
		if p == editedPanel {
			found = true
		}
	}
	if !found {
		t.Errorf("recomputed %v does not include the edited panel %d", inc.Recomputed, editedPanel)
	}
	if inc.Reused+len(inc.Recomputed) != inc.Panels {
		t.Errorf("reused %d + recomputed %d != panels %d", inc.Reused, len(inc.Recomputed), inc.Panels)
	}
	if inc.Reused < nonEmpty-4 {
		t.Errorf("reused %d of %d panels, want at least %d", inc.Reused, inc.Panels, nonEmpty-4)
	}
	// Panel-cache accounting: the cache is consulted before the previous
	// result's artifacts, so every reused panel is a cache hit and every
	// recomputed panel a miss.
	after := pc.Stats()
	if hits := after.Hits - before.Hits; hits != int64(inc.Reused) {
		t.Errorf("panel cache hits = %d, want %d (one per reused panel)", hits, inc.Reused)
	}
	if misses := after.Misses - before.Misses; misses != int64(len(inc.Recomputed)) {
		t.Errorf("panel cache misses = %d, want %d (one per recomputed panel)", misses, len(inc.Recomputed))
	}

	// And the spliced result must still be byte-identical to cold.
	cold, err := Run(edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpRunResult(t, edited, res), dumpRunResult(t, edited, cold)) {
		t.Error("incremental result differs from cold run")
	}

	// A second rerun of the same edited design against the ORIGINAL
	// result must now answer the recomputed panels from the panel cache:
	// everything reused, nothing recomputed.
	res2, err := Rerun(prev, edited, Options{PanelCache: pc})
	if err != nil {
		t.Fatal(err)
	}
	if inc2 := res2.Incremental; inc2 == nil || len(inc2.Recomputed) != 0 || inc2.Reused != inc.Panels {
		t.Errorf("second rerun stats = %+v, want all %d panels reused", res2.Incremental, inc.Panels)
	}
}

// TestRerunNeighborPanelDirtying covers the cross-panel input: a net
// with pins in two panels couples them through the net bounding box, so
// editing the net's pin in one panel must also recompute the neighbor
// panel even though no shape there changed.
func TestRerunNeighborPanelDirtying(t *testing.T) {
	build := func(x0 int) *design.Design {
		d := design.New("neighbor", 60, 30, tech.Default())
		span := d.AddNet("span")
		d.AddPin("span_a", span, geom.MakeRect(x0, 2, x0, 2))   // panel 0
		d.AddPin("span_b", span, geom.MakeRect(40, 12, 40, 12)) // panel 1
		local := d.AddNet("local")
		d.AddPin("local_a", local, geom.MakeRect(10, 22, 10, 22)) // panel 2
		d.AddPin("local_b", local, geom.MakeRect(20, 24, 20, 24)) // panel 2
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := build(8)
	edited := build(5) // span net's panel-0 pin moved -> its bbox changed

	prev, err := Run(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rerun(prev, edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := res.Incremental
	if inc == nil {
		t.Fatal("no incremental stats")
	}
	want := map[int]bool{0: true, 1: true}
	got := map[int]bool{}
	for _, p := range inc.Recomputed {
		got[p] = true
	}
	if !got[0] || !got[1] {
		t.Errorf("recomputed %v, want panels 0 and 1 (bbox-coupled)", inc.Recomputed)
	}
	if got[2] {
		t.Errorf("panel 2 recomputed despite being untouched: %v", inc.Recomputed)
	}
	for p := range got {
		if !want[p] && p != 2 {
			t.Errorf("unexpected recomputed panel %d", p)
		}
	}

	cold, err := Run(edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpRunResult(t, edited, res), dumpRunResult(t, edited, cold)) {
		t.Error("incremental result differs from cold run")
	}
}

// TestRerunFallsBackOnOptionChanges: changing a result-affecting solver
// option invalidates every panel (fingerprint mismatch), so Rerun
// degrades to a full cold run rather than splicing stale artifacts.
func TestRerunFallsBackOnOptionChanges(t *testing.T) {
	d := mustGenerate(t, synth.Spec{Name: "eco-opt", Nets: 60, Width: 100, Height: 40, Seed: 44})
	prev, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rerun(prev, d, Options{LR: lagrange.Config{MaxIterations: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if inc := res.Incremental; inc != nil && inc.Reused != 0 {
		t.Errorf("reused %d panels across a solver-option change", inc.Reused)
	}
	cold, err := Run(d, Options{LR: lagrange.Config{MaxIterations: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpRunResult(t, d, res), dumpRunResult(t, d, cold)) {
		t.Error("fallback rerun differs from cold run")
	}
}

// backedLevels builds a panel and a route level the way cprd's job
// manager does: typed LRUs over a block exchange.
func backedLevels(panelCap int, src cache.BlockSource) (*cache.Backed[*pipeline.PanelArtifact], *cache.Backed[*pipeline.RouteArtifact]) {
	return cache.NewBacked[*pipeline.PanelArtifact](panelCap, src,
			pipeline.MarshalPanelArtifact, pipeline.UnmarshalPanelArtifact,
			func(a *pipeline.PanelArtifact) string { return a.Key }),
		cache.NewBacked[*pipeline.RouteArtifact](0, src,
			pipeline.MarshalRouteArtifact, pipeline.UnmarshalRouteArtifact,
			func(a *pipeline.RouteArtifact) string { return a.Key })
}

// TestRerunSeedsBackedCaches: RerunContext puts its base result's keyed
// artifacts into the cache levels it is given before the run starts.
// The context is canceled up front, so the run stops at once and the
// levels show the seeding alone. Over the in-memory blockstore the
// seeded artifacts live in the typed tier only; with a panel level
// smaller than the base, the ones it evicts are written to the
// blockstore under their content keys. Keyless artifacts are skipped,
// and an artifact a level already holds is not put again.
func TestRerunSeedsBackedCaches(t *testing.T) {
	keys := []string{
		cache.PanelKey("panel-0", "fp"),
		cache.PanelKey("panel-1", "fp"),
		cache.PanelKey("panel-2", "fp"),
	}
	routeKey := cache.RouteKey("region-0", "fp")
	base := &RunResult{Artifacts: &pipeline.ArtifactSet{
		Routes: []*pipeline.RouteArtifact{{Region: 0, Key: routeKey}, {Region: 1}},
	}}
	for i, k := range keys {
		base.Artifacts.Panels = append(base.Artifacts.Panels, &pipeline.PanelArtifact{Panel: i, Key: k})
	}
	base.Artifacts.Panels = append(base.Artifacts.Panels, &pipeline.PanelArtifact{Panel: len(keys)})
	d := mustGenerate(t, synth.Spec{Name: "seed", Nets: 10, Width: 60, Height: 20, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, panelCap := range []int{16, 2} {
		t.Run(fmt.Sprintf("panel-cap=%d", panelCap), func(t *testing.T) {
			store := blockstore.NewMem(0)
			panels, routes := backedLevels(panelCap, exchange.New(store, nil, nil))
			if _, err := RerunContext(ctx, base, d, Options{PanelCache: panels, RouteCache: routes}); !errors.Is(err, context.Canceled) {
				t.Fatalf("RerunContext with a canceled context = %v, want context.Canceled", err)
			}
			inMemory := min(panelCap, len(keys))
			if n := panels.Stats().Entries; n != inMemory {
				t.Errorf("panel level holds %d entries, want %d (keyless artifact skipped)", n, inMemory)
			}
			if n := routes.Stats().Entries; n != 1 {
				t.Errorf("route level holds %d entries, want 1 (keyless artifact skipped)", n)
			}
			if _, ok := routes.Block(routeKey); !ok {
				t.Error("the keyed route artifact is not in the typed tier")
			}
			// Seeding runs in artifact order, so the last inMemory
			// artifacts are in the typed tier and the earlier ones were
			// evicted to the blockstore.
			for i, k := range keys {
				if !panels.Contains(k) {
					t.Errorf("artifact %d was not seeded", i)
				}
				if i >= len(keys)-inMemory {
					if _, ok := panels.Block(k); !ok {
						t.Errorf("artifact %d is not in the typed tier", i)
					}
					if has, _ := store.Has(k); has {
						t.Errorf("artifact %d was written to the blockstore while the typed tier holds it", i)
					}
					continue
				}
				if _, ok := panels.Block(k); ok {
					t.Errorf("evicted artifact %d is still in the typed tier", i)
				}
				data, err := store.Get(k)
				if err != nil {
					t.Fatalf("evicted artifact %d not in the blockstore: %v", i, err)
				}
				if a, err := pipeline.UnmarshalPanelArtifact(data); err != nil || a.Key != k {
					t.Errorf("block %s... decodes to %+v, %v; want the artifact keyed %s...", k[:8], a, err, k[:8])
				}
			}
			if n := store.Stats().Blocks; n != len(keys)-inMemory {
				t.Errorf("blockstore holds %d blocks, want the %d evicted artifacts", n, len(keys)-inMemory)
			}
		})
	}

	t.Run("already-held", func(t *testing.T) {
		store := blockstore.NewMem(0)
		panels, routes := backedLevels(16, exchange.New(store, nil, nil))
		held := &pipeline.PanelArtifact{Panel: 1, Key: keys[1]}
		panels.Put(keys[1], held)
		evicted := &pipeline.PanelArtifact{Panel: 2, Key: keys[2]}
		data, err := pipeline.MarshalPanelArtifact(evicted)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(keys[2], data); err != nil {
			t.Fatal(err)
		}
		if _, err := RerunContext(ctx, base, d, Options{PanelCache: panels, RouteCache: routes}); !errors.Is(err, context.Canceled) {
			t.Fatalf("RerunContext with a canceled context = %v, want context.Canceled", err)
		}
		if got, _ := panels.Get(keys[1]); got != held {
			t.Error("the artifact the typed tier held was put again")
		}
		if _, ok := panels.Block(keys[2]); ok {
			t.Error("the artifact the blockstore held was put again")
		}
		if n := panels.Stats().Entries; n != 2 {
			t.Errorf("panel level holds %d entries, want the held artifact and the one new key", n)
		}
	})
}

// TestPanelWorkerSplit is the regression test for worker
// oversubscription: the outer (panel) and inner (per-stage) splits must
// never multiply out beyond the worker budget. The previous
// ceil(workers/panels) inner could reach panels*inner > workers whenever
// 1 < panels < workers (e.g. 3 panels x ceil(8/3)=3 -> 9 goroutines on
// a budget of 8).
func TestPanelWorkerSplit(t *testing.T) {
	for workers := 1; workers <= 24; workers++ {
		for panels := 0; panels <= 30; panels++ {
			outer, inner := panelWorkerSplit(workers, panels)
			if panels == 0 {
				if outer != 0 {
					t.Fatalf("workers=%d panels=0: outer=%d, want 0", workers, outer)
				}
				continue
			}
			if outer < 1 || inner < 1 {
				t.Fatalf("workers=%d panels=%d: outer=%d inner=%d, want >= 1", workers, panels, outer, inner)
			}
			if outer > panels {
				t.Fatalf("workers=%d panels=%d: outer=%d exceeds panel count", workers, panels, outer)
			}
			if outer*inner > workers {
				t.Fatalf("workers=%d panels=%d: outer*inner=%d oversubscribes the budget",
					workers, panels, outer*inner)
			}
		}
	}
	// The paper-motivated shape: many workers, few panels. All budget
	// should reach the panels' inner stages without oversubscribing.
	if outer, inner := panelWorkerSplit(8, 3); outer != 3 || inner != 2 {
		t.Errorf("split(8,3) = (%d,%d), want (3,2)", outer, inner)
	}
	if outer, inner := panelWorkerSplit(8, 20); outer != 8 || inner != 1 {
		t.Errorf("split(8,20) = (%d,%d), want (8,1)", outer, inner)
	}
	if outer, inner := panelWorkerSplit(1, 5); outer != 1 || inner != 1 {
		t.Errorf("split(1,5) = (%d,%d), want (1,1)", outer, inner)
	}
}

// hashRoutes digests every net's route: its net ID, nodes, edges,
// virtual nodes, routed flag and failure reason.
func hashRoutes(routes []*router.NetRoute) [sha256.Size]byte {
	h := sha256.New()
	for netID, nr := range routes {
		if nr == nil {
			fmt.Fprintf(h, "net %d nil\n", netID)
			continue
		}
		fmt.Fprintf(h, "net %d id=%d routed=%v fail=%q nodes %v edges %v virtual %v\n",
			netID, nr.NetID, nr.Routed, nr.FailReason, nr.Nodes, nr.Edges, nr.Virtual)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// clusteredDesign places nets in three pin clusters 300 columns apart,
// beyond any search or DRC margin, so the router partitions the design
// into one region per cluster.
func clusteredDesign(t *testing.T) *design.Design {
	t.Helper()
	const pitch, clusterW, height = 300, 48, 20
	rng := rand.New(rand.NewSource(7))
	d := design.New("clustered", 2*pitch+clusterW, height, tech.Default())
	used := make(map[[2]int]bool)
	for c := 0; c < 3; c++ {
		for n := 0; n < 10; n++ {
			id := d.AddNet(fmt.Sprintf("c%dn%d", c, n))
			for p := 0; p < 2+n%2; {
				x, y := c*pitch+rng.Intn(clusterW), rng.Intn(height)
				if used[[2]int{x, y}] {
					continue
				}
				used[[2]int{x, y}] = true
				d.AddPin(fmt.Sprintf("c%dn%d_p%d", c, n, p), id, geom.MakeRect(x, y, x, y))
				p++
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRerunLeavesBaseRoutesUntouched: a result is read-only once
// returned, and its route artifacts share its routes rather than copy
// them. A strict and an eco-fast rerun, both splicing from one base
// result, must leave every route of that base as it was.
func TestRerunLeavesBaseRoutesUntouched(t *testing.T) {
	d := clusteredDesign(t)
	base, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Artifacts == nil || len(base.Artifacts.Routes) < 2 {
		t.Fatalf("base has %d route artifacts, want one per cluster", len(base.Artifacts.Routes))
	}
	for _, a := range base.Artifacts.Routes {
		for i, netID := range a.Nets {
			if a.Routes[i] != base.Router.Routes[netID] {
				t.Fatalf("region %d: artifact route of net %d is a copy, want the result's own route", a.Region, netID)
			}
		}
	}
	before := hashRoutes(base.Router.Routes)

	// Two edits, each dirtying one cluster's region while the other two
	// are spliced: moving a pin of the first net, and deleting the last
	// cluster's first net, which shifts the IDs of the nets after it, so
	// eco-fast renumbers the routes it warm-starts.
	var moved *design.Design
	for _, dx := range []int{1, -1, 2, -2} {
		pins := append([]design.Pin(nil), d.Pins...)
		sh := pins[0].Shape
		pins[0].Shape = geom.MakeRect(sh.X0+dx, sh.Y0, sh.X1+dx, sh.Y1)
		if nd := rebuild(t, d, pins, d.Blockages); nd.Validate() == nil {
			moved = nd
			break
		}
	}
	if moved == nil {
		t.Fatal("no valid one-pin edit")
	}
	var kept []design.Pin
	for _, p := range d.Pins {
		if d.Nets[p.NetID].Name != "c2n0" {
			kept = append(kept, p)
		}
	}
	deleted := rebuild(t, d, kept, d.Blockages)
	if err := deleted.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, edited := range []*design.Design{moved, deleted} {
		for _, mode := range []RerunMode{RerunStrict, RerunEcoFast} {
			res, err := Rerun(base, edited, Options{RerunMode: mode})
			if err != nil {
				t.Fatalf("%v rerun: %v", mode, err)
			}
			inc := res.Incremental
			if inc == nil || inc.RegionsSpliced == 0 {
				t.Fatalf("%v rerun spliced no region: %+v", mode, inc)
			}
			if mode == RerunEcoFast && inc.NetsWarm == 0 {
				t.Fatalf("eco-fast rerun warm-started no net: %+v", inc)
			}
			if after := hashRoutes(base.Router.Routes); after != before {
				t.Fatalf("%v rerun changed the base result's routes", mode)
			}
		}
	}
}
