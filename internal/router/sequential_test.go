package router

import (
	"testing"
	"time"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

func TestSequentialRoutesSimpleNet(t *testing.T) {
	d := twoPinDesign(t)
	g := grid.New(d)
	res := New(d, g, Config{}).RunSequential(SequentialConfig{})
	if res.RoutedNets != 1 {
		t.Fatalf("sequential routed %d/1: %+v", res.RoutedNets, res.Routes[0])
	}
	if res.Routes[0].Vias(g) != 2 || res.Routes[0].Wirelength(g) != 10 {
		t.Errorf("vias=%d wl=%d, want 2/10",
			res.Routes[0].Vias(g), res.Routes[0].Wirelength(g))
	}
}

func TestSequentialCommitsAreHardBlockages(t *testing.T) {
	// Two parallel nets on the same track: the second must detour because
	// the first's route and clearance are committed.
	d := design.New("seq2", 24, 10, tech.Default())
	n0 := d.AddNet("a")
	n1 := d.AddNet("b")
	d.AddPin("a0", n0, geom.MakeRect(2, 4, 2, 4))
	d.AddPin("a1", n0, geom.MakeRect(20, 4, 20, 4))
	d.AddPin("b0", n1, geom.MakeRect(4, 6, 4, 6))
	d.AddPin("b1", n1, geom.MakeRect(18, 6, 18, 6))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := New(d, g, Config{}).RunSequential(SequentialConfig{})
	if res.RoutedNets != 2 {
		t.Fatalf("routed %d/2: %v / %v", res.RoutedNets,
			res.Routes[0].FailReason, res.Routes[1].FailReason)
	}
	// No node shared between the two routes.
	used := make(map[grid.NodeID]int)
	for netID, nr := range res.Routes {
		for _, id := range nr.Nodes {
			if prev, ok := used[id]; ok && prev != netID {
				t.Fatalf("node shared between nets %d and %d", prev, netID)
			}
			used[id] = netID
		}
	}
}

func TestSequentialIsLineEndClean(t *testing.T) {
	// Head-to-head nets on a track: sequential legalization must keep
	// them apart (or defer/fail one), never produce a violating pair.
	d := design.New("seqle", 24, 10, tech.Default())
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
	r := New(d, g, Config{})
	res := r.RunSequential(SequentialConfig{})
	// Verify rule cleanliness with the same checker the negotiated flow
	// uses: zero nets must be dropped.
	if dropped := len(r.wholeShard(res.Routes).enforceLineEndRules()); dropped != 0 {
		t.Errorf("sequential result violated line-end rules; %d nets dropped", dropped)
	}
}

func TestSequentialDefersAndRetries(t *testing.T) {
	// Narrow corridor: one net commits through it; the other is deferred
	// and eventually fails or detours. Either way the run terminates with
	// consistent accounting.
	d := corridorDesign(t)
	g := grid.New(d)
	res := New(d, g, Config{}).RunSequential(SequentialConfig{})
	if res.RoutedNets < 1 {
		t.Errorf("routed %d, want >= 1", res.RoutedNets)
	}
	unrouted := 0
	for _, nr := range res.Routes {
		if !nr.Routed {
			unrouted++
			if nr.FailReason == "" {
				t.Error("unrouted net lacks fail reason")
			}
		}
	}
	if res.RoutedNets+unrouted != 2 {
		t.Error("net accounting inconsistent")
	}
}

// corridorDesign has two nets that both need the one M2 cell crossing
// a blocked column, so the sequential router defers one of them.
func corridorDesign(t *testing.T) *design.Design {
	t.Helper()
	d := design.New("seqdefer", 20, 10, tech.Default())
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
	return d
}

// TestSequentialReportsStageTimes checks the sequential run's time
// split: the first pass and the retry rounds (the corridor design defers
// a net, so both run) are non-zero, sum to no more than Elapsed, and
// leave the congestion and DRC entries zero; ZeroTimes clears them.
func TestSequentialReportsStageTimes(t *testing.T) {
	d := corridorDesign(t)
	res := New(d, grid.New(d), Config{}).RunSequential(SequentialConfig{})
	st := res.StageElapsed
	if st[0] <= 0 || st[1] <= 0 || st[2] != 0 || st[3] != 0 {
		t.Fatalf("stage times %v, want first pass and retries > 0, the rest 0", st)
	}
	if sum := st[0] + st[1]; sum > res.Elapsed {
		t.Fatalf("stage times sum to %v, more than the run's %v", sum, res.Elapsed)
	}
	res.ZeroTimes()
	if res.StageElapsed != ([4]time.Duration{}) || res.Elapsed != 0 {
		t.Fatalf("after ZeroTimes: stage times %v, elapsed %v", res.StageElapsed, res.Elapsed)
	}
}

func TestPlanPinAccessReservesAroundPin(t *testing.T) {
	d := twoPinDesign(t)
	g := grid.New(d)
	r := New(d, g, Config{})
	reserved := r.wholeShard(make([]*NetRoute, len(d.Nets))).planPinAccess(0)
	if len(reserved) == 0 {
		t.Fatal("no cells reserved")
	}
	// All reserved cells are on M2 and owned by net 0.
	for _, id := range reserved {
		_, _, z := g.Coords(id)
		if z != tech.M2 {
			t.Error("reserved cell off M2")
		}
		if g.Owner(id) != 0 {
			t.Error("reserved cell not owned")
		}
	}
}
