package design

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cpr/internal/geom"
	"cpr/internal/tech"
)

// smallDesign builds a two-net design on a 30x10 grid (one panel):
//
//	net a: pins at x [2,3] and [20,21] on track 2
//	net b: pin at x [10,11] on track 2
//	M2 blockage at x [25,27], tracks 0..9 is NOT placed (would hit nothing)
func smallDesign(t *testing.T) *Design {
	t.Helper()
	d := New("small", 30, 10, tech.Default())
	na := d.AddNet("a")
	nb := d.AddNet("b")
	d.AddPin("a1", na, geom.MakeRect(2, 2, 3, 2))
	d.AddPin("a2", na, geom.MakeRect(20, 2, 21, 2))
	d.AddPin("b1", nb, geom.MakeRect(10, 2, 11, 2))
	d.AddBlockage(tech.M2, geom.MakeRect(25, 0, 27, 9))
	if err := d.Validate(); err != nil {
		t.Fatalf("smallDesign invalid: %v", err)
	}
	return d
}

func TestValidateAcceptsSmallDesign(t *testing.T) {
	smallDesign(t)
}

func TestNetBBoxAndHPWL(t *testing.T) {
	d := smallDesign(t)
	box := d.NetBBox(0)
	if box != (geom.Rect{X0: 2, Y0: 2, X1: 21, Y1: 2}) {
		t.Errorf("NetBBox = %v", box)
	}
	idx := d.BuildTrackIndex()
	for n := range d.Nets {
		if got, want := idx.NetBBox(n), d.NetBBox(n); got != want {
			t.Errorf("TrackIndex.NetBBox(%d) = %v, want %v", n, got, want)
		}
	}
	if got := d.HPWL(0); got != 19 {
		t.Errorf("HPWL(net a) = %d, want 19", got)
	}
	if got := d.HPWL(1); got != 1 {
		t.Errorf("HPWL(net b, single pin 2 wide) = %d, want 1", got)
	}
}

func TestPinsInPanel(t *testing.T) {
	d := New("panels", 20, 20, tech.Default()) // two panels: tracks 0-9, 10-19
	n := d.AddNet("n")
	d.AddPin("p0", n, geom.MakeRect(1, 1, 2, 1))
	d.AddPin("p1", n, geom.MakeRect(1, 12, 2, 12))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.PinsInPanel(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("PinsInPanel(0) = %v", got)
	}
	if got := d.PinsInPanel(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("PinsInPanel(1) = %v", got)
	}
	if d.NumPanels() != 2 {
		t.Errorf("NumPanels = %d, want 2", d.NumPanels())
	}
}

// TestTrackIndexPinsInPanel checks the index's panel lists against
// Design.PinsInPanel on random designs whose pins span several tracks.
func TestTrackIndexPinsInPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		d := New("idx", 30, 5+rng.Intn(40), tech.Default())
		n := d.AddNet("n")
		for i := 0; i < 40; i++ {
			x, y := rng.Intn(d.Width), rng.Intn(d.Height)
			d.AddPin("p", n, geom.MakeRect(x, y, x, min(y+rng.Intn(3), d.Height-1)))
		}
		idx := d.BuildTrackIndex()
		for p := -1; p <= d.NumPanels(); p++ {
			if got, want := idx.PinsInPanel(p), d.PinsInPanel(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d panel %d: index lists %v, design %v", trial, p, got, want)
			}
		}
	}
}

// TestTrackIndexListsAreClipped: the per-track pin and blocked-span
// lists and the per-panel pin lists are windows of one arena with no
// spare capacity, so a caller's append copies instead of overwriting the
// next list.
func TestTrackIndexListsAreClipped(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := New("clip", 30, 40, tech.Default())
	n := d.AddNet("n")
	for i := 0; i < 60; i++ {
		x, y := rng.Intn(d.Width), rng.Intn(d.Height)
		d.AddPin("p", n, geom.MakeRect(x, y, x, min(y+rng.Intn(3), d.Height-1)))
	}
	for i := 0; i < 40; i++ {
		x, y := rng.Intn(d.Width), rng.Intn(d.Height)
		d.AddBlockage(tech.M2, geom.MakeRect(x, y, min(x+rng.Intn(4), d.Width-1), min(y+rng.Intn(3), d.Height-1)))
	}
	idx := d.BuildTrackIndex()
	for y := 0; y < d.Height; y++ {
		if l := idx.PinsOnTrack(y); cap(l) != len(l) {
			t.Errorf("track %d: list has len %d, cap %d", y, len(l), cap(l))
		}
		if l := idx.BlockedSpans(y); cap(l) != len(l) {
			t.Errorf("track %d: blocked spans have len %d, cap %d", y, len(l), cap(l))
		}
	}
	for p := 0; p < d.NumPanels(); p++ {
		if l := idx.PinsInPanel(p); cap(l) != len(l) {
			t.Errorf("panel %d: list has len %d, cap %d", p, len(l), cap(l))
		}
	}
}

func TestNumPanelsPartialRow(t *testing.T) {
	d := New("partial", 10, 15, tech.Default())
	if d.NumPanels() != 2 {
		t.Errorf("NumPanels for height 15 = %d, want 2", d.NumPanels())
	}
}

func TestValidateRejections(t *testing.T) {
	mk := func() *Design {
		d := New("x", 30, 10, tech.Default())
		n := d.AddNet("n")
		d.AddPin("p", n, geom.MakeRect(2, 2, 3, 2))
		return d
	}
	t.Run("empty net", func(t *testing.T) {
		d := mk()
		d.AddNet("empty")
		if d.Validate() == nil {
			t.Error("want error for empty net")
		}
	})
	t.Run("pin outside grid", func(t *testing.T) {
		d := mk()
		d.AddPin("out", 0, geom.MakeRect(29, 2, 31, 2))
		if d.Validate() == nil {
			t.Error("want error for pin outside grid")
		}
	})
	t.Run("overlapping pins", func(t *testing.T) {
		d := mk()
		n2 := d.AddNet("m")
		d.AddPin("q", n2, geom.MakeRect(3, 2, 4, 2))
		if d.Validate() == nil {
			t.Error("want error for overlapping pins")
		}
	})
	t.Run("pin straddles panels", func(t *testing.T) {
		d := New("x", 30, 20, tech.Default())
		n := d.AddNet("n")
		d.AddPin("p", n, geom.MakeRect(2, 9, 2, 10))
		if d.Validate() == nil {
			t.Error("want error for panel-straddling pin")
		}
	})
	t.Run("M2 blockage over pin", func(t *testing.T) {
		d := mk()
		d.AddBlockage(tech.M2, geom.MakeRect(2, 2, 5, 2))
		if d.Validate() == nil {
			t.Error("want error for M2 blockage over pin")
		}
	})
	t.Run("blockage bad layer", func(t *testing.T) {
		d := mk()
		d.AddBlockage(7, geom.MakeRect(10, 5, 11, 5))
		if d.Validate() == nil {
			t.Error("want error for invalid blockage layer")
		}
	})
	t.Run("zero grid", func(t *testing.T) {
		d := New("x", 0, 10, tech.Default())
		if d.Validate() == nil {
			t.Error("want error for zero-width grid")
		}
	})
}

func TestTrackIndexPins(t *testing.T) {
	d := smallDesign(t)
	idx := d.BuildTrackIndex()
	pins := idx.PinsOnTrack(2)
	if len(pins) != 3 {
		t.Fatalf("PinsOnTrack(2) = %v, want 3 pins", pins)
	}
	// Sorted by X0: a1 (x=2), b1 (x=10), a2 (x=20).
	wantNames := []string{"a1", "b1", "a2"}
	for i, pid := range pins {
		if d.Pins[pid].Name != wantNames[i] {
			t.Errorf("pin %d = %q, want %q", i, d.Pins[pid].Name, wantNames[i])
		}
	}
	if got := idx.PinsOnTrack(5); len(got) != 0 {
		t.Errorf("PinsOnTrack(5) = %v, want empty", got)
	}
	if got := idx.PinsOnTrack(-1); got != nil {
		t.Error("PinsOnTrack(-1) should be nil")
	}
}

func TestTrackIndexBlockages(t *testing.T) {
	d := smallDesign(t)
	idx := d.BuildTrackIndex()
	spans := idx.BlockedSpans(4)
	if len(spans) != 1 || spans[0] != (geom.Interval{Lo: 25, Hi: 27}) {
		t.Errorf("BlockedSpans(4) = %v", spans)
	}
}

func TestFreeSpanAround(t *testing.T) {
	d := smallDesign(t)
	idx := d.BuildTrackIndex()
	// Track 2 has a blockage at [25,27]; a seed at [2,3] can extend from 0
	// to 24.
	got := idx.FreeSpanAround(2, geom.Interval{Lo: 2, Hi: 3})
	if got != (geom.Interval{Lo: 0, Hi: 24}) {
		t.Errorf("FreeSpanAround = %v, want [0,24]", got)
	}
	// Seed overlapping the blockage is infeasible.
	if !idx.FreeSpanAround(2, geom.Interval{Lo: 26, Hi: 26}).Empty() {
		t.Error("blocked seed should give empty span")
	}
	// Track with no blockage spans the whole width.
	if got := idx.FreeSpanAround(8, geom.Interval{Lo: 5, Hi: 5}); got != (geom.Interval{Lo: 0, Hi: 24}) {
		// blockage covers tracks 0..9, so track 8 also clipped
		t.Errorf("FreeSpanAround(track 8) = %v, want [0,24]", got)
	}
}

func TestMergeIntervals(t *testing.T) {
	in := []geom.Interval{{Lo: 5, Hi: 7}, {Lo: 0, Hi: 2}, {Lo: 3, Hi: 4}, {Lo: 10, Hi: 12}, geom.EmptyInterval()}
	got := MergeIntervals(in)
	want := []geom.Interval{{Lo: 0, Hi: 7}, {Lo: 10, Hi: 12}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeIntervals = %v, want %v", got, want)
	}
	if MergeIntervals(nil) != nil {
		t.Error("MergeIntervals(nil) should be nil")
	}
}

func TestMergeIntervalsProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 1000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(10)
			ivs := make([]geom.Interval, n)
			for i := range ivs {
				lo := r.Intn(30)
				ivs[i] = geom.Interval{Lo: lo, Hi: lo + r.Intn(6) - 1}
			}
			vals[0] = reflect.ValueOf(ivs)
		},
	}
	// Merged output is sorted, disjoint, non-adjacent, and covers exactly
	// the same grid points as the input.
	prop := func(ivs []geom.Interval) bool {
		merged := MergeIntervals(ivs)
		for i := 1; i < len(merged); i++ {
			if merged[i].Lo <= merged[i-1].Hi+1 {
				return false
			}
		}
		covered := func(set []geom.Interval, x int) bool {
			for _, iv := range set {
				if iv.Contains(x) {
					return true
				}
			}
			return false
		}
		for x := -1; x <= 40; x++ {
			if covered(ivs, x) != covered(merged, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestComputeStats(t *testing.T) {
	d := smallDesign(t)
	s := d.ComputeStats()
	if s.Nets != 2 || s.Pins != 3 || s.Blockages != 1 || s.Panels != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.AvgDegree != 1.5 {
		t.Errorf("AvgDegree = %g, want 1.5", s.AvgDegree)
	}
}
