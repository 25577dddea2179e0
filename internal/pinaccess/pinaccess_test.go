package pinaccess

import (
	"fmt"
	"sync"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/synth"
	"cpr/internal/tech"
)

// figure3aDesign reconstructs the scenario of paper Figure 3(a): pin a1
// spans three tracks; its net bounding box is set by same-net pins a2/a3;
// track 1 carries a blockage; track 2 carries diff-net pins b1 and d1 to
// the right of a1. The paper counts 8 generated intervals for a1.
func figure3aDesign(t *testing.T) (*design.Design, int) {
	t.Helper()
	d := design.New("fig3a", 20, 10, tech.Default())
	netA := d.AddNet("a")
	netB := d.AddNet("b")
	netD := d.AddNet("d")
	a1 := d.AddPin("a1", netA, geom.MakeRect(8, 0, 8, 2)) // tracks 0..2
	d.AddPin("a2", netA, geom.MakeRect(0, 4, 0, 4))       // sets bbox left edge
	d.AddPin("a3", netA, geom.MakeRect(19, 4, 19, 4))     // sets bbox right edge
	d.AddPin("b1", netB, geom.MakeRect(12, 2, 12, 2))     // diff-net, track 2
	d.AddPin("d1", netD, geom.MakeRect(16, 2, 16, 2))     // diff-net, track 2
	d.AddBlockage(tech.M2, geom.MakeRect(14, 1, 19, 1))   // blocks track 1 right part
	if err := d.Validate(); err != nil {
		t.Fatalf("fig3a design invalid: %v", err)
	}
	return d, a1
}

func TestFigure3aIntervalCount(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	set, err := Generate(d, idx, []int{a1})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "There are 8 pin access intervals generated for pin a1
	// across 3 tracks."
	if got := len(set.ByPin[a1]); got != 8 {
		for _, id := range set.ByPin[a1] {
			iv := set.Intervals[id]
			t.Logf("interval track=%d span=%v min=%d", iv.Track, iv.Span, iv.MinForPin)
		}
		t.Fatalf("got %d intervals for a1, want 8", got)
	}
}

func TestFigure3aIntervalShapes(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	set, err := Generate(d, idx, []int{a1})
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		track int
		span  geom.Interval
	}
	wants := []want{
		{0, geom.Interval{Lo: 8, Hi: 8}},  // min on t1
		{0, geom.Interval{Lo: 0, Hi: 19}}, // max on t1: full bbox
		{1, geom.Interval{Lo: 8, Hi: 8}},  // min on t2
		{1, geom.Interval{Lo: 0, Hi: 13}}, // max on t2: clipped by blockage
		{2, geom.Interval{Lo: 8, Hi: 8}},  // min on t3
		{2, geom.Interval{Lo: 0, Hi: 11}}, // I1: ends before b1 (paper's Ia1_1)
		{2, geom.Interval{Lo: 0, Hi: 15}}, // I2: ends before d1 (paper's Ia1_2)
		{2, geom.Interval{Lo: 0, Hi: 19}}, // max on t3: full bbox
	}
	have := make(map[want]bool)
	for _, id := range set.ByPin[a1] {
		iv := set.Intervals[id]
		have[want{iv.Track, iv.Span}] = true
	}
	for _, w := range wants {
		if !have[w] {
			t.Errorf("missing interval track=%d span=%v", w.track, w.span)
		}
	}
}

func TestMinIntervalsMarked(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	set, err := Generate(d, idx, []int{a1})
	if err != nil {
		t.Fatal(err)
	}
	for track := 0; track <= 2; track++ {
		id := set.MinInterval(a1, track)
		if id < 0 {
			t.Errorf("no minimum interval on track %d", track)
			continue
		}
		iv := set.Intervals[id]
		if iv.Span != d.Pins[a1].Shape.XSpan() {
			t.Errorf("min interval on track %d has span %v, want pin span", track, iv.Span)
		}
	}
	if set.AnyMinInterval(a1) != set.MinInterval(a1, 0) {
		t.Error("AnyMinInterval should return the lowest-track minimum")
	}
}

// TestIntraPanelConnectionSharing verifies that one interval covering two
// same-net pins on a track is generated once and appears in both pins' S_j
// (the paper's Figure 3(b) / Figure 4(b) I^c1_1 = I^c2_1 case).
func TestIntraPanelConnectionSharing(t *testing.T) {
	d := design.New("shared", 12, 10, tech.Default())
	nc := d.AddNet("c")
	c1 := d.AddPin("c1", nc, geom.MakeRect(2, 3, 2, 3))
	c2 := d.AddPin("c2", nc, geom.MakeRect(8, 3, 8, 3))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	set, err := Generate(d, idx, []int{c1, c2})
	if err != nil {
		t.Fatal(err)
	}
	// The maximum interval [2,8] on track 3 covers both pins and must be
	// a single deduplicated interval.
	var shared *Interval
	for i := range set.Intervals {
		iv := &set.Intervals[i]
		if iv.Track == 3 && iv.Span == (geom.Interval{Lo: 2, Hi: 8}) {
			shared = iv
		}
	}
	if shared == nil {
		t.Fatal("missing shared maximum interval [2,8]")
	}
	if len(shared.PinIDs) != 2 || !shared.Covers(c1) || !shared.Covers(c2) {
		t.Errorf("shared interval covers %v, want both pins", shared.PinIDs)
	}
	inC1, inC2 := false, false
	for _, id := range set.ByPin[c1] {
		if id == shared.ID {
			inC1 = true
		}
	}
	for _, id := range set.ByPin[c2] {
		if id == shared.ID {
			inC2 = true
		}
	}
	if !inC1 || !inC2 {
		t.Error("shared interval must appear in both pins' S_j")
	}
}

func TestSingleIsolatedPin(t *testing.T) {
	d := design.New("iso", 10, 10, tech.Default())
	n := d.AddNet("n")
	p := d.AddPin("p", n, geom.MakeRect(4, 5, 5, 5))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	set, err := Generate(d, idx, []int{p})
	if err != nil {
		t.Fatal(err)
	}
	// Single-pin net: bbox equals the pin span, so min == max and exactly
	// one interval exists.
	if len(set.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1: %+v", len(set.Intervals), set.Intervals)
	}
	iv := set.Intervals[0]
	if iv.Span != (geom.Interval{Lo: 4, Hi: 5}) || iv.MinForPin != p {
		t.Errorf("interval = %+v", iv)
	}
}

func TestEveryPinHasMinimumInterval(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	all := []int{a1, 1, 2, 3, 4} // every pin in the design
	set, err := Generate(d, idx, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range all {
		if set.AnyMinInterval(pid) < 0 {
			t.Errorf("pin %q lacks a minimum interval", d.Pins[pid].Name)
		}
	}
}

// TestMinimumIntervalsConflictFree is the Theorem 1 property: the minimum
// intervals of distinct pins never overlap, because pin shapes are
// disjoint.
func TestMinimumIntervalsConflictFree(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	all := []int{a1, 1, 2, 3, 4}
	set, err := Generate(d, idx, all)
	if err != nil {
		t.Fatal(err)
	}
	var mins []Interval
	for i := range set.Intervals {
		if set.Intervals[i].MinForPin >= 0 {
			mins = append(mins, set.Intervals[i])
		}
	}
	for i := 0; i < len(mins); i++ {
		for j := i + 1; j < len(mins); j++ {
			if mins[i].Track == mins[j].Track &&
				mins[i].MinForPin != mins[j].MinForPin &&
				mins[i].Span.Overlaps(mins[j].Span) {
				t.Errorf("min intervals of pins %d and %d overlap on track %d",
					mins[i].MinForPin, mins[j].MinForPin, mins[i].Track)
			}
		}
	}
}

func TestIntervalsStayInsideBBoxAndUnblocked(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	set, err := Generate(d, idx, []int{a1})
	if err != nil {
		t.Fatal(err)
	}
	bbox := d.NetBBox(d.Pins[a1].NetID).XSpan()
	for _, id := range set.ByPin[a1] {
		iv := set.Intervals[id]
		if !bbox.ContainsInterval(iv.Span) {
			t.Errorf("interval %v outside net bbox %v", iv.Span, bbox)
		}
		for _, b := range idx.BlockedSpans(iv.Track) {
			if b.Overlaps(iv.Span) {
				t.Errorf("interval %v overlaps blockage %v on track %d", iv.Span, b, iv.Track)
			}
		}
	}
}

func TestGenerateRejectsBadPinID(t *testing.T) {
	d, _ := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	if _, err := Generate(d, idx, []int{99}); err == nil {
		t.Error("want error for out-of-range pin ID")
	}
}

func TestCutLinesOnLeftSide(t *testing.T) {
	// Mirror of the figure: diff-net pins on the LEFT of the target pin
	// must produce left cut-line candidates.
	d := design.New("left", 20, 10, tech.Default())
	na := d.AddNet("a")
	nb := d.AddNet("b")
	p := d.AddPin("p", na, geom.MakeRect(15, 2, 15, 2))
	d.AddPin("pl", na, geom.MakeRect(0, 2, 0, 2)) // bbox to the left
	d.AddPin("q", nb, geom.MakeRect(5, 2, 6, 2))  // diff-net on the left
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	set, err := Generate(d, idx, []int{p})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range set.ByPin[p] {
		iv := set.Intervals[id]
		if iv.Track == 2 && iv.Span == (geom.Interval{Lo: 7, Hi: 15}) {
			found = true // starts right after q's cut line
		}
	}
	if !found {
		t.Error("missing left cut-line interval [7,15]")
	}
}

func TestMaxSpanRadiusClipsIntervals(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	set, err := GenerateWithOptions(d, idx, []int{a1}, Options{MaxSpanRadius: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Pin a1 sits at x=8; the window is [5, 11]. Every interval must stay
	// inside it.
	for _, id := range set.ByPin[a1] {
		iv := set.Intervals[id]
		if iv.Span.Lo < 5 || iv.Span.Hi > 11 {
			t.Errorf("interval %v escapes the clipped window [5,11]", iv.Span)
		}
	}
	// The minimum interval must survive clipping (Theorem 1).
	if set.AnyMinInterval(a1) < 0 {
		t.Error("minimum interval lost under MaxSpanRadius")
	}
	// Clipping must reduce the candidate count vs the unclipped run.
	full, err := Generate(d, idx, []int{a1})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.ByPin[a1]) >= len(full.ByPin[a1]) {
		t.Errorf("clipped run has %d intervals, full run %d; expected fewer",
			len(set.ByPin[a1]), len(full.ByPin[a1]))
	}
}

func TestMaxSpanRadiusAlwaysCoversSeed(t *testing.T) {
	// Even a radius smaller than the pin span keeps the seed covered.
	d := design.New("wide", 30, 10, tech.Default())
	n := d.AddNet("n")
	p := d.AddPin("wide", n, geom.MakeRect(10, 4, 14, 4))
	d.AddPin("far", n, geom.MakeRect(28, 4, 28, 4))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	set, err := GenerateWithOptions(d, d.BuildTrackIndex(), []int{p}, Options{MaxSpanRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	seed := d.Pins[p].Shape.XSpan()
	for _, id := range set.ByPin[p] {
		if !set.Intervals[id].Span.ContainsInterval(seed) {
			t.Errorf("interval %v does not cover the pin", set.Intervals[id].Span)
		}
	}
}

// TestArenaWindowsAreClipped checks that Interval.PinIDs and the ByPin
// lists, windows of shared arenas, have no spare capacity: a consumer's
// append must copy rather than overwrite the next list.
func TestArenaWindowsAreClipped(t *testing.T) {
	d, a1 := figure3aDesign(t)
	set, err := Generate(d, d.BuildTrackIndex(), []int{a1, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Intervals {
		if pins := set.Intervals[i].PinIDs; cap(pins) != len(pins) {
			t.Errorf("interval %d: PinIDs has len %d, cap %d", i, len(pins), cap(pins))
		}
	}
	for pid, ivs := range set.ByPin {
		if cap(ivs) != len(ivs) {
			t.Errorf("pin %d: ByPin list has len %d, cap %d", pid, len(ivs), cap(ivs))
		}
	}
}

// TestSetOutlivesPooledBuffers generates a set, then a second one that
// reuses the pooled shard buffers, and requires the first set unchanged:
// nothing a generation returns may alias those buffers.
func TestSetOutlivesPooledBuffers(t *testing.T) {
	d, a1 := figure3aDesign(t)
	idx := d.BuildTrackIndex()
	first, err := Generate(d, idx, []int{a1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", *first)
	for i := 0; i < 3; i++ {
		if _, err := Generate(d, idx, []int{3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%+v", *first); got != want {
		t.Errorf("a later generation changed an earlier set:\n got  %s\n want %s", got, want)
	}
}

// TestConcurrentGenerationsShareThePool generates every panel of a
// design from several goroutines at once, as concurrent panel solves do,
// and requires each set to equal its sequential generation.
func TestConcurrentGenerationsShareThePool(t *testing.T) {
	d, err := synth.Generate(synth.Spec{Name: "pool", Nets: 120, Width: 120, Height: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	want := make([]string, d.NumPanels())
	for p := range want {
		set, err := Generate(d, idx, idx.PinsInPanel(p))
		if err != nil {
			t.Fatal(err)
		}
		want[p] = fmt.Sprintf("%+v", *set)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range want {
				set, err := Generate(d, idx, idx.PinsInPanel(p))
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprintf("%+v", *set); got != want[p] {
					t.Errorf("panel %d: concurrent generation differs from the sequential one", p)
				}
			}
		}()
	}
	wg.Wait()
}

// TestDuplicateSpanMergesMinimumMark covers the one merge a dedup hit can
// make. Pin q's minimum interval repeats a cut-line span generated
// earlier for pin p, which needs q to enclose p on the track: overlapping
// pins, so the design is built without Validate. The kept interval must
// cover both pins and carry q's minimum mark.
func TestDuplicateSpanMergesMinimumMark(t *testing.T) {
	d := design.New("overlap", 12, 2, tech.Default())
	a, b := d.AddNet("a"), d.AddNet("b")
	p := d.AddPin("p", a, geom.MakeRect(5, 0, 5, 0))
	q := d.AddPin("q", a, geom.MakeRect(3, 0, 7, 0))
	d.AddPin("s", b, geom.MakeRect(1, 0, 2, 0)) // cut line at x=3
	d.AddPin("r", b, geom.MakeRect(8, 0, 9, 0)) // cut line at x=7
	set, err := Generate(d, d.BuildTrackIndex(), []int{p, q})
	if err != nil {
		t.Fatal(err)
	}
	merged := -1
	for i := range set.Intervals {
		if set.Intervals[i].Span == (geom.Interval{Lo: 3, Hi: 7}) {
			merged = i
		}
	}
	if merged < 0 {
		t.Fatal("no interval spans [3,7]")
	}
	iv := set.Intervals[merged]
	if iv.MinForPin != q || len(iv.PinIDs) != 2 || iv.PinIDs[0] != p || iv.PinIDs[1] != q {
		t.Errorf("interval [3,7] = %+v, want pins [%d %d] and minimum mark %d", iv, p, q, q)
	}
	if got := set.MinInterval(q, 0); got != merged {
		t.Errorf("MinInterval(q, 0) = %d, want %d", got, merged)
	}
}

// TestEmptyShapeIsAnError checks that a pin whose shape covers no track,
// possible in a design built without Validate, is reported as an error.
func TestEmptyShapeIsAnError(t *testing.T) {
	d := design.New("empty", 10, 4, tech.Default())
	p := d.AddPin("p", d.AddNet("a"), geom.Rect{X0: 2, Y0: 3, X1: 2, Y1: 1})
	if _, err := Generate(d, d.BuildTrackIndex(), []int{p}); err == nil {
		t.Fatal("Generate accepted a pin with an empty shape")
	}
}
