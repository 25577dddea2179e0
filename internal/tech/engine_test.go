package tech

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", EngineSADP},
		{"sadp", EngineSADP},
		{"lele", EngineLELE},
		{"tpl", EngineTPL},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %q, %v; want %q, nil", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"SADP", "sadp ", "litho", "lele2", "quad"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine(%q) accepted an unknown engine", bad)
		}
	}
}

func TestPatterningSpecRoundTrip(t *testing.T) {
	cases := []Patterning{
		{},
		{Engine: EngineSADP},
		{Engine: EngineLELE, SameMaskSpacing: 4},
		{Engine: EngineTPL, ColorSpacing: 3, StitchPenalty: 2},
		{Engine: EngineSADP, CutSpacing: 3, MergeTolerance: 1},
	}
	for _, p := range cases {
		spec := p.Spec()
		got, err := ParsePatterning(strings.Fields(spec))
		if err != nil {
			t.Fatalf("ParsePatterning(%q): %v", spec, err)
		}
		// After one Spec/Parse cycle the empty engine name canonicalizes
		// to "sadp"; from then on the representation is a fixpoint.
		if got.Spec() != spec && p.Engine != "" {
			t.Errorf("Spec round-trip changed %q to %q", spec, got.Spec())
		}
		if again, err := ParsePatterning(strings.Fields(got.Spec())); err != nil || again != got {
			t.Errorf("Spec not a fixpoint: %v re-parsed to %v (err %v)", got, again, err)
		}
	}
}

func TestParsePatterningFailsClosed(t *testing.T) {
	for _, tc := range [][]string{
		{"sadp"},                               // wrong arity
		{"sadp", "0", "0", "0", "0"},           // wrong arity
		{"sadp", "0", "0", "0", "0", "0", "0"}, // wrong arity
		{"quad", "0", "0", "0", "0", "0"},      // unknown engine
		{"sadp", "x", "0", "0", "0", "0"},      // malformed int
		{"sadp", "0", "0", "0", "0", "1.5"},    // malformed int
		{"lele", "-1", "0", "0", "0", "0"},     // negative parameter
		{"tpl", "0", "0", "0", "0", "-2"},      // negative parameter
	} {
		if _, err := ParsePatterning(tc); err == nil {
			t.Errorf("ParsePatterning(%v) accepted a malformed record", tc)
		}
	}
}

func TestPatterningResolvedDefaults(t *testing.T) {
	r := Patterning{}.Resolved()
	want := Patterning{Engine: EngineSADP, SameMaskSpacing: 3, ColorSpacing: 2,
		StitchPenalty: 1, CutSpacing: 2, MergeTolerance: 0}
	if r != want {
		t.Fatalf("Resolved zero Patterning = %+v, want %+v", r, want)
	}
	// Explicit values survive resolution untouched.
	p := Patterning{Engine: EngineTPL, SameMaskSpacing: 5, ColorSpacing: 4,
		StitchPenalty: 7, CutSpacing: 6, MergeTolerance: 2}
	if p.Resolved() != p {
		t.Fatalf("Resolved explicit Patterning = %+v, want unchanged", p.Resolved())
	}
}

// TestSADPMatchesLegacyFormulas pins the sadp engine to the exact margin
// arithmetic the router and verifier used before the engine layer: the
// byte-identity contract depends on these never drifting.
func TestSADPMatchesLegacyFormulas(t *testing.T) {
	d := Default()
	r := RulesFor(d)
	ext, spacing, minLen := d.LineEndExtension, d.LineEndSpacing, d.MinLineLen
	if r.Name() != EngineSADP || r.Colors() != 1 {
		t.Fatalf("default engine = %s/%d colors, want sadp/1", r.Name(), r.Colors())
	}
	if got, want := r.ClearanceMargin(), ext+(spacing+1)/2; got != want {
		t.Errorf("ClearanceMargin = %d, want %d", got, want)
	}
	if got, want := r.AvoidMargin(), ext+spacing; got != want {
		t.Errorf("AvoidMargin = %d, want %d", got, want)
	}
	if got, want := r.SequentialClearance(), 2*ext+spacing; got != want {
		t.Errorf("SequentialClearance = %d, want %d", got, want)
	}
	if got, want := r.RuleReach(), ext+minLen+spacing+2; got != want {
		t.Errorf("RuleReach = %d, want %d", got, want)
	}
	if r.ConflictRadius() != 0 || r.ConflictWeight() != 0 {
		t.Errorf("sadp conflict pricing = (%d, %g), want disabled (0, 0)",
			r.ConflictRadius(), r.ConflictWeight())
	}
	if r.WireCost() != d.BaseCost || r.ViaCost(false) != d.ViaCost || r.ViaCost(true) != d.ForbiddenViaCost {
		t.Errorf("grid costs = (%d, %d, %d), want (%d, %d, %d)",
			r.WireCost(), r.ViaCost(false), r.ViaCost(true),
			d.BaseCost, d.ViaCost, d.ForbiddenViaCost)
	}
}

func engineFor(t *testing.T, p Patterning) RuleEngine {
	t.Helper()
	d := Default()
	d.Patterning = p
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return RulesFor(d)
}

func TestExtendSpan(t *testing.T) {
	for _, tc := range []struct {
		ext, minLen    int
		lo, hi, limit  int
		wantLo, wantHi int
	}{
		{1, 2, 5, 7, 20, 4, 8},     // plain extension (the default rules)
		{1, 2, 0, 0, 20, 0, 1},     // clamp at lo, grow hi for min length
		{1, 2, 19, 19, 20, 18, 19}, // clamp at hi, grow lo
		{1, 2, 0, 19, 20, 0, 19},   // already spans the track
		{0, 3, 4, 4, 20, 4, 6},     // no extension: min length alone grows hi
		{0, 5, 0, 0, 3, 0, 2},      // a 3-cell track caps growth
	} {
		tt := Default()
		tt.LineEndExtension, tt.MinLineLen = tc.ext, tc.minLen
		lo, hi := RulesFor(tt).ExtendSpan(tc.lo, tc.hi, tc.limit)
		if lo != tc.wantLo || hi != tc.wantHi {
			t.Errorf("ext %d, minLen %d: ExtendSpan(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.ext, tc.minLen, tc.lo, tc.hi, tc.limit, lo, hi, tc.wantLo, tc.wantHi)
		}
	}
}

func TestLELETrackRules(t *testing.T) {
	// Default tech: diff-mask (adjacent tip) spacing is LineEndSpacing=1;
	// same-mask (next-nearest tip) spacing is set to 5 so a window exists
	// where both adjacent gaps pass and only the same-mask rule fires
	// (every strip at least MinLineLen=2 long so no length errors mix in):
	// gap(a,b) = gap(b,c) = 1 forces gap(a,c) = 4 < 5.
	r := engineFor(t, Patterning{Engine: EngineLELE, SameMaskSpacing: 5})

	legal := []Seg{
		{Net: 0, Layer: M2, Track: 4, Lo: 0, Hi: 4},
		{Net: 1, Layer: M2, Track: 4, Lo: 6, Hi: 7},   // gap 1 vs net 0
		{Net: 2, Layer: M2, Track: 4, Lo: 13, Hi: 17}, // gap 5 vs net 1, gap 8 vs net 0
	}
	hits := map[int]int{}
	r.TrackViolations(legal, func(net int) { hits[net]++ })
	if len(hits) != 0 {
		t.Fatalf("legal lele track flagged: %v", hits)
	}

	diffViolation := []Seg{
		{Net: 0, Layer: M2, Track: 4, Lo: 0, Hi: 4},
		{Net: 1, Layer: M2, Track: 4, Lo: 5, Hi: 8}, // gap 0 < 1: diff-mask violation
	}
	hits = map[int]int{}
	r.TrackViolations(diffViolation, func(net int) { hits[net]++ })
	if hits[0] == 0 || hits[1] == 0 {
		t.Fatalf("diff-mask violation not charged to both nets: %v", hits)
	}

	sameViolation := []Seg{
		{Net: 0, Layer: M2, Track: 4, Lo: 0, Hi: 4},
		{Net: 1, Layer: M2, Track: 4, Lo: 6, Hi: 7},  // gap 1 vs net 0: OK
		{Net: 2, Layer: M2, Track: 4, Lo: 9, Hi: 12}, // gap 1 vs net 1: OK; gap 4 vs net 0: same-mask violation
	}
	hits = map[int]int{}
	r.TrackViolations(sameViolation, func(net int) { hits[net]++ })
	if hits[0] == 0 || hits[2] == 0 || hits[1] != 0 {
		t.Fatalf("same-mask violation should charge nets 0 and 2 only: %v", hits)
	}

	var msgs []string
	r.CheckTrack(M2, 4, sameViolation,
		func(n int) string { return map[int]string{0: "a", 1: "b", 2: "c"}[n] },
		func(format string, args ...interface{}) {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		})
	if len(msgs) != 1 || !strings.Contains(msgs[0], "lele same-mask tip spacing violation") {
		t.Fatalf("CheckTrack messages = %v, want exactly one same-mask violation", msgs)
	}
}

func TestLELEAnalyzeMaskAlternates(t *testing.T) {
	r := engineFor(t, Patterning{Engine: EngineLELE})
	// Three well-spaced strips on one track alternate 0, 1, 0.
	segs := []Seg{
		{Net: 0, Layer: M2, Track: 2, Lo: 2, Hi: 6},
		{Net: 1, Layer: M2, Track: 2, Lo: 12, Hi: 16},
		{Net: 2, Layer: M2, Track: 2, Lo: 22, Hi: 26},
	}
	rep := r.AnalyzeMask(segs, 40, 20)
	if rep.Engine != EngineLELE || rep.Colors != 2 {
		t.Fatalf("report engine/colors = %s/%d", rep.Engine, rep.Colors)
	}
	if rep.ColorOf[0] != 0 || rep.ColorOf[1] != 1 || rep.ColorOf[2] != 0 {
		t.Fatalf("ColorOf = %v, want [0 1 0]", rep.ColorOf)
	}
	if rep.Uncolorable != 0 || rep.Conflicts != 0 {
		t.Fatalf("clean decomposition reported %d uncolorable, %d conflicts",
			rep.Uncolorable, rep.Conflicts)
	}
}

func TestTPLAnalyzeMask(t *testing.T) {
	// ColorSpacing 3 → conflicts couple tracks up to 2 apart, so three
	// overlapping strips on tracks 4, 5, 6 are mutually conflicting and
	// must take the three distinct colors.
	r := engineFor(t, Patterning{Engine: EngineTPL, ColorSpacing: 3})
	segs := []Seg{
		{Net: 0, Layer: M2, Track: 4, Lo: 5, Hi: 10},
		{Net: 1, Layer: M2, Track: 5, Lo: 5, Hi: 10},
		{Net: 2, Layer: M2, Track: 6, Lo: 5, Hi: 10},
	}
	rep := r.AnalyzeMask(segs, 40, 20)
	if rep.Uncolorable != 0 {
		t.Fatalf("3 mutual conflicts should 3-color, got %d uncolorable", rep.Uncolorable)
	}
	seen := map[int]bool{}
	for i, c := range rep.ColorOf {
		if c < 0 || c > 2 || seen[c] {
			t.Fatalf("ColorOf[%d] = %d (all = %v), want 3 distinct colors", i, c, rep.ColorOf)
		}
		seen[c] = true
	}
	// Same-net strips never conflict with each other.
	same := []Seg{
		{Net: 0, Layer: M2, Track: 4, Lo: 5, Hi: 10},
		{Net: 0, Layer: M2, Track: 5, Lo: 5, Hi: 10},
	}
	if rep := r.AnalyzeMask(same, 40, 20); rep.Conflicts != 0 {
		t.Fatalf("same-net strips conflict: %d edges", rep.Conflicts)
	}
}

func TestTPLUncolorableAndStitch(t *testing.T) {
	r := engineFor(t, Patterning{Engine: EngineTPL, ColorSpacing: 2})
	// Greedy order is (layer, track, lo), so everything below is colored
	// before net 0's strip on track 5. At net 0's turn the neighbourhood
	// holds all three colors — track 4 carries nets 2 and 3 (overlapping
	// each other, hence colors 0 and 1), and net 1 sits just left on the
	// same track (forced to color 2 by conflicting with both) — and the
	// strip is at minimum length, so no stitch position exists either.
	segs := []Seg{
		{Net: 2, Layer: M2, Track: 4, Lo: 6, Hi: 9},
		{Net: 3, Layer: M2, Track: 4, Lo: 9, Hi: 12},
		{Net: 1, Layer: M2, Track: 5, Lo: 5, Hi: 7},
		{Net: 0, Layer: M2, Track: 5, Lo: 10, Hi: 11},
	}
	rep := r.AnalyzeMask(segs, 40, 20)
	if rep.Uncolorable != 1 {
		t.Fatalf("boxed-in minimum-length strip: %d uncolorable (colors %v), want 1",
			rep.Uncolorable, rep.ColorOf)
	}
	if len(rep.Errors) == 0 || !strings.Contains(rep.Errors[0], "tpl: uncolorable segment") {
		t.Fatalf("uncolorable segment produced no hard error: %v", rep.Errors)
	}

	// Stitch case (ColorSpacing 3 → radius 2): net 0's long strip on
	// track 5 sees colors 0 and 1 on its left (nets 3, 4) and color 2 on
	// its right — net 5, driven to color 2 by two track-2 enablers that
	// are outside net 0's own radius. The whole span has no free color,
	// but a split at the cluster boundary leaves color 2 free on the left
	// and color 0 free on the right: exactly one stitch, nothing
	// uncolorable.
	r3 := engineFor(t, Patterning{Engine: EngineTPL, ColorSpacing: 3})
	long := []Seg{
		{Net: 1, Layer: M2, Track: 2, Lo: 21, Hi: 29},
		{Net: 2, Layer: M2, Track: 2, Lo: 25, Hi: 33},
		{Net: 3, Layer: M2, Track: 4, Lo: 1, Hi: 9},
		{Net: 4, Layer: M2, Track: 4, Lo: 6, Hi: 14},
		{Net: 5, Layer: M2, Track: 4, Lo: 21, Hi: 29},
		{Net: 0, Layer: M2, Track: 5, Lo: 1, Hi: 30},
	}
	repL := r3.AnalyzeMask(long, 40, 20)
	if repL.Uncolorable != 0 || repL.Stitches != 1 {
		t.Fatalf("stitch squeeze: %d uncolorable, %d stitches (colors %v), want 0 and 1",
			repL.Uncolorable, repL.Stitches, repL.ColorOf)
	}
}

func TestSpanDist(t *testing.T) {
	for _, tc := range []struct {
		alo, ahi, blo, bhi, want int
	}{
		{0, 5, 3, 8, 0},  // overlap
		{0, 5, 5, 8, 0},  // touch
		{0, 5, 6, 8, 1},  // abut
		{0, 5, 9, 12, 4}, // gap
		{9, 12, 0, 5, 4}, // symmetric
	} {
		if got := spanDist(tc.alo, tc.ahi, tc.blo, tc.bhi); got != tc.want {
			t.Errorf("spanDist(%d,%d,%d,%d) = %d, want %d",
				tc.alo, tc.ahi, tc.blo, tc.bhi, got, tc.want)
		}
	}
}

func TestRulesForPanicsOnUnvalidatedEngine(t *testing.T) {
	d := Default()
	d.Patterning.Engine = "quad"
	defer func() {
		if recover() == nil {
			t.Fatal("RulesFor accepted an unvalidated engine name")
		}
	}()
	RulesFor(d)
}
