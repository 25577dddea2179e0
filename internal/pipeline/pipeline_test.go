package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/synth"
	"cpr/internal/tech"
)

// basePanelDesign builds a three-panel design with a net spanning panels
// 0 and 1 plus a net local to panel 0 and one local to panel 2, so tests
// can probe exactly which edits reach which panel hash.
func basePanelDesign(t *testing.T) *design.Design {
	t.Helper()
	d := design.New("hash-probe", 60, 30, tech.Default())
	span := d.AddNet("span")
	d.AddPin("span_a", span, geom.MakeRect(8, 2, 8, 2))     // panel 0
	d.AddPin("span_b", span, geom.MakeRect(40, 12, 40, 12)) // panel 1
	local0 := d.AddNet("local0")
	d.AddPin("l0_a", local0, geom.MakeRect(12, 4, 12, 4)) // panel 0
	d.AddPin("l0_b", local0, geom.MakeRect(20, 6, 20, 6)) // panel 0
	local2 := d.AddNet("local2")
	d.AddPin("l2_a", local2, geom.MakeRect(10, 22, 10, 22)) // panel 2
	d.AddPin("l2_b", local2, geom.MakeRect(22, 24, 22, 24)) // panel 2
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func panelHash(t *testing.T, d *design.Design, panel int) string {
	t.Helper()
	return PanelHash(d, d.BuildTrackIndex(), panel)
}

// TestPanelHashInvalidation proves the per-panel cache-key contract: the
// hash of a panel changes whenever any input that can affect its result
// changes, and only then. Each case mutates one input class (pins,
// blockages, tracks/tech, grid) and checks which panels' hashes move.
func TestPanelHashInvalidation(t *testing.T) {
	base := basePanelDesign(t)
	baseHash := [3]string{}
	for p := range baseHash {
		baseHash[p] = panelHash(t, base, p)
	}
	if baseHash[0] == baseHash[1] || baseHash[0] == baseHash[2] || baseHash[1] == baseHash[2] {
		t.Fatal("distinct panels hash equal")
	}

	cases := []struct {
		name   string
		mutate func(d *design.Design)
		// dirty[p] == true means panel p's hash must change; false means
		// it must NOT change.
		dirty [3]bool
	}{
		{
			name: "move pin within panel 0 (local net)",
			mutate: func(d *design.Design) {
				d.Pins[2].Shape = geom.MakeRect(13, 4, 13, 4) // l0_a
			},
			dirty: [3]bool{true, false, false},
		},
		{
			name: "move panel-0 pin of the spanning net",
			mutate: func(d *design.Design) {
				d.Pins[0].Shape = geom.MakeRect(5, 2, 5, 2) // span_a: bbox reaches panel 1
			},
			dirty: [3]bool{true, true, false},
		},
		{
			name: "add pin to panel 2",
			mutate: func(d *design.Design) {
				d.AddPin("l2_c", 2, geom.MakeRect(30, 26, 30, 26))
			},
			dirty: [3]bool{false, false, true},
		},
		{
			name: "blockage on a panel-1 track",
			mutate: func(d *design.Design) {
				d.AddBlockage(tech.M2, geom.MakeRect(2, 15, 6, 15))
			},
			dirty: [3]bool{false, true, false},
		},
		{
			name: "blockage on a panel-0 track leaves other panels alone",
			mutate: func(d *design.Design) {
				d.AddBlockage(tech.M2, geom.MakeRect(2, 5, 6, 5))
			},
			dirty: [3]bool{true, false, false},
		},
		{
			name: "tech change dirties every panel",
			mutate: func(d *design.Design) {
				tc := *d.Tech
				tc.LineEndSpacing++
				d.Tech = &tc
			},
			dirty: [3]bool{true, true, true},
		},
		{
			name: "grid width change dirties every panel",
			mutate: func(d *design.Design) {
				d.Width++
			},
			dirty: [3]bool{true, true, true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := basePanelDesign(t)
			tc.mutate(d)
			for p := 0; p < 3; p++ {
				changed := panelHash(t, d, p) != baseHash[p]
				if changed != tc.dirty[p] {
					t.Errorf("panel %d: hash changed=%t, want %t", p, changed, tc.dirty[p])
				}
			}
		})
	}
}

// TestPanelHashStable: rebuilding the identical design yields identical
// hashes (the content address is a function of content, not identity).
func TestPanelHashStable(t *testing.T) {
	a, b := basePanelDesign(t), basePanelDesign(t)
	for p := 0; p < 3; p++ {
		if panelHash(t, a, p) != panelHash(t, b, p) {
			t.Errorf("panel %d: identical designs hash differently", p)
		}
	}
}

// TestPanelKeyFingerprint: the panel key folds in the solver fingerprint,
// so a result-affecting option change re-addresses every panel while the
// panel-input hash alone stays put.
func TestPanelKeyFingerprint(t *testing.T) {
	d := basePanelDesign(t)
	idx := d.BuildTrackIndex()
	base := SolverConfig{}
	tuned := SolverConfig{LR: lagrange.Config{MaxIterations: 400}}
	if base.Fingerprint() == tuned.Fingerprint() {
		t.Fatal("LR.MaxIterations does not reach the fingerprint")
	}
	k1 := PanelKeyFor(d, idx, 0, base)
	k2 := PanelKeyFor(d, idx, 0, tuned)
	if k1 == "" || k2 == "" {
		t.Fatal("cacheable configs produced empty keys")
	}
	if k1 == k2 {
		t.Error("panel key ignores the solver fingerprint")
	}
	if PanelKeyFor(d, idx, 0, base) != k1 {
		t.Error("panel key is not a pure function of its inputs")
	}
	if PanelKeyFor(d, idx, 1, base) == k1 {
		t.Error("distinct panels share a key")
	}
}

// TestSolverConfigCacheable pins the opt-out rules: custom profit
// functions, caller Stop hooks, and wall-clock-limited ILP may not be
// content-addressed.
func TestSolverConfigCacheable(t *testing.T) {
	cases := []struct {
		name string
		cfg  SolverConfig
		want bool
	}{
		{"default LR", SolverConfig{}, true},
		{"tuned LR", SolverConfig{LR: lagrange.Config{MaxIterations: 50, Alpha: 0.9}}, true},
		{"ILP without time limit", SolverConfig{UseILP: true, ILP: ilp.Config{MaxNodes: 1000}}, true},
		{"custom profit", SolverConfig{Profit: assign.ProfitFn(func(length int) float64 { return 1 })}, false},
		{"custom stop hook", SolverConfig{LR: lagrange.Config{Stop: func() bool { return false }}}, false},
		{"ILP with time limit", SolverConfig{UseILP: true, ILP: ilp.Config{TimeLimit: time.Second}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cfg.Cacheable(); got != tc.want {
				t.Errorf("Cacheable() = %t, want %t", got, tc.want)
			}
			if !tc.want {
				d := basePanelDesign(t)
				if key := PanelKeyFor(d, d.BuildTrackIndex(), 0, tc.cfg); key != "" {
					t.Errorf("uncacheable config produced key %q", key)
				}
			}
		})
	}
}

// TestSolvePanelArtifactsDeterministic: solving the same panel twice
// (and at different worker counts) yields byte-identical artifact
// encodings, the property panel-level caching rests on.
func TestSolvePanelArtifactsDeterministic(t *testing.T) {
	d := basePanelDesign(t)
	idx := d.BuildTrackIndex()
	cfg := SolverConfig{}
	ctx := context.Background()
	var first *PanelArtifact
	for _, workers := range []int{1, 1, 4} {
		art, err := SolvePanel(ctx, d, idx, 0, PanelKeyFor(d, idx, 0, cfg), cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = art
			continue
		}
		if HashIntervalSet(art.Intervals) != HashIntervalSet(first.Intervals) {
			t.Errorf("workers=%d: interval set encoding differs", workers)
		}
		if HashAssignment(art.Assignment) != HashAssignment(first.Assignment) {
			t.Errorf("workers=%d: assignment encoding differs", workers)
		}
		if art.Key != first.Key {
			t.Errorf("workers=%d: key differs", workers)
		}
	}
	if first.Key == "" {
		t.Error("cacheable solve produced no key")
	}
}

// TestEncodeConflictModel sanity-checks the stage-2 encoding so the hash
// actually covers the model's conflicts and profits.
func TestEncodeConflictModel(t *testing.T) {
	d := basePanelDesign(t)
	idx := d.BuildTrackIndex()
	set, err := GenerateStage(d, idx, d.PinsInPanel(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ConflictStage(set, SolverConfig{}, 1)
	var b strings.Builder
	if err := EncodeConflictModel(&b, m); err != nil {
		t.Fatal(err)
	}
	if len(m.Model.Profits) > 0 && !strings.Contains(b.String(), "profit") {
		t.Error("encoding lost the profit vector")
	}
	if HashConflictModel(m) != HashConflictModel(m) {
		t.Error("conflict model hash unstable")
	}
}

// formatPanelInputs is the fmt-based panel-input encoder that
// WritePanelInputs replaced, kept as its byte reference.
func formatPanelInputs(w io.Writer, d *design.Design, idx *design.TrackIndex, panel int) {
	t := d.Tech
	fmt.Fprintf(w, "panel-inputs v1\ngrid %d %d\ntech %d %d %d %d %d %d %d\n",
		d.Width, d.Height,
		t.TracksPerPanel, t.BaseCost, t.ViaCost, t.ForbiddenViaCost,
		t.LineEndExtension, t.MinLineLen, t.LineEndSpacing)
	if t.Patterning != (tech.Patterning{}) {
		fmt.Fprintf(w, "rule-engine %s\n", t.Patterning.Spec())
	}
	lo, hi := t.PanelTracks(panel)
	if hi >= d.Height {
		hi = d.Height - 1
	}
	fmt.Fprintf(w, "panel %d tracks %d %d\n", panel, lo, hi)
	nets := make(map[int]bool)
	for _, pid := range idx.PinsInPanel(panel) {
		p := &d.Pins[pid]
		nets[p.NetID] = true
		fmt.Fprintf(w, "pin %d net %d shape %d %d %d %d\n",
			pid, p.NetID, p.Shape.X0, p.Shape.Y0, p.Shape.X1, p.Shape.Y1)
	}
	netIDs := make([]int, 0, len(nets))
	for id := range nets {
		netIDs = append(netIDs, id)
	}
	sort.Ints(netIDs)
	for _, id := range netIDs {
		box := d.NetBBox(id)
		fmt.Fprintf(w, "netbbox %d %d %d %d %d\n", id, box.X0, box.Y0, box.X1, box.Y1)
	}
	for y := lo; y <= hi; y++ {
		for _, span := range idx.BlockedSpans(y) {
			fmt.Fprintf(w, "blocked %d %d %d\n", y, span.Lo, span.Hi)
		}
	}
}

// TestWritePanelInputsMatchesFormat checks that the append-based encoder
// writes the fmt reference's bytes for every panel, blockages included,
// under the default rules and a non-default rule engine; stored panel
// keys depend on it.
func TestWritePanelInputsMatchesFormat(t *testing.T) {
	for _, p := range []tech.Patterning{{}, {Engine: tech.EngineTPL, ColorSpacing: 3, MergeTolerance: 1}} {
		d, err := synth.Generate(synth.Spec{Name: "keys", Nets: 60, Width: 90, Height: 40, Seed: 12, BlockageFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		d.Tech.Patterning = p
		idx := d.BuildTrackIndex()
		blocked := 0
		for panel := 0; panel <= d.NumPanels(); panel++ {
			var got, want bytes.Buffer
			if err := WritePanelInputs(&got, d, idx, panel); err != nil {
				t.Fatal(err)
			}
			formatPanelInputs(&want, d, idx, panel)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("patterning %+v panel %d:\n got %q\nwant %q", p, panel, got.Bytes(), want.Bytes())
			}
			blocked += bytes.Count(got.Bytes(), []byte("\nblocked "))
		}
		if blocked == 0 {
			t.Fatal("no panel encodes a blockage")
		}
	}
}
