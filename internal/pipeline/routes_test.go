package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/pinaccess"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/tech"
)

// formatRouterFingerprint, formatRegionInputs and formatNetSignature are
// the fmt-based route-side encoders that RouterFingerprint,
// WriteRegionInputs and NetSignature replaced, kept verbatim as their
// byte references.
func formatRouterFingerprint(cfg router.Config) string {
	c := cfg.Normalized()
	return fmt.Sprintf("route-v4 order=%s iters=%d pres=%s,%s hist=%s win=%d,%d,%d stall=%d skipdrc=%t",
		c.Order, c.MaxNegotiationIters,
		formatFloat(c.PresentCostBase), formatFloat(c.PresentCostGrowth),
		formatFloat(c.HistoryIncrement),
		c.WindowMargin, c.WindowGrowth, c.MaxWindowMargin,
		c.StallRounds, c.SkipDRC)
}

func formatRegionInputs(w io.Writer, d *design.Design, rt *router.Router, rg *router.Region) error {
	t := d.Tech
	if _, err := fmt.Fprintf(w, "region-inputs v1\ngrid %d %d\ntech %d %d %d %d %d %d %d\n",
		d.Width, d.Height,
		t.TracksPerPanel, t.BaseCost, t.ViaCost, t.ForbiddenViaCost,
		t.LineEndExtension, t.MinLineLen, t.LineEndSpacing); err != nil {
		return err
	}
	if t.Patterning != (tech.Patterning{}) {
		if _, err := fmt.Fprintf(w, "rule-engine %s\n", t.Patterning.Spec()); err != nil {
			return err
		}
	}
	for i, netID := range rg.Nets {
		rc := rg.Rects[i]
		if _, err := fmt.Fprintf(w, "net %d rect %d %d %d %d\n",
			netID, rc.X0, rc.Y0, rc.X1, rc.Y1); err != nil {
			return err
		}
		pins := append([]int(nil), d.Nets[netID].PinIDs...)
		sort.Ints(pins)
		for _, pid := range pins {
			sh := d.Pins[pid].Shape
			if _, err := fmt.Fprintf(w, "pin %d shape %d %d %d %d\n",
				pid, sh.X0, sh.Y0, sh.X1, sh.Y1); err != nil {
				return err
			}
		}
		if seeds := rt.SeededCells(netID); len(seeds) > 0 {
			if _, err := fmt.Fprintf(w, "seeds %v\n", seeds); err != nil {
				return err
			}
		}
	}
	// Blockages within reach of the region, clipped so far-away edits to
	// the same blockage rect cannot dirty the region.
	bounds := rg.Bounds().Expand(1)
	for _, b := range d.Blockages {
		clip := b.Shape.Intersect(bounds)
		if clip.Empty() {
			continue
		}
		if _, err := fmt.Fprintf(w, "blk %d %d %d %d %d\n",
			b.Layer, clip.X0, clip.Y0, clip.X1, clip.Y1); err != nil {
			return err
		}
	}
	return nil
}

func formatNetSignature(d *design.Design, rt *router.Router, netID int) string {
	return hashOf(func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "netsig v1 grid %d %d\n", d.Width, d.Height); err != nil {
			return err
		}
		shapes := make([]geom.Rect, 0, len(d.Nets[netID].PinIDs))
		for _, pid := range d.Nets[netID].PinIDs {
			shapes = append(shapes, d.Pins[pid].Shape)
		}
		sort.Slice(shapes, func(a, b int) bool {
			if shapes[a].X0 != shapes[b].X0 {
				return shapes[a].X0 < shapes[b].X0
			}
			return shapes[a].Y0 < shapes[b].Y0
		})
		for _, sh := range shapes {
			if _, err := fmt.Fprintf(w, "pin %d %d %d %d\n", sh.X0, sh.Y0, sh.X1, sh.Y1); err != nil {
				return err
			}
		}
		if seeds := rt.SeededCells(netID); len(seeds) > 0 {
			if _, err := fmt.Fprintf(w, "seeds %v\n", seeds); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestRouteEncodersMatchFormat checks that the append-based route-side
// encoders write the fmt references' bytes: region inputs and net
// signatures of seeded random designs with blockages under the default
// rules and each rule engine, and the fingerprints of random router
// configurations. Stored route keys and eco-fast matches depend on it.
func TestRouteEncodersMatchFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	patternings := []tech.Patterning{{}, {Engine: tech.EngineSADP},
		{Engine: tech.EngineLELE, SameMaskSpacing: 3}, {Engine: tech.EngineTPL, ColorSpacing: 3, MergeTolerance: 1}}
	seeded, blocked := 0, 0
	for trial := 0; trial < 8; trial++ {
		d, err := synth.Generate(synth.Spec{Name: "route-keys", Nets: 20 + rng.Intn(60),
			Width: 60 + rng.Intn(200), Height: 40, Seed: rng.Int63(), BlockageFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		d.Tech.Patterning = patternings[trial%len(patternings)]
		pins := make([]int, len(d.Pins))
		for i := range pins {
			pins[i] = i
		}
		set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
		if err != nil {
			t.Fatal(err)
		}
		r := router.New(d, grid.New(d), router.Config{})
		r.SeedAssignment(set, assign.Build(set, assign.SqrtProfit).MinimumSolution())
		for _, rg := range r.Partition().Regions {
			var got, want bytes.Buffer
			if err := WriteRegionInputs(&got, d, r, rg); err != nil {
				t.Fatal(err)
			}
			if err := formatRegionInputs(&want, d, r, rg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d region %d:\n got %q\nwant %q", trial, rg.ID, got.Bytes(), want.Bytes())
			}
			seeded += strings.Count(got.String(), "\nseeds [")
			blocked += strings.Count(got.String(), "\nblk ")
		}
		for netID := range d.Nets {
			if got, want := NetSignature(d, r, netID), formatNetSignature(d, r, netID); got != want {
				t.Fatalf("trial %d net %d: signature %s, reference %s", trial, netID, got, want)
			}
		}
	}
	if seeded == 0 || blocked == 0 {
		t.Fatalf("%d seed and %d blockage records: the designs do not exercise both", seeded, blocked)
	}

	floats := []float64{0, 0.1, 0.5, 1, 1.6, 2, 1e-7, 3.25e12, 1.0 / 3}
	for trial := 0; trial < 500; trial++ {
		cfg := router.Config{
			Order:               router.NetOrder(rng.Intn(5)),
			MaxNegotiationIters: rng.Intn(40) - 5,
			PresentCostBase:     floats[rng.Intn(len(floats))],
			PresentCostGrowth:   floats[rng.Intn(len(floats))] * float64(1+rng.Intn(3)),
			HistoryIncrement:    floats[rng.Intn(len(floats))],
			WindowMargin:        rng.Intn(70) - 3,
			WindowGrowth:        rng.Intn(9),
			MaxWindowMargin:     rng.Intn(90),
			StallRounds:         rng.Intn(6),
			SkipDRC:             rng.Intn(2) == 0,
		}
		if got, want := RouterFingerprint(cfg), formatRouterFingerprint(cfg); got != want {
			t.Fatalf("config %+v: fingerprint %q, reference %q", cfg, got, want)
		}
	}
}
