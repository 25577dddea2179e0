package design

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"cpr/internal/geom"
	"cpr/internal/tech"
)

// referenceValidate is the quadratic Validate that the per-track index
// replaced, kept verbatim as the differential oracle. Its overlap check
// ranges over a map, so on a design with overlaps on several tracks it
// may name any of them.
func referenceValidate(d *Design) error {
	if d.Tech == nil {
		return fmt.Errorf("design %q: nil technology", d.Name)
	}
	if err := d.Tech.Validate(); err != nil {
		return fmt.Errorf("design %q: %w", d.Name, err)
	}
	if d.Width <= 0 || d.Height <= 0 {
		return fmt.Errorf("design %q: non-positive grid %dx%d", d.Name, d.Width, d.Height)
	}
	grid := geom.Rect{X0: 0, Y0: 0, X1: d.Width - 1, Y1: d.Height - 1}
	for i := range d.Nets {
		if len(d.Nets[i].PinIDs) == 0 {
			return fmt.Errorf("design %q: net %q has no pins", d.Name, d.Nets[i].Name)
		}
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		if p.Shape.Empty() {
			return fmt.Errorf("design %q: pin %q has empty shape", d.Name, p.Name)
		}
		if !grid.Contains(p.Shape.X0, p.Shape.Y0) || !grid.Contains(p.Shape.X1, p.Shape.Y1) {
			return fmt.Errorf("design %q: pin %q %v outside grid %v", d.Name, p.Name, p.Shape, grid)
		}
		if p.NetID < 0 || p.NetID >= len(d.Nets) {
			return fmt.Errorf("design %q: pin %q has invalid net %d", d.Name, p.Name, p.NetID)
		}
		if d.Tech.PanelOfTrack(p.Shape.Y0) != d.Tech.PanelOfTrack(p.Shape.Y1) {
			return fmt.Errorf("design %q: pin %q straddles panels", d.Name, p.Name)
		}
	}
	if err := referenceCheckPinDisjointness(d); err != nil {
		return err
	}
	for _, b := range d.Blockages {
		if b.Shape.Empty() {
			return fmt.Errorf("design %q: empty blockage on layer %d", d.Name, b.Layer)
		}
		if b.Layer < 0 || b.Layer >= tech.NumLayers {
			return fmt.Errorf("design %q: blockage on invalid layer %d", d.Name, b.Layer)
		}
		if !grid.Contains(b.Shape.X0, b.Shape.Y0) || !grid.Contains(b.Shape.X1, b.Shape.Y1) {
			return fmt.Errorf("design %q: blockage %v outside grid", d.Name, b.Shape)
		}
		if b.Layer == tech.M2 {
			for i := range d.Pins {
				if d.Pins[i].Shape.Overlaps(b.Shape) {
					return fmt.Errorf("design %q: M2 blockage %v overlaps pin %q",
						d.Name, b.Shape, d.Pins[i].Name)
				}
			}
		}
	}
	return nil
}

// referenceCheckPinDisjointness is the reference's per-track sweep over
// a map of tracks.
func referenceCheckPinDisjointness(d *Design) error {
	type span struct {
		iv  geom.Interval
		pin int
	}
	byTrack := make(map[int][]span)
	for i := range d.Pins {
		sh := d.Pins[i].Shape
		for y := sh.Y0; y <= sh.Y1; y++ {
			byTrack[y] = append(byTrack[y], span{sh.XSpan(), i})
		}
	}
	for y, spans := range byTrack {
		sort.Slice(spans, func(a, b int) bool {
			if spans[a].iv.Lo != spans[b].iv.Lo {
				return spans[a].iv.Lo < spans[b].iv.Lo
			}
			return spans[a].pin < spans[b].pin
		})
		for i := 1; i < len(spans); i++ {
			if spans[i].iv.Lo <= spans[i-1].iv.Hi {
				return fmt.Errorf("design %q: pins %q and %q overlap on track %d",
					d.Name, d.Pins[spans[i-1].pin].Name, d.Pins[spans[i].pin].Name, y)
			}
		}
	}
	return nil
}

// randomValidDesign places non-overlapping pins of 1-3 columns and 1-3
// tracks (never across a panel boundary), M2 blockages clear of every
// pin, and M1/M3 blockages anywhere.
func randomValidDesign(rng *rand.Rand, name string) *Design {
	t := tech.Default()
	w, h := 40+rng.Intn(80), 2*t.TracksPerPanel+rng.Intn(4*t.TracksPerPanel)
	d := New(name, w, h, t)
	used := make([]bool, w*h)
	free := func(r geom.Rect) bool {
		for y := r.Y0; y <= r.Y1; y++ {
			for x := r.X0; x <= r.X1; x++ {
				if used[y*w+x] {
					return false
				}
			}
		}
		return true
	}
	mark := func(r geom.Rect) {
		for y := r.Y0; y <= r.Y1; y++ {
			for x := r.X0; x <= r.X1; x++ {
				used[y*w+x] = true
			}
		}
	}
	nets := 5 + rng.Intn(20)
	for n := 0; n < nets; n++ {
		id := d.AddNet(fmt.Sprintf("n%d", n))
		for placed := 0; placed < 1+rng.Intn(3); {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			x1 := min(w-1, x0+rng.Intn(3))
			top := (t.PanelOfTrack(y0)+1)*t.TracksPerPanel - 1
			y1 := min(h-1, top, y0+rng.Intn(3))
			r := geom.MakeRect(x0, y0, x1, y1)
			if !free(r) {
				continue
			}
			mark(r)
			d.AddPin(fmt.Sprintf("n%d_p%d", n, placed), id, r)
			placed++
		}
	}
	for b := 0; b < rng.Intn(12); b++ {
		x0, y := rng.Intn(w), rng.Intn(h)
		r := geom.MakeRect(x0, y, min(w-1, x0+rng.Intn(6)), y)
		if free(r) {
			d.AddBlockage(tech.M2, r)
		}
		layer := tech.M1
		if rng.Intn(2) == 0 {
			layer = tech.M3
		}
		x0, y0 := rng.Intn(w), rng.Intn(h)
		d.AddBlockage(layer, geom.MakeRect(x0, y0, min(w-1, x0+rng.Intn(4)), min(h-1, y0+rng.Intn(4))))
	}
	return d
}

// tallestPin returns a pin spanning at least two tracks, or -1.
func tallestPin(d *Design) int {
	best := -1
	for i := range d.Pins {
		if hgt := d.Pins[i].Shape.Y1 - d.Pins[i].Shape.Y0; hgt >= 1 && (best < 0 || hgt > d.Pins[best].Shape.Y1-d.Pins[best].Shape.Y0) {
			best = i
		}
	}
	return best
}

// validateFaults inject one fault each into a valid design. want is the
// substring the first error must carry.
var validateFaults = []struct {
	name, want string
	inject     func(rng *rand.Rand, d *Design)
}{
	{"empty net", "has no pins", func(rng *rand.Rand, d *Design) {
		d.AddNet("lonely")
	}},
	{"empty pin", "has empty shape", func(rng *rand.Rand, d *Design) {
		p := &d.Pins[rng.Intn(len(d.Pins))]
		p.Shape = geom.Rect{X0: p.Shape.X0, Y0: p.Shape.Y0, X1: p.Shape.X0 - 1, Y1: p.Shape.Y0}
	}},
	{"pin outside grid", "outside grid", func(rng *rand.Rand, d *Design) {
		p := &d.Pins[rng.Intn(len(d.Pins))]
		p.Shape.X1 = d.Width + rng.Intn(3)
	}},
	{"pin straddles panels", "straddles panels", func(rng *rand.Rand, d *Design) {
		p := &d.Pins[rng.Intn(len(d.Pins))]
		boundary := d.Tech.TracksPerPanel * (1 + rng.Intn(d.NumPanels()-1))
		p.Shape.Y0, p.Shape.Y1 = boundary-1, boundary
	}},
	{"bad net ID", "has invalid net", func(rng *rand.Rand, d *Design) {
		p := &d.Pins[rng.Intn(len(d.Pins))]
		p.NetID = len(d.Nets) + rng.Intn(3)
	}},
	{"overlapping pins", "overlap on track", func(rng *rand.Rand, d *Design) {
		p := d.Pins[rng.Intn(len(d.Pins))]
		x := p.Shape.X0 + rng.Intn(p.Shape.X1-p.Shape.X0+1)
		y := p.Shape.Y0 + rng.Intn(p.Shape.Y1-p.Shape.Y0+1)
		d.AddPin("intruder", p.NetID, geom.MakeRect(x, y, x, y))
	}},
	{"empty blockage", "empty blockage", func(rng *rand.Rand, d *Design) {
		d.AddBlockage(tech.M3, geom.Rect{X0: 3, Y0: 1, X1: 2, Y1: 1})
	}},
	{"blockage on bad layer", "invalid layer", func(rng *rand.Rand, d *Design) {
		d.AddBlockage(tech.NumLayers+rng.Intn(3), geom.MakeRect(0, 0, 1, 0))
	}},
	{"blockage outside grid", "outside grid", func(rng *rand.Rand, d *Design) {
		d.AddBlockage(tech.M1, geom.MakeRect(d.Width-1, 0, d.Width+2, 0))
	}},
	{"M2 blockage from far below the grid", "outside grid", func(rng *rand.Rand, d *Design) {
		d.AddBlockage(tech.M2, geom.Rect{X0: 0, Y0: math.MinInt + 1, X1: 0, Y1: rng.Intn(d.Height)})
	}},
	{"M2 blockage to far above the grid", "outside grid", func(rng *rand.Rand, d *Design) {
		d.AddBlockage(tech.M2, geom.Rect{X0: 0, Y0: rng.Intn(d.Height), X1: 0, Y1: math.MaxInt})
	}},
	{"M2 blockage over pin", "overlaps pin", func(rng *rand.Rand, d *Design) {
		// A full-width strip over a pin's track: several pins may be hit,
		// and the error must name the lowest-ID one.
		y := d.Pins[rng.Intn(len(d.Pins))].Shape.Y0
		d.AddBlockage(tech.M2, geom.MakeRect(0, y, d.Width-1, y))
	}},
}

// TestValidateMatchesReference: on random designs with one injected
// fault of each kind, Validate returns the reference's error string.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		valid := randomValidDesign(rng, fmt.Sprintf("rand%d", trial))
		if err := valid.Validate(); err != nil {
			t.Fatalf("trial %d: valid design rejected: %v", trial, err)
		}
		if err := referenceValidate(valid); err != nil {
			t.Fatalf("trial %d: reference rejects the valid design: %v", trial, err)
		}
		for _, f := range validateFaults {
			d := cloneDesign(valid)
			f.inject(rng, d)
			want := referenceValidate(d)
			got := validateWithin(t, d, 10*time.Second)
			if want == nil || !strings.Contains(want.Error(), f.want) {
				t.Fatalf("trial %d %s: reference error %v, want one containing %q", trial, f.name, want, f.want)
			}
			if got == nil || got.Error() != want.Error() {
				t.Errorf("trial %d %s:\n got  %v\n want %v", trial, f.name, got, want)
			}
		}
	}
}

// validateWithin runs d.Validate and fails the test if it has not
// returned after limit: a check that walked the tracks of a blockage
// reaching far outside the grid would spin for about 2^63 steps.
func validateWithin(t *testing.T, d *Design, limit time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.Validate() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("design %q: Validate still running after %v", d.Name, limit)
		return nil
	}
}

// TestValidateOverlapNamesLowestTrack: pins overlapping on several
// tracks are reported on the lowest one, every time, while the
// reference may name any of them.
func TestValidateOverlapNamesLowestTrack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		d := randomValidDesign(rng, fmt.Sprintf("multi%d", trial))
		p := tallestPin(d)
		if p < 0 {
			continue
		}
		orig := d.Pins[p]
		d.AddPin("twin", orig.NetID, orig.Shape)
		want := fmt.Sprintf("design %q: pins %q and %q overlap on track %d",
			d.Name, orig.Name, "twin", orig.Shape.Y0)
		for rep := 0; rep < 20; rep++ {
			if err := d.Validate(); err == nil || err.Error() != want {
				t.Fatalf("trial %d: Validate = %v, want %s", trial, err, want)
			}
		}
		// The reference agrees up to the track it names.
		ref := referenceValidate(d)
		prefix := fmt.Sprintf("design %q: pins %q and %q overlap on track ", d.Name, orig.Name, "twin")
		if ref == nil || !strings.HasPrefix(ref.Error(), prefix) {
			t.Fatalf("trial %d: reference = %v, want %s<track>", trial, ref, prefix)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d designs had a multi-track pin", checked)
	}
}

// TestValidateIsDeterministic: a design with overlaps on many tracks
// gets one error message on every call.
func TestValidateIsDeterministic(t *testing.T) {
	d := New("many", 40, 40, tech.Default())
	for i := 0; i < 30; i++ {
		n := d.AddNet(fmt.Sprintf("n%d", i))
		x, y := i%10*4, i/10*10+i%7
		d.AddPin(fmt.Sprintf("a%d", i), n, geom.MakeRect(x, y, x+1, y))
		d.AddPin(fmt.Sprintf("b%d", i), n, geom.MakeRect(x+1, y, x+2, y))
	}
	first := d.Validate()
	if first == nil {
		t.Fatal("overlapping pins accepted")
	}
	for i := 0; i < 200; i++ {
		if err := d.Validate(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: %v, want %v", i, err, first)
		}
	}
}

// cloneDesign deep-copies the parts a fault injection can touch.
func cloneDesign(d *Design) *Design {
	c := *d
	c.Pins = append([]Pin(nil), d.Pins...)
	c.Nets = make([]Net, len(d.Nets))
	for i, n := range d.Nets {
		c.Nets[i] = n
		c.Nets[i].PinIDs = append([]int(nil), n.PinIDs...)
	}
	c.Blockages = append([]Blockage(nil), d.Blockages...)
	return &c
}
