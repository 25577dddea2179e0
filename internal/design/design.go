// Package design models the physical design that pin access optimization
// and routing operate on: I/O pins on M1, nets, routing blockages, and the
// panel decomposition induced by standard cell rows.
//
// Coordinates are integer grid units. The routing grid spans x in
// [0, Width) and y in [0, Height). Each y grid line on M2 is one routing
// track; tech.Technology.TracksPerPanel consecutive tracks form one panel
// (one standard cell row).
package design

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"cpr/internal/geom"
	"cpr/internal/tech"
)

// Pin is a standard cell I/O pin. Pins live on M1; Shape.XSpan() gives the
// grid columns the pin covers and Shape.YSpan() the M2 tracks it overlaps.
type Pin struct {
	ID    int
	Name  string
	NetID int
	Shape geom.Rect
}

// Panel returns the panel index the pin belongs to (the panel of its lowest
// track).
func (p *Pin) Panel(t *tech.Technology) int { return t.PanelOfTrack(p.Shape.Y0) }

// Net is a set of electrically equivalent pins that must be connected.
type Net struct {
	ID     int
	Name   string
	PinIDs []int
}

// Blockage is a rectangular routing obstruction on a single layer.
type Blockage struct {
	Layer int
	Shape geom.Rect
}

// Design is an immutable-after-construction physical design. Build it with
// New and the Add* methods, then call Validate once before use.
type Design struct {
	Name   string
	Width  int
	Height int
	Tech   *tech.Technology

	Pins      []Pin
	Nets      []Net
	Blockages []Blockage
}

// New returns an empty design on a Width x Height grid.
func New(name string, width, height int, t *tech.Technology) *Design {
	return &Design{Name: name, Width: width, Height: height, Tech: t}
}

// AddNet appends a new empty net and returns its ID.
func (d *Design) AddNet(name string) int {
	id := len(d.Nets)
	d.Nets = append(d.Nets, Net{ID: id, Name: name})
	return id
}

// AddPin appends a pin attached to net netID and returns the pin ID.
func (d *Design) AddPin(name string, netID int, shape geom.Rect) int {
	id := len(d.Pins)
	d.Pins = append(d.Pins, Pin{ID: id, Name: name, NetID: netID, Shape: shape})
	d.Nets[netID].PinIDs = append(d.Nets[netID].PinIDs, id)
	return id
}

// AddBlockage appends a routing blockage.
func (d *Design) AddBlockage(layer int, shape geom.Rect) {
	d.Blockages = append(d.Blockages, Blockage{Layer: layer, Shape: shape})
}

// NumPanels returns the number of panels covering the design height.
// A partially covered top row still counts as a panel.
func (d *Design) NumPanels() int {
	tp := d.Tech.TracksPerPanel
	return (d.Height + tp - 1) / tp
}

// NetBBox returns the bounding box of all pin shapes of net netID.
func (d *Design) NetBBox(netID int) geom.Rect {
	box := geom.Rect{X0: 0, Y0: 0, X1: -1, Y1: -1}
	for _, pid := range d.Nets[netID].PinIDs {
		box = box.Union(d.Pins[pid].Shape)
	}
	return box
}

// HPWL returns the half-perimeter wirelength of net netID.
func (d *Design) HPWL(netID int) int {
	box := d.NetBBox(netID)
	if box.Empty() {
		return 0
	}
	return (box.Width() - 1) + (box.Height() - 1)
}

// PinsInPanel returns the IDs of pins whose lowest track lies in panel p,
// in ascending pin ID order.
func (d *Design) PinsInPanel(p int) []int {
	var ids []int
	for i := range d.Pins {
		if d.Pins[i].Panel(d.Tech) == p {
			ids = append(ids, i)
		}
	}
	return ids
}

// Validate checks structural invariants:
//   - the grid is non-empty and pins/blockages lie within it,
//   - every net has at least one pin,
//   - pin shapes are pairwise disjoint,
//   - each pin stays within a single panel,
//   - no M2 blockage overlaps a pin shape (which would make the minimum
//     pin access interval of Theorem 1 infeasible).
//
// It lists each track's pins once, sorted, and finds the pins under an
// M2 blockage by binary search on its tracks, so no check costs
// blockages × pins. It reports the same error for the same design every
// time: the first failing check in the order above, overlapping pins on
// the lowest track, and an M2 blockage's lowest-ID pin.
func (d *Design) Validate() error {
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
	pinsOnTrack := d.pinsOnTrack()
	if err := d.checkPinDisjointness(pinsOnTrack); err != nil {
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
			if pin := d.lowestPinOverlapping(pinsOnTrack, b.Shape); pin >= 0 {
				return fmt.Errorf("design %q: M2 blockage %v overlaps pin %q",
					d.Name, b.Shape, d.Pins[pin].Name)
			}
		}
	}
	return nil
}

// pinsOnTrack lists, for each track, the IDs of the pins whose shape
// overlaps it, sorted by X0, then ID. Shapes are clipped to the grid.
func (d *Design) pinsOnTrack() [][]int {
	tracks := groupLists(d.Height, func(emit func(y, pin int)) {
		for i := range d.Pins {
			sh := d.Pins[i].Shape
			for y := max(sh.Y0, 0); y <= min(sh.Y1, d.Height-1); y++ {
				emit(y, i)
			}
		}
	})
	// X0 ties, which only an invalid design has, fall back to pin ID,
	// so Validate names the same overlapping pair every time.
	byX0 := func(a, b int) int {
		if c := cmp.Compare(d.Pins[a].Shape.X0, d.Pins[b].Shape.X0); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	for _, pins := range tracks {
		slices.SortFunc(pins, byX0)
	}
	return tracks
}

// groupLists returns n lists, list k holding the values each emits for
// k, in emission order; an empty list is nil. The lists are
// capacity-clipped windows of one arena: each runs twice, once to count
// and once to fill.
func groupLists[T any](n int, each func(emit func(k int, v T))) [][]T {
	counts := make([]int, n)
	each(func(k int, _ T) { counts[k]++ })
	total := 0
	for _, c := range counts {
		total += c
	}
	arena := make([]T, total)
	lists := make([][]T, n)
	lo := 0
	for k, c := range counts {
		if c > 0 {
			lists[k] = arena[lo : lo : lo+c]
			lo += c
		}
	}
	each(func(k int, v T) { lists[k] = append(lists[k], v) })
	return lists
}

// checkPinDisjointness verifies pin shapes are pairwise disjoint, track
// by track in ascending order. Each track's pins are sorted by X0, so a
// track holds an overlap exactly when two neighbouring pins overlap.
func (d *Design) checkPinDisjointness(pinsOnTrack [][]int) error {
	for y, pins := range pinsOnTrack {
		for i := 1; i < len(pins); i++ {
			if d.Pins[pins[i]].Shape.X0 <= d.Pins[pins[i-1]].Shape.X1 {
				return fmt.Errorf("design %q: pins %q and %q overlap on track %d",
					d.Name, d.Pins[pins[i-1]].Name, d.Pins[pins[i]].Name, y)
			}
		}
	}
	return nil
}

// lowestPinOverlapping returns the lowest ID of a pin overlapping r, or
// -1. r must lie within the grid and the pins must be disjoint
// (checkPinDisjointness), so on each track both ends of the pins' spans
// ascend and a binary search finds the first pin that can reach r.
func (d *Design) lowestPinOverlapping(pinsOnTrack [][]int, r geom.Rect) int {
	lowest := -1
	for _, pins := range pinsOnTrack[r.Y0 : r.Y1+1] {
		i := sort.Search(len(pins), func(i int) bool { return d.Pins[pins[i]].Shape.X1 >= r.X0 })
		for ; i < len(pins) && d.Pins[pins[i]].Shape.X0 <= r.X1; i++ {
			if lowest < 0 || pins[i] < lowest {
				lowest = pins[i]
			}
		}
	}
	return lowest
}

// TrackIndex accelerates per-track, per-panel and per-net queries: which
// pins and which M2 blockage spans touch each track, which pins lie in
// each panel, and each net's bounding box. Build it once per design with
// BuildTrackIndex after the design is complete.
type TrackIndex struct {
	design *Design

	// pinsInPanel[p] lists the IDs of pins in panel p, ascending.
	pinsInPanel [][]int

	// pinsOnTrack[y] lists pin IDs whose shape overlaps track y, sorted
	// by the pin's X0, then ID.
	pinsOnTrack [][]int

	// blockedOnTrack[y] lists M2 blockage X spans on track y, sorted and
	// merged so they are disjoint and non-adjacent.
	blockedOnTrack [][]geom.Interval

	// netBoxes[n] is Design.NetBBox(n).
	netBoxes []geom.Rect
}

// BuildTrackIndex constructs the per-track index.
func (d *Design) BuildTrackIndex() *TrackIndex {
	panels := d.NumPanels()
	idx := &TrackIndex{
		design: d,
		pinsInPanel: groupLists(panels, func(emit func(p, pin int)) {
			for i := range d.Pins {
				if p := d.Pins[i].Panel(d.Tech); p >= 0 && p < panels {
					emit(p, i)
				}
			}
		}),
		pinsOnTrack: d.pinsOnTrack(),
		blockedOnTrack: groupLists(d.Height, func(emit func(y int, span geom.Interval)) {
			for _, b := range d.Blockages {
				if b.Layer != tech.M2 {
					continue
				}
				for y := max(b.Shape.Y0, 0); y <= min(b.Shape.Y1, d.Height-1); y++ {
					emit(y, b.Shape.XSpan())
				}
			}
		}),
		netBoxes: make([]geom.Rect, len(d.Nets)),
	}
	for n := range d.Nets {
		idx.netBoxes[n] = d.NetBBox(n)
	}
	for y, spans := range idx.blockedOnTrack {
		idx.blockedOnTrack[y] = mergeInPlace(spans)
	}
	return idx
}

// PinsInPanel returns the IDs of pins in panel p in ascending order, the
// same list as Design.PinsInPanel without scanning every pin. The
// returned slice must not be modified.
func (ti *TrackIndex) PinsInPanel(p int) []int {
	if p < 0 || p >= len(ti.pinsInPanel) {
		return nil
	}
	return ti.pinsInPanel[p]
}

// NetBBox returns the bounding box of net netID's pin shapes, the same
// box as Design.NetBBox, computed once when the index is built.
func (ti *TrackIndex) NetBBox(netID int) geom.Rect {
	return ti.netBoxes[netID]
}

// PinsOnTrack returns the pin IDs overlapping track y, sorted by X0,
// then ID.
// The returned slice must not be modified.
func (ti *TrackIndex) PinsOnTrack(y int) []int {
	if y < 0 || y >= len(ti.pinsOnTrack) {
		return nil
	}
	return ti.pinsOnTrack[y]
}

// BlockedSpans returns the merged M2 blockage spans on track y.
// The returned slice must not be modified.
func (ti *TrackIndex) BlockedSpans(y int) []geom.Interval {
	if y < 0 || y >= len(ti.blockedOnTrack) {
		return nil
	}
	return ti.blockedOnTrack[y]
}

// FreeSpanAround returns the maximal unblocked interval on track y that
// contains the whole seed interval, clipped to [0, Width). If the seed is
// blocked or out of range, it returns an empty interval.
func (ti *TrackIndex) FreeSpanAround(y int, seed geom.Interval) geom.Interval {
	if y < 0 || y >= len(ti.blockedOnTrack) || seed.Empty() {
		return geom.EmptyInterval()
	}
	span := geom.Interval{Lo: 0, Hi: ti.design.Width - 1}
	for _, b := range ti.blockedOnTrack[y] {
		if b.Overlaps(seed) {
			return geom.EmptyInterval()
		}
		if b.Hi < seed.Lo && b.Hi+1 > span.Lo {
			span.Lo = b.Hi + 1
		}
		if b.Lo > seed.Hi && b.Lo-1 < span.Hi {
			span.Hi = b.Lo - 1
		}
	}
	return span
}

// MergeIntervals sorts the given intervals and merges overlapping or
// adjacent ones into a minimal disjoint set. ivs is left as it was.
func MergeIntervals(ivs []geom.Interval) []geom.Interval {
	return mergeInPlace(slices.Clone(ivs))
}

// mergeInPlace is MergeIntervals in ivs' own storage: the result is a
// capacity-clipped prefix of ivs, or nil when every interval is empty.
// The merge keeps the largest end among equal starts, so the sort's
// order among them does not matter.
func mergeInPlace(ivs []geom.Interval) []geom.Interval {
	nonEmpty := ivs[:0]
	for _, iv := range ivs {
		if !iv.Empty() {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	slices.SortFunc(nonEmpty, func(a, b geom.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	out := nonEmpty[:1]
	for _, iv := range nonEmpty[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1 {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out[:len(out):len(out)]
}

// Stats summarizes a design for reporting.
type Stats struct {
	Nets      int
	Pins      int
	Blockages int
	Panels    int
	AvgDegree float64
}

// ComputeStats returns summary statistics for the design.
func (d *Design) ComputeStats() Stats {
	s := Stats{
		Nets:      len(d.Nets),
		Pins:      len(d.Pins),
		Blockages: len(d.Blockages),
		Panels:    d.NumPanels(),
	}
	if s.Nets > 0 {
		s.AvgDegree = float64(s.Pins) / float64(s.Nets)
	}
	return s
}
