package router

import (
	"math/rand"
	"reflect"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// TestSegmentsOfNodeOrderInvariant feeds segmentsOf the same node set in
// shuffled orders and requires identical segment slices: segment order
// flows into nr.Virtual and from there into the cached result, so it must
// not depend on map iteration or node insertion order.
func TestSegmentsOfNodeOrderInvariant(t *testing.T) {
	d := design.New("segperm", 20, 20, tech.Default())
	id := d.AddNet("n0")
	d.AddPin("p0", id, geom.MakeRect(0, 0, 0, 0))
	d.AddPin("p1", id, geom.MakeRect(5, 5, 5, 5))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	r := New(d, g, Config{})

	// Metal on three M2 tracks (two runs on track 2) and two M3 columns.
	var nodes []grid.NodeID
	for x := 1; x <= 4; x++ {
		nodes = append(nodes, g.ID(x, 2, tech.M2))
	}
	for x := 8; x <= 9; x++ {
		nodes = append(nodes, g.ID(x, 2, tech.M2))
	}
	for x := 3; x <= 6; x++ {
		nodes = append(nodes, g.ID(x, 7, tech.M2))
	}
	for y := 2; y <= 7; y++ {
		nodes = append(nodes, g.ID(3, y, tech.M3))
	}
	for y := 1; y <= 3; y++ {
		nodes = append(nodes, g.ID(9, y, tech.M3))
	}

	base := r.wholeShard(nil).segmentsOf(nil, &NetRoute{NetID: id, Nodes: nodes})
	if len(base) != 5 {
		t.Fatalf("expected 5 segments, got %d: %+v", len(base), base)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]grid.NodeID(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := r.wholeShard(nil).segmentsOf(nil, &NetRoute{NetID: id, Nodes: shuffled})
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: segment order depends on node order:\nbase %+v\ngot  %+v",
				trial, base, got)
		}
	}
}
