package router

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// refHeap is the container/heap adapter the typed heap must mirror.
type refHeap []heapItem

func (q refHeap) Len() int           { return len(q) }
func (q refHeap) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refHeap) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)        { *q = append(*q, x.(heapItem)) }
func (q *refHeap) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// diffHeaps replays ops on the typed heap and on container/heap, then
// drains both. An even byte (or any byte on an empty heap) pushes an
// entry whose distance is one of eight values, so ties are the common
// case; an odd byte pops. Both heaps must hold the same array after
// every operation and pop the same (dist, node) sequence.
func diffHeaps(t *testing.T, ops []byte) {
	t.Helper()
	var typed searchHeap
	var ref refHeap
	for i, op := range ops {
		if op&1 == 0 || len(typed) == 0 {
			it := heapItem{dist: float64(op>>1&7) / 2, node: int32(i)}
			typed.push(it)
			heap.Push(&ref, it)
		} else if got, want := typed.pop(), heap.Pop(&ref).(heapItem); got != want {
			t.Fatalf("op %d: pop = %+v, container/heap pops %+v", i, got, want)
		}
		if !slices.Equal(typed, []heapItem(ref)) {
			t.Fatalf("op %d: heap arrays diverge:\ntyped %v\nref   %v", i, typed, ref)
		}
	}
	for len(ref) > 0 {
		if got, want := typed.pop(), heap.Pop(&ref).(heapItem); got != want {
			t.Fatalf("drain: pop = %+v, container/heap pops %+v", got, want)
		}
	}
	if len(typed) != 0 {
		t.Fatalf("typed heap holds %d entries after container/heap drained", len(typed))
	}
}

// TestSearchHeapMatchesContainerHeap is the tie-order contract of the
// search heap over random interleavings of pushes and pops.
func TestSearchHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 1+rng.Intn(600))
		rng.Read(ops)
		diffHeaps(t, ops)
	}
}

func FuzzSearchHeap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 1, 1, 1, 1})
	f.Add([]byte{14, 14, 14, 14, 0, 0, 0, 1, 14, 1, 1, 0, 1})
	f.Add([]byte{6, 4, 2, 0, 6, 4, 2, 0, 1, 3, 5, 7, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		diffHeaps(t, ops)
	})
}

// TestSearchAllocatesOnlyPath is the allocation contract of the search:
// once a shard's scratch has grown to a window, a search over it
// allocates the returned path and nothing else.
func TestSearchAllocatesOnlyPath(t *testing.T) {
	d := design.New("alloc", 40, 20, tech.Default())
	n := d.AddNet("n")
	d.AddPin("p0", n, geom.MakeRect(3, 4, 3, 5))
	d.AddPin("p1", n, geom.MakeRect(30, 12, 30, 12))
	d.AddBlockage(tech.M2, geom.MakeRect(10, 0, 10, 14))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	r := New(d, g, Config{})
	s := r.wholeShard(make([]*NetRoute, len(d.Nets)))
	sources, targets := r.pinCells(0), r.pinCells(1)
	win := r.window(n, r.cfg.WindowMargin)
	for _, presFac := range []float64{0, 2} {
		path, ok := s.search(n, sources, targets, win, presFac)
		if !ok || len(path) < 2 {
			t.Fatalf("presFac %v: no path (ok=%v, %d nodes)", presFac, ok, len(path))
		}
		allocs := testing.AllocsPerRun(20, func() {
			path, ok = s.search(n, sources, targets, win, presFac)
		})
		if allocs != 1 {
			t.Errorf("presFac %v: warmed search allocates %v times, want 1 (the path)", presFac, allocs)
		}
	}
}
