package router

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// refQueue is the reference frontier: entries kept stably sorted by the
// key the queue files them at, the pushed key or the last popped one if
// that is higher. A pop takes the front entry; the tie orders take
// another entry of the front run of equal filed keys.
type refQueue struct {
	es   []refEntry
	last uint64
}

type refEntry struct {
	it queueItem
	at uint64 // bits of the filed key
}

func (q *refQueue) push(it queueItem) {
	at := max(math.Float64bits(it.key), q.last)
	i := sort.Search(len(q.es), func(i int) bool { return q.es[i].at > at })
	q.es = slices.Insert(q.es, i, refEntry{it, at})
}

// run is the length of the front run of entries filed at one key.
func (q *refQueue) run() int {
	n := 1
	for n < len(q.es) && q.es[n].at == q.es[0].at {
		n++
	}
	return n
}

func (q *refQueue) take(i int) queueItem {
	e := q.es[i]
	q.es = slices.Delete(q.es, i, i+1)
	q.last = e.at
	return e.it
}

// diffQueues replays ops on the radix queue, ordered by order, and on
// the reference, then drains both. An even byte (or any byte on an
// empty queue) pushes, an odd byte pops. A push's key is the last
// popped key plus a step of 0–7 units, so equal keys are common, at one
// of four scales (half a unit up to 2^40 units) so that refills cross
// many buckets; one push in eight goes one ulp below the last pop
// instead. Under arrival order the two pop the same entries; under
// reverse arrival the queue pops the last of the front run, and under a
// shuffle any entry of it.
func diffQueues(t *testing.T, ops []byte, order tieOrder) {
	t.Helper()
	q := radixQueue{tie: order}
	var ref refQueue
	for i, op := range ops {
		if op&1 == 0 || len(ref.es) == 0 {
			last := math.Float64frombits(ref.last)
			key := last + float64(op>>1&7)*[4]float64{0.5, 1, 97.25, 1 << 40}[op>>4&3]
			if op>>6 == 3 && last > 0 {
				key = math.Nextafter(last, 0)
			}
			it := queueItem{key: key, node: int32(i)}
			q.push(it)
			ref.push(it)
		} else {
			got := q.pop()
			if !q.popped(t, &ref, got) {
				t.Fatalf("op %d: pop = %+v, front run of the reference %+v", i, got, ref.es[:ref.run()])
			}
		}
		if q.empty() != (len(ref.es) == 0) {
			t.Fatalf("op %d: empty() = %v with %d entries queued", i, q.empty(), len(ref.es))
		}
	}
	for len(ref.es) > 0 {
		if got := q.pop(); !q.popped(t, &ref, got) {
			t.Fatalf("drain: pop = %+v, front run of the reference %+v", got, ref.es[:ref.run()])
		}
	}
	if !q.empty() {
		t.Fatal("queue not empty after the reference drained")
	}
}

// popped takes got out of ref if the queue's tie order allows ref to
// pop it next, and reports whether it did.
func (q *radixQueue) popped(t *testing.T, ref *refQueue, got queueItem) bool {
	t.Helper()
	n := ref.run()
	switch {
	case q.tie.reverse:
		return ref.es[n-1].it == got && ref.take(n-1) == got
	case q.tie.shuffle != 0:
		for i, e := range ref.es[:n] {
			if e.it == got {
				ref.take(i)
				return true
			}
		}
		return false
	}
	return ref.es[0].it == got && ref.take(0) == got
}

var testTieOrders = []tieOrder{{}, {reverse: true}, {shuffle: 0x9e3779b97f4a7c15}}

// TestRadixQueueMatchesStableSort holds the search queue to a stably
// sorted reference over random interleavings of pushes and pops, under
// every tie order.
func TestRadixQueueMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 1+rng.Intn(600))
		rng.Read(ops)
		for _, order := range testTieOrders {
			diffQueues(t, ops, order)
		}
	}
}

// TestRadixQueueClampAndReset pushes a key below the last popped one
// while greater keys wait in other buckets: it pops next, with its own
// key, and nothing is lost. A reset drops the entries a search left
// behind (a search stops at its first target) and files from 0 again.
func TestRadixQueueClampAndReset(t *testing.T) {
	var q radixQueue
	for i, key := range []float64{3, 1, 2} {
		q.push(queueItem{key: key, node: int32(i)})
	}
	var got []queueItem
	pop := func() { got = append(got, q.pop()) }
	pop()
	pop()
	low := queueItem{key: math.Nextafter(2, 0), node: 9}
	q.push(low)
	for !q.empty() {
		pop()
	}
	want := []queueItem{{1, 1}, {2, 2}, low, {3, 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("pops %v, want %v", got, want)
	}
	// Leave 5 queued, reset, and file 6 into the bucket 5 was left in.
	q = radixQueue{}
	q.push(queueItem{key: 1, node: 1})
	q.push(queueItem{key: 5, node: 2})
	q.pop()
	q.reset()
	if !q.empty() || q.last != 0 {
		t.Fatalf("reset queue: empty %v, last %x", q.empty(), q.last)
	}
	got = got[:0]
	q.push(queueItem{key: 1, node: 3})
	q.push(queueItem{key: 6, node: 4})
	for !q.empty() {
		pop()
	}
	if want := []queueItem{{1, 3}, {6, 4}}; !slices.Equal(got, want) {
		t.Fatalf("after reset: pops %v, want %v", got, want)
	}
}

func FuzzRadixQueue(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 1, 1, 1, 1})
	f.Add([]byte{14, 14, 14, 14, 0, 0, 0, 1, 14, 1, 1, 0, 1})
	f.Add([]byte{6, 4, 2, 0, 6, 4, 2, 0, 1, 3, 5, 7, 9})
	f.Add([]byte{0x32, 0x12, 0x02, 1, 0xc2, 0x22, 0xc0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, order := range testTieOrders {
			diffQueues(t, ops, order)
		}
	})
}

// TestSearchAllocatesNothing is the allocation contract of the search:
// once a shard's scratch is sized, a search allocates nothing, with or
// without an avoid set (the DRC stage's reroutes search with one). The
// path it returns lives in the scratch.
func TestSearchAllocatesNothing(t *testing.T) {
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
	sources, targets := r.appendPinCells(nil, 0), r.appendPinCells(nil, 1)
	win := r.window(n, r.cfg.WindowMargin)
	check := func(name string, presFac float64) []grid.NodeID {
		t.Helper()
		path, ok := s.search(n, sources, targets, win, presFac)
		if !ok || len(path) < 2 {
			t.Fatalf("%s presFac %v: no path (ok=%v, %d nodes)", name, presFac, ok, len(path))
		}
		want := slices.Clone(path)
		allocs := testing.AllocsPerRun(20, func() {
			path, ok = s.search(n, sources, targets, win, presFac)
		})
		if allocs != 0 {
			t.Errorf("%s presFac %v: warmed search allocates %v times, want 0", name, presFac, allocs)
		}
		if !ok || !slices.Equal(path, want) {
			t.Fatalf("%s presFac %v: repeated search found %v, first %v", name, presFac, path, want)
		}
		return path
	}
	for _, presFac := range []float64{0, 2} {
		check("no avoid set", presFac)
	}
	// Avoid M2 at x = 20 except the top rows, as a DRC reroute avoids
	// other nets' extended strips: the path must cross there.
	s.avoid.reset(s.box)
	for y := 0; y < d.Height-3; y++ {
		s.avoid.add(20, y, tech.M2)
	}
	for _, presFac := range []float64{0, 2} {
		for _, id := range check("avoid set", presFac) {
			if x, y, z := g.Coords(id); s.avoid.has(x, y, z) {
				t.Fatalf("presFac %v: path enters avoided node (%d,%d,L%d)", presFac, x, y, z)
			}
		}
	}
}
