// Package conflict implements linear conflict set detection for pin access
// intervals (paper §3.2).
//
// A conflict set is a maximal group of intervals on one routing track whose
// spans share a common grid point (a maximal clique of the interval overlap
// graph). For n intervals the sweep emits at most n maximal sets, which
// keeps the ILP constraint count linear instead of quadratic
// (one sum-<=-1 row per set instead of one row per overlapping pair).
package conflict

import (
	"cmp"
	"math/bits"
	"slices"

	"cpr/internal/geom"
	"cpr/internal/parallel"
	"cpr/internal/pinaccess"
)

// Set is one maximal conflict set on a track.
type Set struct {
	// Track is the M2 track all members lie on.
	Track int
	// IDs are the member interval IDs, ascending.
	IDs []int
	// Common is the intersection of all member spans. Its length is the
	// L_m used for the Lagrangian subgradient step size.
	Common geom.Interval
}

// Detect sweeps every track and returns all maximal conflict sets with at
// least two members, ordered by track then left edge of the common span.
func Detect(intervals []pinaccess.Interval) []Set {
	return DetectWorkers(intervals, 1)
}

// DetectWorkers is Detect with the per-track sweeps sharded across up to
// workers goroutines (<= 1 is sequential). One stable radix sort orders
// the intervals by (track, lo, hi, index), so each track's sweep input is
// a contiguous run of that order. Runs are independent, each shard sweeps
// its runs into its own sets and member arena, and shards are
// concatenated in ascending track order, so the result is byte-identical
// for every worker count.
func DetectWorkers(intervals []pinaccess.Interval, workers int) []Set {
	return new(matrixWork).detect(intervals, workers)
}

// detect is DetectWorkers over w's buffers. The one-goroutine path
// sweeps into w's sweeper, so the returned sets live in w's storage
// until the next call.
func (w *matrixWork) detect(intervals []pinaccess.Interval, workers int) []Set {
	// One buffer holds the entries and the radix sort's scratch; the
	// loop and the sort overwrite every entry before it is read.
	n := len(intervals)
	w.buf = grow(w.buf, 2*n)
	order := w.buf[:n]
	for i := range intervals {
		iv := &intervals[i]
		order[i] = sweepEntry{track: iv.Track, lo: iv.Span.Lo, hi: iv.Span.Hi, id: i}
	}
	order = sortSweep(order, w.buf[n:])
	// runs[r]:runs[r+1] is the r-th track's range of order.
	runs := append(w.runs[:0], 0)
	for i := 1; i < len(order); i++ {
		if order[i].track != order[i-1].track {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(order))
	w.runs = runs
	numRuns := len(runs) - 1

	// A few tracks stay on one goroutine.
	if workers <= 1 || numRuns < parallel.Threshold {
		w.sw.reset(n)
		w.sw.sweepRuns(order, runs, 0, numRuns)
		return w.sw.finish()
	}
	// A chunk of runs writes its sets to the slot of its first run.
	shards := make([][]Set, numRuns)
	parallel.ForEachChunk(workers, numRuns, func(lo, hi int) {
		sw := new(sweeper)
		sw.reset(runs[hi] - runs[lo])
		sw.sweepRuns(order, runs, lo, hi)
		shards[lo] = sw.finish()
	})
	return slices.Concat(shards...)
}

// grow returns s resized to n, reusing its array when it is large
// enough; the elements are stale, so the caller overwrites every one.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// sweepEntry is one interval in sweep order.
type sweepEntry struct {
	track, lo, hi, id int
}

// key returns the sort key field f: 0 is track, 1 lo and 2 hi.
func (e *sweepEntry) key(f int) int {
	switch f {
	case 0:
		return e.track
	case 1:
		return e.lo
	}
	return e.hi
}

// radixBits is the digit width of sortSweep: every pass counts into one
// fixed array of 1<<radixBits buckets, whatever the coordinate range.
const radixBits = 8

// sortSweep orders entries, given in ascending id, by (track, lo, hi, id)
// with a stable LSD radix sort: digit passes on hi, then lo, then track.
// Each pass is stable and ids start ascending, so the order is exactly
// the comparison order on the total key. A field is offset by its
// minimum, so only the digits its range spans are sorted, and a pass
// whose digit is equal for every entry is skipped. tmp is scratch of the
// same length; the result is entries or tmp.
func sortSweep(entries, tmp []sweepEntry) []sweepEntry {
	if len(entries) < 2 {
		return entries
	}
	var count [1 << radixBits]int
	const mask = 1<<radixBits - 1
	for f := 2; f >= 0; f-- {
		lo, hi := entries[0].key(f), entries[0].key(f)
		for i := range entries {
			lo, hi = min(lo, entries[i].key(f)), max(hi, entries[i].key(f))
		}
		base := uint64(lo)
		for shift := 0; shift < bits.Len64(uint64(hi)-base); shift += radixBits {
			digit := func(e *sweepEntry) int { return int((uint64(e.key(f))-base)>>shift) & mask }
			clear(count[:])
			for i := range entries {
				count[digit(&entries[i])]++
			}
			if count[digit(&entries[0])] == len(entries) {
				continue
			}
			sum := 0
			for d, c := range count {
				count[d] = sum
				sum += c
			}
			for i := range entries {
				d := digit(&entries[i])
				tmp[count[d]] = entries[i]
				count[d]++
			}
			entries, tmp = tmp, entries
		}
	}
	return entries
}

// sweeper runs left-to-right sweeps over track runs, collecting sets whose
// members live in one arena.
type sweeper struct {
	sets  []Set
	arena []int
	// active holds the intervals open at the sweep line, ascending by ID.
	active []sweepEntry
}

// reset empties the sweeper and sizes it for n intervals. A sweep emits
// at most n sets; on the Table 2 circuits they hold about 2.7 members
// per interval, so the arena rarely grows.
func (sw *sweeper) reset(n int) {
	sw.sets = slices.Grow(sw.sets[:0], n)
	sw.arena = slices.Grow(sw.arena[:0], 3*n)
}

// sweepRuns sweeps the track runs lo..hi-1 of order.
func (sw *sweeper) sweepRuns(order []sweepEntry, runs []int, lo, hi int) {
	for r := lo; r < hi; r++ {
		sw.sweep(order[runs[r]:runs[r+1]])
	}
}

// sweep runs the sweep on one track's entries, sorted by (lo, hi, id).
func (sw *sweeper) sweep(run []sweepEntry) {
	if len(run) == 0 {
		return
	}
	track := run[0].track
	sw.active = sw.active[:0]
	added := false
	for _, e := range run {
		needRemoval := false
		for _, a := range sw.active {
			if a.hi < e.lo {
				needRemoval = true
				break
			}
		}
		if needRemoval {
			if added {
				sw.emit(track)
			}
			added = false
			keep := sw.active[:0]
			for _, a := range sw.active {
				if a.hi >= e.lo {
					keep = append(keep, a)
				}
			}
			sw.active = keep
		}
		i, _ := slices.BinarySearchFunc(sw.active, e.id, func(a sweepEntry, id int) int { return cmp.Compare(a.id, id) })
		sw.active = slices.Insert(sw.active, i, e)
		added = true
	}
	if added {
		sw.emit(track)
	}
}

// emit records the active intervals as a set. Their IDs go to the arena
// in ascending order; finish points the set at them. Every active
// interval contains the left edge of the last one added, so the common
// span is never empty.
func (sw *sweeper) emit(track int) {
	if len(sw.active) < 2 {
		return
	}
	lo := len(sw.arena)
	common := geom.Interval{Lo: sw.active[0].lo, Hi: sw.active[0].hi}
	for _, a := range sw.active {
		sw.arena = append(sw.arena, a.id)
		common = common.Intersect(geom.Interval{Lo: a.lo, Hi: a.hi})
	}
	sw.sets = append(sw.sets, Set{Track: track, IDs: sw.arena[lo:], Common: common})
}

// finish points every set at its members in the final arena: a set
// emitted before the arena last grew still points into an old copy.
func (sw *sweeper) finish() []Set {
	lo := 0
	for i := range sw.sets {
		hi := lo + len(sw.sets[i].IDs)
		sw.sets[i].IDs = sw.arena[lo:hi:hi]
		lo = hi
	}
	if len(sw.sets) == 0 {
		return nil
	}
	return sw.sets
}

// Matrix is the conflict structure in the form consumed by the assignment
// solvers: for every interval, the conflict sets it belongs to.
type Matrix struct {
	Sets []Set
	// MemberOf[i] lists indices into Sets for interval i.
	MemberOf [][]int

	// work is the storage Rebuild reuses: the sweep's scratch and the
	// arenas behind Sets and MemberOf.
	work *matrixWork
}

// matrixWork is a Matrix's reusable storage.
type matrixWork struct {
	buf     []sweepEntry // sweep entries, then the radix sort's scratch
	runs    []int
	sw      sweeper // the one-goroutine sweep's sets and member arena
	counts  []int
	members []int // the MemberOf arena
}

// BuildMatrix runs Detect and indexes membership for numIntervals
// intervals.
func BuildMatrix(intervals []pinaccess.Interval) *Matrix {
	return BuildMatrixWorkers(intervals, 1)
}

// BuildMatrixWorkers is BuildMatrix with the sweep sharded across up to
// workers goroutines. The membership index is derived serially from the
// ordered set list, so it inherits the sweep's determinism. The matrix
// keeps only its sets and membership, not Rebuild's scratch.
func BuildMatrixWorkers(intervals []pinaccess.Interval, workers int) *Matrix {
	m := new(Matrix)
	m.Rebuild(intervals, workers)
	m.work = nil
	return m
}

// Rebuild makes m the matrix BuildMatrixWorkers(intervals, workers)
// returns, reusing the storage an earlier Rebuild of m grew; only a
// multi-goroutine sweep allocates its sets afresh. The earlier Sets and
// MemberOf are overwritten, so the caller must hold nothing of them.
func (m *Matrix) Rebuild(intervals []pinaccess.Interval, workers int) {
	if m.work == nil {
		m.work = new(matrixWork)
	}
	w := m.work
	sets := w.detect(intervals, workers)
	m.Sets = sets
	// Count each interval's memberships, then give every member interval
	// an empty, capacity-clipped window of one arena and append the set
	// indices in ascending order.
	w.counts = grow(w.counts, len(intervals))
	counts := w.counts
	clear(counts)
	total := 0
	for si := range sets {
		for _, id := range sets[si].IDs {
			counts[id]++
		}
		total += len(sets[si].IDs)
	}
	w.members = grow(w.members, total)
	m.MemberOf = grow(m.MemberOf, len(intervals))
	lo := 0
	for id, n := range counts {
		m.MemberOf[id] = nil
		if n > 0 {
			m.MemberOf[id] = w.members[lo : lo : lo+n]
			lo += n
		}
	}
	for si := range sets {
		for _, id := range sets[si].IDs {
			m.MemberOf[id] = append(m.MemberOf[id], si)
		}
	}
}

// Violations counts the conflict sets with more than one selected interval.
// selected[i] reports whether interval i is chosen.
func (m *Matrix) Violations(selected []bool) int {
	vio := 0
	for si := range m.Sets {
		count := 0
		for _, id := range m.Sets[si].IDs {
			if selected[id] {
				count++
				if count > 1 {
					vio++
					break
				}
			}
		}
	}
	return vio
}
