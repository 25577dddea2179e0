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
	// One allocation holds the entries and the radix sort's scratch.
	buf := make([]sweepEntry, 2*len(intervals))
	order := buf[:len(intervals)]
	for i := range intervals {
		iv := &intervals[i]
		order[i] = sweepEntry{track: iv.Track, lo: iv.Span.Lo, hi: iv.Span.Hi, id: i}
	}
	order = sortSweep(order, buf[len(intervals):])
	// runs[r]:runs[r+1] is the r-th track's range of order.
	runs := []int{0}
	for i := 1; i < len(order); i++ {
		if order[i].track != order[i-1].track {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(order))
	numRuns := len(runs) - 1

	// A few tracks stay on one goroutine. A chunk of runs writes its sets
	// to the slot of its first run.
	if numRuns < parallel.Threshold {
		workers = 1
	}
	shards := make([][]Set, numRuns)
	parallel.ForEachChunk(workers, numRuns, func(lo, hi int) {
		sw := newSweeper(runs[hi] - runs[lo])
		for r := lo; r < hi; r++ {
			sw.sweep(order[runs[r]:runs[r+1]])
		}
		shards[lo] = sw.finish()
	})
	if workers <= 1 {
		return shards[0] // one chunk covered every run
	}
	return slices.Concat(shards...)
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

// newSweeper sizes a sweeper for n intervals. A sweep emits at most n
// sets; on the Table 2 circuits they hold about 2.7 members per interval,
// so the arena rarely grows.
func newSweeper(n int) *sweeper {
	return &sweeper{sets: make([]Set, 0, n), arena: make([]int, 0, 3*n)}
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
}

// BuildMatrix runs Detect and indexes membership for numIntervals
// intervals.
func BuildMatrix(intervals []pinaccess.Interval) *Matrix {
	return BuildMatrixWorkers(intervals, 1)
}

// BuildMatrixWorkers is BuildMatrix with the sweep sharded across up to
// workers goroutines. The membership index is derived serially from the
// ordered set list, so it inherits the sweep's determinism.
func BuildMatrixWorkers(intervals []pinaccess.Interval, workers int) *Matrix {
	sets := DetectWorkers(intervals, workers)
	m := &Matrix{Sets: sets, MemberOf: make([][]int, len(intervals))}
	// Count each interval's memberships, then give every member interval
	// an empty, capacity-clipped window of one arena and append the set
	// indices in ascending order.
	counts := make([]int, len(intervals))
	total := 0
	for si := range sets {
		for _, id := range sets[si].IDs {
			counts[id]++
		}
		total += len(sets[si].IDs)
	}
	arena := make([]int, total)
	lo := 0
	for id, n := range counts {
		if n > 0 {
			m.MemberOf[id] = arena[lo : lo : lo+n]
			lo += n
		}
	}
	for si := range sets {
		for _, id := range sets[si].IDs {
			m.MemberOf[id] = append(m.MemberOf[id], si)
		}
	}
	return m
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
