// Package pinaccess implements track-based pin access interval generation
// (paper §3.1).
//
// For every I/O pin and every M2 track the pin's M1 shape overlaps, the
// generator enumerates candidate pin access intervals inside the pin's net
// bounding box:
//
//   - the minimum interval — the smallest metal strip covering the pin,
//     which always exists and underpins the feasibility guarantee of
//     Theorem 1;
//   - intervals ending at the vertical cut lines of each diff-net pin on
//     the same track (O(m*n) combinations for m diff-net pins on the left
//     and n on the right);
//   - the maximum interval — spanning the net bounding box clipped by
//     routing blockages.
//
// Intervals of the same net with identical (track, span) are deduplicated;
// an interval that fully covers several same-net pins serves all of them
// (an intra-panel connection, preferred by the optimizer).
//
// Generation is track-sharded: candidate enumeration — the O(m*n) cut-line
// work plus covered-pin scans — is independent per routing track and runs
// on Options.Workers goroutines. Each track's shard keeps its candidates
// and their covered pins in flat buffers, pooled across calls with the
// merge's scratch, and a candidate tests only the same-net pins on its
// track, listed once per (pin, track). Interval IDs are assigned by a
// serial merge that replays the candidates in canonical (pin, track)
// order, one cursor per track. It drops a candidate that repeats an
// earlier one's (net, track, span) without hashing: a candidate of pin p
// repeats one exactly when it covers a requested same-net pin below p,
// which enumerated the same span first (see GenerateWithOptions). A
// candidate covers exactly the same-net pins inside its span, so a
// duplicate can only contribute its minimum-interval mark. The produced
// Set is therefore byte-identical for every worker count, including the
// fully sequential Workers <= 1 path.
// Interval.PinIDs and the ByPin lists are capacity-clipped windows of two
// set-wide arenas, so a caller's append copies instead of overwriting a
// neighbouring list.
package pinaccess

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/parallel"
)

// Interval is a candidate pin access interval on a single M2 track.
type Interval struct {
	// ID is the interval's index within its Set.
	ID int
	// NetID is the net every covered pin belongs to.
	NetID int
	// Track is the global M2 track (y coordinate).
	Track int
	// Span is the closed x range of the metal strip.
	Span geom.Interval
	// PinIDs lists the same-net pins fully covered by the strip, in
	// ascending order. It always contains at least the pin the interval
	// was generated for.
	PinIDs []int
	// MinForPin is the pin ID this interval is the minimum interval of,
	// or -1. Minimum intervals exist per (pin, track) pair.
	MinForPin int
}

// Covers reports whether the interval serves pin id.
func (iv *Interval) Covers(id int) bool {
	for _, p := range iv.PinIDs {
		if p == id {
			return true
		}
	}
	return false
}

// Set is the complete generated interval collection for a group of pins
// (usually one panel).
type Set struct {
	// Intervals holds every deduplicated candidate, indexed by ID.
	Intervals []Interval
	// PinIDs lists the pins the set was generated for, ascending.
	PinIDs []int
	// ByPin maps a pin ID to the IDs of intervals covering it (the set
	// S_j of the paper), each ascending.
	ByPin map[int][]int
}

// MinInterval returns the ID of pin id's minimum interval on the given
// track, or -1 if none was generated there.
func (s *Set) MinInterval(pin, track int) int {
	for _, ivID := range s.ByPin[pin] {
		iv := &s.Intervals[ivID]
		if iv.MinForPin == pin && iv.Track == track {
			return ivID
		}
	}
	return -1
}

// AnyMinInterval returns the ID of one of pin id's minimum intervals
// (lowest track first), or -1 if the pin has none.
func (s *Set) AnyMinInterval(pin int) int {
	best := -1
	for _, ivID := range s.ByPin[pin] {
		iv := &s.Intervals[ivID]
		if iv.MinForPin != pin {
			continue
		}
		if best < 0 || iv.Track < s.Intervals[best].Track {
			best = ivID
		}
	}
	return best
}

// Options tunes interval generation.
type Options struct {
	// Workers bounds the goroutines used for the per-track candidate
	// enumeration phase (<= 1 is sequential). The generated Set is
	// byte-identical for every value.
	Workers int
}

// Generate enumerates pin access intervals for the given pins with
// default options. The track index must be built from the same design.
func Generate(d *design.Design, idx *design.TrackIndex, pinIDs []int) (*Set, error) {
	return GenerateWithOptions(d, idx, pinIDs, Options{})
}

// GenerateWithOptions enumerates pin access intervals for the given pins.
func GenerateWithOptions(d *design.Design, idx *design.TrackIndex, pinIDs []int, opts Options) (*Set, error) {
	s := &Set{PinIDs: append([]int(nil), pinIDs...)}
	slices.Sort(s.PinIDs)
	for _, pid := range s.PinIDs {
		if pid < 0 || pid >= len(d.Pins) {
			return nil, fmt.Errorf("pinaccess: pin ID %d out of range", pid)
		}
	}

	// Phase 1 — per-track candidate enumeration, sharded across workers.
	// Each track is an independent job: candidate spans depend only on the
	// read-only design and track index, and every job writes to its own
	// shard.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	first := sc.trackShards(d, s.PinIDs)
	shards := sc.shards
	parallel.ForEach(opts.Workers, len(shards), func(ti int) {
		shards[ti].enumerate(d, idx)
	})

	// Phase 2 — deterministic ordered merge: replay candidates in the
	// canonical (ascending pin, ascending track) order, which assigns the
	// same interval IDs as a fully sequential enumeration would. Every
	// shard lists its pins ascending, so one cursor per shard walks it in
	// step with the merge. The candidate count bounds the deduplicated
	// interval count, so it sizes the interval slice; the shards'
	// covered-pin counts bound the set's pin arena the same way.
	numCands, numCovered := 0, 0
	for ti := range shards {
		numCands += len(shards[ti].cands)
		numCovered += len(shards[ti].covered)
	}
	s.Intervals = make([]Interval, 0, numCands)
	pinArena := make([]int, 0, numCovered)
	// A candidate of pin pid repeats an earlier (net, track, span) exactly
	// when it covers a requested same-net pin below pid, which enumerated
	// the same span first, so the merge needs no map. The proof (DESIGN.md
	// §4b) holds for regular pins and for a minimum interval only if it
	// covers no other pin; otherwise a backward scan settles the case.
	requested := &sc.pins
	requested.Reset(len(d.Pins))
	allRegular := true
	for _, pid := range s.PinIDs {
		requested.Add(pid)
		allRegular = allRegular && regular(d, idx, pid)
	}
	prev := -1
	for _, pid := range s.PinIDs {
		if pid == prev {
			continue // the shards enumerated each pin once
		}
		prev = pid
		pin := &d.Pins[pid]
		for t := pin.Shape.Y0; t <= pin.Shape.Y1; t++ {
			sh := &shards[t-first]
			cands := sh.cands[sh.start[sh.cursor]:sh.start[sh.cursor+1]]
			sh.cursor++
			for _, c := range cands {
				covered := sh.covered[c.lo:c.hi]
				if coversEarlier(requested, covered, pid) {
					if allRegular && c.minFor < 0 {
						continue // a duplicate with no mark to merge
					}
					if id := s.find(pin.NetID, t, c.span); id >= 0 {
						if iv := &s.Intervals[id]; c.minFor >= 0 && iv.MinForPin < 0 {
							iv.MinForPin = c.minFor
						}
						continue
					}
				}
				lo := len(pinArena)
				pinArena = append(pinArena, covered...)
				s.Intervals = append(s.Intervals, Interval{
					ID:        len(s.Intervals),
					NetID:     pin.NetID,
					Track:     t,
					Span:      c.span,
					PinIDs:    pinArena[lo:len(pinArena):len(pinArena)],
					MinForPin: c.minFor,
				})
			}
		}
	}
	s.ByPin = sc.indexByPin(s.Intervals, len(d.Pins))

	// Every requested pin must have at least one interval (its minimum);
	// otherwise the panel is unroutable and Theorem 1 is violated.
	// indexByPin left the covered pins numbered in sc.pins.
	for _, pid := range s.PinIDs {
		if !sc.pins.Has(pid) {
			return nil, fmt.Errorf("pinaccess: pin %q has no access interval (fully blocked)",
				d.Pins[pid].Name)
		}
	}
	return s, nil
}

// regular reports whether pin pid's x span is non-empty and lies inside
// the grid and its net's box, as design.Validate ensures for every pin:
// then its maximum span is its free span clipped to the box, and the
// merge's duplicate rule holds for its candidates.
func regular(d *design.Design, idx *design.TrackIndex, pid int) bool {
	pin := &d.Pins[pid]
	x := pin.Shape.XSpan()
	return !x.Empty() && x.Lo >= 0 && x.Hi < d.Width &&
		idx.NetBBox(pin.NetID).XSpan().ContainsInterval(x)
}

// coversEarlier reports whether covered, ascending, holds a requested pin
// below pid.
func coversEarlier(requested *PinNumbering, covered []int, pid int) bool {
	for _, q := range covered {
		if q >= pid {
			return false
		}
		if requested.Has(q) {
			return true
		}
	}
	return false
}

// find returns the ID of the interval of net on track with the given
// span, or -1. The merge calls it only for the rare candidate its
// duplicate rule cannot settle.
func (s *Set) find(net, track int, span geom.Interval) int {
	for id := len(s.Intervals) - 1; id >= 0; id-- {
		if iv := &s.Intervals[id]; iv.Span == span && iv.Track == track && iv.NetID == net {
			return id
		}
	}
	return -1
}

// indexByPin builds S_j: for every covered pin, the IDs of the intervals
// covering it, ascending. The pins, whose IDs lie below numPins, are
// numbered in order of first appearance in sc.pins; the lists are
// capacity-clipped windows of one arena, laid out in that order and
// filled in ascending interval order. The map and the arena are the only
// storage that outlives the call.
func (sc *scratch) indexByPin(ivs []Interval, numPins int) map[int][]int {
	nb := &sc.pins
	nb.Reset(numPins)
	ends := sc.ends[:0] // pin number -> covering count, then window bounds
	entries := sc.entries[:0]
	for i := range ivs {
		for _, pid := range ivs[i].PinIDs {
			k := nb.Add(pid)
			if int(k) == len(ends) {
				ends = append(ends, 0)
			}
			ends[k]++
			entries = append(entries, k)
		}
	}
	// ends[k] becomes the start of pin k's window, then its fill cursor.
	off := 0
	for k, n := range ends {
		ends[k] = off
		off += n
	}
	arena := make([]int, len(entries))
	e := 0
	for i := range ivs {
		for range ivs[i].PinIDs {
			k := entries[e]
			arena[ends[k]] = i
			ends[k]++
			e++
		}
	}
	sc.ends, sc.entries = ends, entries
	byPin := make(map[int][]int, len(nb.Pins))
	lo := 0
	for k, pid := range nb.Pins {
		byPin[pid] = arena[lo:ends[k]:ends[k]]
		lo = ends[k]
	}
	return byPin
}

// PinNumbering numbers pin IDs densely, 0, 1, 2, ... in the order Add
// first sees them, without hashing. It is a sparse set: num[p] is pin
// p's number only while Pins holds p there, so Reset clears nothing and
// a reused numbering allocates only for a larger pin ID bound. It holds
// only integers.
type PinNumbering struct {
	// Pins lists the numbered pins: pin Pins[k] has number k.
	Pins []int
	num  []int32
}

// Reset empties the numbering and readies it for pin IDs in [0, n).
func (nb *PinNumbering) Reset(n int) {
	nb.Pins = nb.Pins[:0]
	if n > len(nb.num) {
		// An eighth more absorbs the small rises of a bound that varies
		// from call to call, as LR's largest pin ID does from panel to
		// panel.
		nb.num = make([]int32, n+n/8)
	}
}

// Add returns pin p's number, numbering it first if it has none. p must
// lie in the range given to Reset.
func (nb *PinNumbering) Add(p int) int32 {
	if !nb.Has(p) {
		nb.num[p] = int32(len(nb.Pins))
		nb.Pins = append(nb.Pins, p)
	}
	return nb.num[p]
}

// Has reports whether pin p, in the range given to Reset, is numbered.
func (nb *PinNumbering) Has(p int) bool {
	k := nb.num[p]
	return int(k) < len(nb.Pins) && nb.Pins[k] == p
}

// candidate is one enumerated pin access interval before ID assignment.
// Its covered pins are covered[lo:hi] of the shard that enumerated it.
type candidate struct {
	span   geom.Interval
	lo, hi int32
	minFor int
}

// trackShard is one track's enumeration job. Its candidates and their
// covered pins live in flat buffers the shard keeps across generations:
// the candidates of pins[i] are cands[start[i]:start[i+1]].
type trackShard struct {
	track int
	// cursor is the merge's next index into pins.
	cursor  int
	pins    []int // requested pins overlapping the track, ascending
	start   []int32
	cands   []candidate
	covered []int // covered-pin arena
	// Scratch reused across the shard's pins.
	lefts, rights, same []int
}

// scratch is everything one generation builds and discards: the track
// shards, the pin numbering that holds the merge's requested pins and
// then indexByPin's numbering, and indexByPin's buffers. It holds only
// integers, so the set a generation returns never aliases it.
type scratch struct {
	shards  []trackShard
	pins    PinNumbering
	ends    []int
	entries []int32
}

// scratchPool recycles scratch across generations. A generation returns
// its scratch once the merge has copied the covered pins into the set's
// own arena and indexByPin has filled the set's own lists.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// trackShards groups the requested pins by the tracks their shapes
// overlap into sc.shards: one shard per track from the lowest to the
// highest one overlapped, shard i holding track first+i, each shard's
// pins ascending and deduplicated. Shards keep the buffers an earlier
// generation grew, unless the shard slice itself must grow.
func (sc *scratch) trackShards(d *design.Design, sortedPinIDs []int) (first int) {
	first, last := math.MaxInt, math.MinInt
	for _, pid := range sortedPinIDs {
		sh := d.Pins[pid].Shape
		first, last = min(first, sh.Y0), max(last, sh.Y1)
	}
	if last < first {
		sc.shards = sc.shards[:0]
		return 0 // no pins, or only empty shapes: no track to enumerate
	}
	sc.shards = slices.Grow(sc.shards[:0], last-first+1)[:last-first+1]
	shards := sc.shards
	for i := range shards {
		shards[i].track, shards[i].cursor, shards[i].pins = first+i, 0, shards[i].pins[:0]
	}
	prev := -1
	for _, pid := range sortedPinIDs {
		if pid == prev {
			continue // duplicate request: enumerate once
		}
		prev = pid
		sh := d.Pins[pid].Shape
		for t := sh.Y0; t <= sh.Y1; t++ {
			shards[t-first].pins = append(shards[t-first].pins, pid)
		}
	}
	return first
}

// enumerate lists the candidates of every pin of the shard. It only reads
// the design and index, so shards are safe to enumerate concurrently.
func (sh *trackShard) enumerate(d *design.Design, idx *design.TrackIndex) {
	sh.start = append(sh.start[:0], 0)
	sh.cands, sh.covered = sh.cands[:0], sh.covered[:0]
	for _, pid := range sh.pins {
		sh.enumeratePin(d, idx, pid)
		sh.start = append(sh.start, int32(len(sh.cands)))
	}
}

// enumeratePin appends pin pid's candidate intervals on the shard's track
// in the canonical order: the minimum interval first (the Theorem 1
// anchor), then the cut-line combinations left-to-right.
func (sh *trackShard) enumeratePin(d *design.Design, idx *design.TrackIndex, pid int) {
	t := sh.track
	pin := &d.Pins[pid]
	seed := pin.Shape.XSpan()
	free := idx.FreeSpanAround(t, seed)
	if free.Empty() {
		// The pin's own span is blocked on this track; no interval can
		// cover the pin here.
		return
	}
	bbox := idx.NetBBox(pin.NetID).XSpan()
	maxSpan := free.Intersect(bbox)
	if !maxSpan.ContainsInterval(seed) {
		// Defensive: the bbox always contains the pin, so this only
		// happens on malformed designs.
		maxSpan = maxSpan.Union(seed)
	}

	// One pass over the track's pins: same-net pins (pid included) are
	// the only pins a candidate can cover, and diff-net pins place the
	// cut lines.
	sh.same = sh.same[:0]
	sh.lefts = append(sh.lefts[:0], maxSpan.Lo)
	sh.rights = append(sh.rights[:0], maxSpan.Hi)
	for _, qid := range idx.PinsOnTrack(t) {
		q := &d.Pins[qid]
		if q.NetID == pin.NetID {
			sh.same = append(sh.same, qid)
			continue
		}
		qs := q.Shape.XSpan()
		if qs.Hi < seed.Lo && qs.Hi+1 > maxSpan.Lo {
			sh.lefts = append(sh.lefts, qs.Hi+1)
		}
		if qs.Lo > seed.Hi && qs.Lo-1 < maxSpan.Hi {
			sh.rights = append(sh.rights, qs.Lo-1)
		}
	}
	// Sorted once here, so every candidate's covered pins come out
	// ascending.
	slices.Sort(sh.same)
	sh.lefts = dedupInts(sh.lefts)
	sh.rights = dedupInts(sh.rights)

	// Minimum interval (Theorem 1 anchor). On a design with disjoint pins
	// (design.Validate) it covers pid alone.
	sh.add(d, seed, pid)
	// Cut-line candidates. Every span contains seed, so each covers pid.
	for _, lo := range sh.lefts {
		for _, hi := range sh.rights {
			if span := (geom.Interval{Lo: lo, Hi: hi}); span != seed {
				sh.add(d, span, -1)
			}
		}
	}
}

// add appends a candidate covering the same-net pins inside span.
func (sh *trackShard) add(d *design.Design, span geom.Interval, minFor int) {
	lo := len(sh.covered)
	for _, qid := range sh.same {
		if span.ContainsInterval(d.Pins[qid].Shape.XSpan()) {
			sh.covered = append(sh.covered, qid)
		}
	}
	sh.cands = append(sh.cands, candidate{span: span, lo: int32(lo), hi: int32(len(sh.covered)), minFor: minFor})
}

func dedupInts(xs []int) []int {
	slices.Sort(xs)
	return slices.Compact(xs)
}
