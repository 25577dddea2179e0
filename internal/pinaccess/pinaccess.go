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
// on Options.Workers goroutines, while interval IDs are assigned by a
// serial merge that replays the candidates in canonical (pin, track) order.
// The produced Set is therefore byte-identical for every worker count,
// including the fully sequential Workers <= 1 path.
package pinaccess

import (
	"fmt"
	"slices"
	"sort"

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
	// MaxSpanRadius, when positive, clips every pin's generation window
	// to [pinCenter - r, pinCenter + r] instead of the full net bounding
	// box — the paper's footnote 1: "we can constrain pin access
	// interval generation for each pin using an estimated M2 routing
	// bounding box for its corresponding net, instead of using the net
	// bounding box", which keeps M2 strips short when M2 routing is not
	// favoured for long nets.
	MaxSpanRadius int
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
	s := &Set{
		PinIDs: append([]int(nil), pinIDs...),
		ByPin:  make(map[int][]int, len(pinIDs)),
	}
	sort.Ints(s.PinIDs)

	// Deduplicate on (net, track, span). Phase 2 sizes the map.
	type key struct {
		net, track, lo, hi int
	}
	var seen map[key]int

	addInterval := func(netID, track int, span geom.Interval, coveredPins []int, minFor int) {
		k := key{netID, track, span.Lo, span.Hi}
		if id, ok := seen[k]; ok {
			// Merge pin coverage and min marking into the existing copy.
			iv := &s.Intervals[id]
			for _, p := range coveredPins {
				if !iv.Covers(p) {
					iv.PinIDs = append(iv.PinIDs, p)
				}
			}
			sort.Ints(iv.PinIDs)
			if minFor >= 0 && iv.MinForPin < 0 {
				iv.MinForPin = minFor
			}
			return
		}
		id := len(s.Intervals)
		pins := append([]int(nil), coveredPins...)
		sort.Ints(pins)
		s.Intervals = append(s.Intervals, Interval{
			ID:        id,
			NetID:     netID,
			Track:     track,
			Span:      span,
			PinIDs:    pins,
			MinForPin: minFor,
		})
		seen[k] = id
	}

	for _, pid := range s.PinIDs {
		if pid < 0 || pid >= len(d.Pins) {
			return nil, fmt.Errorf("pinaccess: pin ID %d out of range", pid)
		}
	}

	// Phase 1 — per-track candidate enumeration, sharded across workers.
	// Each track is an independent job: candidate spans depend only on the
	// read-only design and track index, and every job writes to its own
	// result slot.
	tracks, trackPins := trackShards(d, s.PinIDs)
	shards := make([][]pinCandidates, len(tracks))
	parallel.ForEach(opts.Workers, len(tracks), func(ti int) {
		t := tracks[ti]
		for _, pid := range trackPins[ti] {
			if cands := enumerateCandidates(d, idx, pid, t, opts); len(cands) > 0 {
				shards[ti] = append(shards[ti], pinCandidates{pid: pid, cands: cands})
			}
		}
	})

	// Phase 2 — deterministic ordered merge: replay candidates in the
	// canonical (ascending pin, ascending track) order, which assigns the
	// same interval IDs as a fully sequential enumeration would. The
	// candidate count bounds the deduplicated interval count, so it sizes
	// the interval slice and the dedup map.
	type pinTrack struct{ pid, track int }
	byPinTrack := make(map[pinTrack][]candidate)
	numCands := 0
	for ti := range tracks {
		for _, pc := range shards[ti] {
			byPinTrack[pinTrack{pc.pid, tracks[ti]}] = pc.cands
			numCands += len(pc.cands)
		}
	}
	s.Intervals = slices.Grow(s.Intervals, numCands)
	seen = make(map[key]int, numCands)
	for _, pid := range s.PinIDs {
		pin := &d.Pins[pid]
		for t := pin.Shape.Y0; t <= pin.Shape.Y1; t++ {
			for _, c := range byPinTrack[pinTrack{pid, t}] {
				addInterval(pin.NetID, t, c.span, c.covered, c.minFor)
			}
		}
	}

	// Build S_j.
	for i := range s.Intervals {
		for _, pid := range s.Intervals[i].PinIDs {
			s.ByPin[pid] = append(s.ByPin[pid], i)
		}
	}
	for pid, list := range s.ByPin {
		sort.Ints(list)
		s.ByPin[pid] = list
	}

	// Every requested pin must have at least one interval (its minimum);
	// otherwise the panel is unroutable and Theorem 1 is violated.
	for _, pid := range s.PinIDs {
		if len(s.ByPin[pid]) == 0 {
			return nil, fmt.Errorf("pinaccess: pin %q has no access interval (fully blocked)",
				d.Pins[pid].Name)
		}
	}
	return s, nil
}

// candidate is one enumerated pin access interval before ID assignment.
type candidate struct {
	span    geom.Interval
	covered []int
	minFor  int
}

// pinCandidates couples one requested pin with its ordered candidate list
// on a single track.
type pinCandidates struct {
	pid   int
	cands []candidate
}

// trackShards groups the requested pins by the tracks their shapes overlap:
// tracks ascending, each track's pins ascending and deduplicated. Every
// (track, pins) pair is one independent enumeration job.
func trackShards(d *design.Design, sortedPinIDs []int) (tracks []int, trackPins [][]int) {
	pinsByTrack := make(map[int][]int)
	prev := -1
	for _, pid := range sortedPinIDs {
		if pid == prev {
			continue // duplicate request: enumerate once, merge replays it
		}
		prev = pid
		sh := d.Pins[pid].Shape
		for t := sh.Y0; t <= sh.Y1; t++ {
			pinsByTrack[t] = append(pinsByTrack[t], pid)
		}
	}
	tracks = make([]int, 0, len(pinsByTrack))
	for t := range pinsByTrack {
		tracks = append(tracks, t)
	}
	sort.Ints(tracks)
	trackPins = make([][]int, len(tracks))
	for i, t := range tracks {
		trackPins[i] = pinsByTrack[t]
	}
	return tracks, trackPins
}

// enumerateCandidates lists pin pid's candidate intervals on track t in the
// canonical order: the minimum interval first (the Theorem 1 anchor), then
// the cut-line combinations left-to-right. It only reads the design and
// index, so calls are safe to run concurrently.
func enumerateCandidates(d *design.Design, idx *design.TrackIndex, pid, t int, opts Options) []candidate {
	pin := &d.Pins[pid]
	seed := pin.Shape.XSpan()
	free := idx.FreeSpanAround(t, seed)
	if free.Empty() {
		// The pin's own span is blocked on this track; no interval can
		// cover the pin here.
		return nil
	}
	bbox := d.NetBBox(pin.NetID).XSpan()
	if opts.MaxSpanRadius > 0 {
		c := pin.Shape.CenterX()
		window := geom.Interval{Lo: c - opts.MaxSpanRadius, Hi: c + opts.MaxSpanRadius}
		bbox = bbox.Intersect(window).Union(seed)
	}
	maxSpan := free.Intersect(bbox)
	if !maxSpan.ContainsInterval(seed) {
		// Defensive: the bbox always contains the pin, so this only
		// happens on malformed designs.
		maxSpan = maxSpan.Union(seed)
	}

	// Minimum interval (Theorem 1 anchor).
	out := []candidate{{span: seed, covered: []int{pid}, minFor: pid}}

	// Cut-line candidates from diff-net pins on this track.
	lefts := []int{maxSpan.Lo}
	rights := []int{maxSpan.Hi}
	for _, qid := range idx.PinsOnTrack(t) {
		if qid == pid {
			continue
		}
		q := &d.Pins[qid]
		if q.NetID == pin.NetID {
			continue
		}
		qs := q.Shape.XSpan()
		if qs.Hi < seed.Lo && qs.Hi+1 > maxSpan.Lo {
			lefts = append(lefts, qs.Hi+1)
		}
		if qs.Lo > seed.Hi && qs.Lo-1 < maxSpan.Hi {
			rights = append(rights, qs.Lo-1)
		}
	}
	lefts = dedupInts(lefts)
	rights = dedupInts(rights)

	for _, lo := range lefts {
		for _, hi := range rights {
			span := geom.Interval{Lo: lo, Hi: hi}
			if span == seed {
				continue // already added as the minimum interval
			}
			covered := coveredPins(d, idx, pin.NetID, t, span)
			if !containsInt(covered, pid) {
				// Cannot happen: span contains seed by construction.
				// Guard anyway.
				continue
			}
			out = append(out, candidate{span: span, covered: covered, minFor: -1})
		}
	}
	return out
}

// coveredPins returns the same-net pins on the track whose spans lie fully
// inside span.
func coveredPins(d *design.Design, idx *design.TrackIndex, netID, track int, span geom.Interval) []int {
	var out []int
	for _, qid := range idx.PinsOnTrack(track) {
		q := &d.Pins[qid]
		if q.NetID != netID {
			continue
		}
		if span.ContainsInterval(q.Shape.XSpan()) {
			out = append(out, qid)
		}
	}
	return out
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
