package pinaccess

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/parallel"
	"cpr/internal/tech"
)

// refDedupKey identifies a deduplicated interval in refGenerate: equal
// keys cover equal pins.
type refDedupKey struct {
	net, track, lo, hi int
}

// refGenerate is the map-based merge that the hashing-free duplicate rule
// of GenerateWithOptions replaced, kept verbatim as its reference: it
// deduplicates candidates on (net, track, span) through a map and
// numbers pins for S_j through another. Candidate enumeration is the
// shared phase 1, run on a scratch of its own.
func refGenerate(d *design.Design, idx *design.TrackIndex, pinIDs []int, opts Options) (*Set, error) {
	s := &Set{PinIDs: append([]int(nil), pinIDs...)}
	slices.Sort(s.PinIDs)
	for _, pid := range s.PinIDs {
		if pid < 0 || pid >= len(d.Pins) {
			return nil, fmt.Errorf("pinaccess: pin ID %d out of range", pid)
		}
	}

	sc := new(scratch)
	first := sc.trackShards(d, s.PinIDs)
	shards := sc.shards
	parallel.ForEach(opts.Workers, len(shards), func(ti int) {
		shards[ti].enumerate(d, idx)
	})

	numCands, numCovered := 0, 0
	for ti := range shards {
		numCands += len(shards[ti].cands)
		numCovered += len(shards[ti].covered)
	}
	s.Intervals = make([]Interval, 0, numCands)
	pinArena := make([]int, 0, numCovered)
	// Deduplicate on (net, track, span). A candidate covers exactly the
	// same-net pins on its track inside its span, so equal keys cover
	// equal pins and only the minimum-interval mark can merge.
	seen := make(map[refDedupKey]int, numCands)
	prev := -1
	for _, pid := range s.PinIDs {
		if pid == prev {
			continue // a duplicate request replays only dedup hits
		}
		prev = pid
		pin := &d.Pins[pid]
		for t := pin.Shape.Y0; t <= pin.Shape.Y1; t++ {
			sh := &shards[t-first]
			cands := sh.cands[sh.start[sh.cursor]:sh.start[sh.cursor+1]]
			sh.cursor++
			for _, c := range cands {
				k := refDedupKey{pin.NetID, t, c.span.Lo, c.span.Hi}
				if id, ok := seen[k]; ok {
					if iv := &s.Intervals[id]; c.minFor >= 0 && iv.MinForPin < 0 {
						iv.MinForPin = c.minFor
					}
					continue
				}
				id := len(s.Intervals)
				lo := len(pinArena)
				pinArena = append(pinArena, sh.covered[c.lo:c.hi]...)
				s.Intervals = append(s.Intervals, Interval{
					ID:        id,
					NetID:     pin.NetID,
					Track:     t,
					Span:      c.span,
					PinIDs:    pinArena[lo:len(pinArena):len(pinArena)],
					MinForPin: c.minFor,
				})
				seen[k] = id
			}
		}
	}
	s.ByPin = refIndexByPin(s.Intervals, len(s.PinIDs))

	for _, pid := range s.PinIDs {
		if len(s.ByPin[pid]) == 0 {
			return nil, fmt.Errorf("pinaccess: pin %q has no access interval (fully blocked)",
				d.Pins[pid].Name)
		}
	}
	return s, nil
}

// refIndexByPin is indexByPin with its pin numbering in a map.
func refIndexByPin(ivs []Interval, numPins int) map[int][]int {
	total := 0
	for i := range ivs {
		total += len(ivs[i].PinIDs)
	}
	dense := make(map[int]int32, numPins) // pin -> index into pins and ends
	var pins, ends []int
	entries := make([]int32, 0, total) // each covering's dense pin index, in interval order
	for i := range ivs {
		for _, pid := range ivs[i].PinIDs {
			k, ok := dense[pid]
			if !ok {
				k = int32(len(pins))
				dense[pid] = k
				pins = append(pins, pid)
				ends = append(ends, 0)
			}
			ends[k]++
			entries = append(entries, k)
		}
	}
	off := 0
	for k, n := range ends {
		ends[k] = off
		off += n
	}
	arena := make([]int, total)
	e := 0
	for i := range ivs {
		for range ivs[i].PinIDs {
			k := entries[e]
			arena[ends[k]] = i
			ends[k]++
			e++
		}
	}
	byPin := make(map[int][]int, len(pins))
	lo := 0
	for k, pid := range pins {
		byPin[pid] = arena[lo:ends[k]:ends[k]]
		lo = ends[k]
	}
	return byPin
}

// randomGenerateCase builds a small design from seed, without Validate,
// and a request over its pins. Pins span up to three tracks and often
// overlap, M2 blockages may cover pins, a request may repeat a pin and
// usually leaves out some pins, same-net ones on the same tracks
// included, and one case in four also holds a pin that design.Validate
// refuses: an empty x span, or one reaching outside the grid.
func randomGenerateCase(seed int64) (*design.Design, []int) {
	rng := rand.New(rand.NewSource(seed))
	w, h := 6+rng.Intn(30), 1+rng.Intn(6)
	d := design.New(fmt.Sprintf("rand%d", seed), w, h, tech.Default())
	nets := 1 + rng.Intn(4)
	for n := 0; n < nets; n++ {
		d.AddNet(fmt.Sprintf("n%d", n))
	}
	irregular := rng.Intn(4) == 0
	for i, pins := 0, 1+rng.Intn(14); i < pins; i++ {
		x0, y0 := rng.Intn(w), rng.Intn(h)
		shape := geom.Rect{X0: x0, Y0: y0, X1: min(w-1, x0+rng.Intn(4)), Y1: min(h-1, y0+rng.Intn(3))}
		if irregular && rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				shape.X1 = shape.X0 - 1 - rng.Intn(2) // empty x span
			case 1:
				shape.X0 = -1 - rng.Intn(3)
			default:
				shape.X1 = w + rng.Intn(3)
			}
		}
		d.AddPin(fmt.Sprintf("p%d", i), rng.Intn(nets), shape)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		x0, y0 := rng.Intn(w), rng.Intn(h)
		d.AddBlockage(tech.M2, geom.MakeRect(x0, y0, min(w-1, x0+rng.Intn(5)), min(h-1, y0+rng.Intn(2))))
	}
	var req []int
	for pid := range d.Pins {
		switch rng.Intn(5) {
		case 0: // left out
		case 1:
			req = append(req, pid, pid)
		default:
			req = append(req, pid)
		}
	}
	rng.Shuffle(len(req), func(i, j int) { req[i], req[j] = req[j], req[i] })
	return d, req
}

// diffGenerate checks that GenerateWithOptions returns what refGenerate
// does on the case seed builds, field by field, at several worker
// counts.
func diffGenerate(t *testing.T, seed int64) {
	t.Helper()
	d, req := randomGenerateCase(seed)
	idx := d.BuildTrackIndex()
	want, wantErr := refGenerate(d, idx, req, Options{})
	for _, workers := range []int{1, 2, 8} {
		got, err := GenerateWithOptions(d, idx, req, Options{Workers: workers})
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("seed %d workers=%d: error %v, reference %v", seed, workers, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got.PinIDs, want.PinIDs) {
			t.Fatalf("seed %d workers=%d: PinIDs %v, reference %v", seed, workers, got.PinIDs, want.PinIDs)
		}
		if len(got.Intervals) != len(want.Intervals) {
			t.Fatalf("seed %d workers=%d: %d intervals, reference %d", seed, workers, len(got.Intervals), len(want.Intervals))
		}
		for i := range want.Intervals {
			if !reflect.DeepEqual(got.Intervals[i], want.Intervals[i]) {
				t.Fatalf("seed %d workers=%d: interval %d = %+v, reference %+v", seed, workers, i, got.Intervals[i], want.Intervals[i])
			}
		}
		if !reflect.DeepEqual(got.ByPin, want.ByPin) {
			t.Fatalf("seed %d workers=%d: ByPin %v, reference %v", seed, workers, got.ByPin, want.ByPin)
		}
	}
}

// TestGenerateMatchesReference compares the merge with its map-based
// reference on random designs.
func TestGenerateMatchesReference(t *testing.T) {
	n := int64(3000)
	if testing.Short() {
		n = 400
	}
	for seed := int64(1); seed <= n; seed++ {
		diffGenerate(t, seed)
	}
}

func FuzzGenerateMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 4, 17, 99, 2024, -8} {
		f.Add(seed)
	}
	f.Fuzz(diffGenerate)
}
