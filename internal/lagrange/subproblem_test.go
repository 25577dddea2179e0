package lagrange

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/geom"
	"cpr/internal/pinaccess"
	"cpr/internal/synth"
)

// refMaxGains is the sort-based greedy the pin-group subproblem replaced,
// kept as its reference: sort every interval by Algorithm 1's order, then
// take each one none of whose pins is assigned yet, until every pin is.
// Its early stop counts covered pins against Set.PinIDs, so it is a valid
// reference only when every interval's pins lie in Set.PinIDs.
func refMaxGains(m *assign.Model, gains []float64, order []int, selected []bool, cfg Config) {
	for i := range order {
		order[i] = i
	}
	ivs := m.Set.Intervals
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if gains[ia] != gains[ib] {
			return gains[ia] > gains[ib]
		}
		if !cfg.DisableSameNetTieBreak {
			if la, lb := len(ivs[ia].PinIDs), len(ivs[ib].PinIDs); la != lb {
				return la > lb
			}
		}
		return ia < ib
	})
	for i := range selected {
		selected[i] = false
	}
	assigned := make(map[int]bool, m.NumPins())
	remaining := m.NumPins()
	for _, i := range order {
		if remaining == 0 {
			break
		}
		skip := false
		for _, pid := range ivs[i].PinIDs {
			if assigned[pid] {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		selected[i] = true
		for _, pid := range ivs[i].PinIDs {
			assigned[pid] = true
			remaining--
		}
	}
}

// decodeGreedyCase turns bytes into a maxGains instance. Each 3-byte
// record is one interval: a bitmask over 8 pins (0 means pin 0), a gain
// from five levels (so ties are common) and a track. Pin IDs are spread
// out so the subproblem's dense pin numbering is exercised.
func decodeGreedyCase(t *testing.T, data []byte) (*assign.Model, []float64) {
	var ivs []pinaccess.Interval
	var gains []float64
	for ; len(data) >= 3 && len(ivs) < 64; data = data[3:] {
		mask := data[0]
		if mask == 0 {
			mask = 1
		}
		var pins []int
		for b := 0; b < 8; b++ {
			if mask&(1<<b) != 0 {
				pins = append(pins, 7*b+3)
			}
		}
		x := int(data[2] >> 2)
		ivs = append(ivs, pinaccess.Interval{
			Track:     int(data[2] & 3),
			Span:      geom.Interval{Lo: x, Hi: x + int(data[1]>>3)},
			PinIDs:    pins,
			MinForPin: -1,
		})
		gains = append(gains, float64(int(data[1]%5)-2)/2)
	}
	if len(ivs) == 0 {
		return nil, nil
	}
	return handModel(t, ivs), gains
}

// checkGreedyCase compares the subproblem with the reference on one
// instance under both tie-break settings, reusing each subproblem for a
// second call with the gains reversed. Only the intervals whose gain the
// reversal changed are marked, so the second call re-solves just their
// groups and keeps the rest of the first call's selection. Each
// subproblem is rebuilt in a workspace that last ran a whole solve of a
// larger instance (the case without its first record, then the case)
// or the other tie-break setting's calls, so stale state would show.
func checkGreedyCase(t *testing.T, data []byte) {
	m, base := decodeGreedyCase(t, data)
	if m == nil {
		return
	}
	ws := new(workspace)
	if other, _ := decodeGreedyCase(t, slices.Concat(data[3:], data)); other != nil {
		ws.solve(other, Config{}.withDefaults())
	}
	n := m.NumIntervals()
	got, want, order := make([]bool, n), make([]bool, n), make([]int, n)
	for _, cfg := range []Config{{}, {DisableSameNetTieBreak: true}} {
		sub := ws.newSubproblem(m, cfg)
		gains := slices.Clone(base)
		clear(got)
		for pass := 0; pass < 2; pass++ {
			sub.maxGains(gains, got)
			refMaxGains(m, gains, order, want, cfg)
			if !slices.Equal(got, want) {
				t.Fatalf("tie-break off=%v pass %d: selected %v, reference %v (gains %v)",
					cfg.DisableSameNetTieBreak, pass, got, want, gains)
			}
			slices.Reverse(gains)
			for i := range gains {
				if gains[i] != base[i] {
					sub.mark(i)
				}
			}
		}
	}
}

// TestMaxGainsMatchesReference checks the pin-group subproblem against
// the sort-based greedy on random instances with many equal gains and
// multi-pin intervals.
func TestMaxGainsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 3*(1+rng.Intn(40)))
		rng.Read(data)
		// Mostly sparse masks, so groups of several sizes occur.
		for i := 0; i < len(data); i += 3 {
			if rng.Intn(3) > 0 {
				data[i] &= data[i] >> 1
			}
		}
		checkGreedyCase(t, data)
	}
}

// FuzzMaxGains checks the subproblem against the reference greedy on
// decoded instances.
func FuzzMaxGains(f *testing.F) {
	f.Add([]byte{1, 10, 0, 1, 10, 4})
	f.Add([]byte{3, 12, 1, 2, 12, 5, 6, 12, 9, 4, 7, 2})
	f.Add([]byte{255, 0, 0, 1, 1, 1, 128, 2, 2, 129, 3, 3})
	f.Fuzz(checkGreedyCase)
}

// refPenalize is the multiplier update that recounts every conflict
// set's selected members and visits every set, which the count-based
// penalize replaced, kept as its reference without the gains and marks.
func refPenalize(m *assign.Model, selected []bool, lambda, penalties []float64, k int, cfg Config) int {
	vio := 0
	kAlpha := math.Pow(float64(k), cfg.Alpha)
	for si := range m.Conflicts.Sets {
		cs := &m.Conflicts.Sets[si]
		count := 0
		for _, id := range cs.IDs {
			if selected[id] {
				count++
			}
		}
		violated := count > 1
		if violated {
			vio++
		}
		if !violated && !cfg.FullSubgradient {
			continue
		}
		lm := float64(cs.Common.Len())
		tk := lm / kAlpha
		next := lambda[si] + tk*float64(count-1)
		if next < 0 {
			next = 0
		}
		if delta := next - lambda[si]; delta != 0 {
			lambda[si] = next
			for _, id := range cs.IDs {
				penalties[id] += delta
			}
		}
	}
	return vio
}

// lrTrajectory replays Solve's subgradient loop, with gains and group
// marks kept by penalize as in Solve, and runs the references from
// scratch beside it on every iteration: gains refreshed for every
// interval from the reference penalties, every interval sorted, every
// set recounted. After every maxGains it also compares the subproblem's
// set counts, bitset and violation total with a recount. It fails on the
// first gain, selection, count, multiplier or penalty that differs, bit
// for bit, and returns the iteration count.
func lrTrajectory(t *testing.T, m *assign.Model, cfg Config) int {
	t.Helper()
	cfg = cfg.withDefaults()
	n := m.NumIntervals()
	sub := new(workspace).newSubproblem(m, cfg)
	penalties, refPenalties := make([]float64, n), make([]float64, n)
	lambda, refLambda := make([]float64, len(m.Conflicts.Sets)), make([]float64, len(m.Conflicts.Sets))
	gains := slices.Clone(m.Profits)
	refGains := make([]float64, n)
	got, want, order := make([]bool, n), make([]bool, n), make([]int, n)
	iters := 0
	for k := 1; k <= cfg.MaxIterations; k++ {
		iters = k
		for i := range refGains {
			refGains[i] = m.Profits[i] - refPenalties[i]
		}
		if !slices.Equal(gains, refGains) {
			t.Fatalf("iteration %d: gains differ from a full refresh", k)
		}
		sub.maxGains(gains, got)
		refMaxGains(m, refGains, order, want, cfg)
		if !slices.Equal(got, want) {
			t.Fatalf("iteration %d: selection differs from the reference greedy", k)
		}
		checkSetCounts(t, m, sub, got)
		vio := penalize(m, sub, gains, lambda, penalties, k, cfg)
		if refVio := refPenalize(m, want, refLambda, refPenalties, k, cfg); vio != refVio {
			t.Fatalf("iteration %d: %d violations, reference %d", k, vio, refVio)
		}
		if !slices.Equal(lambda, refLambda) || !slices.Equal(penalties, refPenalties) {
			t.Fatalf("iteration %d: multipliers or penalties differ from the reference update", k)
		}
		if vio == 0 {
			break
		}
	}
	return iters
}

// checkSetCounts recounts every conflict set's selected members and
// compares the subproblem's counts, its bitset of sets with two or more,
// and its violation total.
func checkSetCounts(t *testing.T, m *assign.Model, sub *subproblem, selected []bool) {
	t.Helper()
	over := make([]uint64, len(sub.over))
	violated := 0
	for si := range m.Conflicts.Sets {
		var count int32
		for _, id := range m.Conflicts.Sets[si].IDs {
			if selected[id] {
				count++
			}
		}
		if sub.setCount[si] != count {
			t.Fatalf("set %d: count %d, recount %d", si, sub.setCount[si], count)
		}
		if count >= 2 {
			over[si/64] |= 1 << (si % 64)
			violated++
		}
	}
	if !slices.Equal(sub.over, over) || sub.violated != violated {
		t.Fatalf("violated sets: bitset %x total %d, recount %x total %d", sub.over, sub.violated, over, violated)
	}
}

// TestMaxGainsMatchesReferenceOnPanels compares the selection of every LR
// iteration on every panel of the Table 2 circuits (ecc alone under
// -short) with the reference greedy, under the default config and both
// Algorithm 1 ablations.
func TestMaxGainsMatchesReferenceOnPanels(t *testing.T) {
	circuits := []string{"ecc", "efc", "ctl", "alu", "div"}
	if testing.Short() {
		circuits = circuits[:1]
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"no-tiebreak", Config{DisableSameNetTieBreak: true}},
		{"full-subgradient", Config{FullSubgradient: true}},
	}
	for _, name := range circuits {
		t.Run(name, func(t *testing.T) {
			iters := 0
			for p, m := range table2Models(t, name) {
				for _, c := range cfgs {
					k := lrTrajectory(t, m, c.cfg)
					if want := Solve(m, c.cfg).Iterations; k != want {
						t.Fatalf("panel %d %s: replay ran %d iterations, Solve %d", p, c.name, k, want)
					}
					iters += k
				}
			}
			t.Logf("%s: %d LR iterations compared", name, iters)
		})
	}
}

// TestMaxGainsAllocatesNothing checks that a warmed subproblem call
// allocates nothing, on a panel with one-pin and multi-pin groups.
func TestMaxGainsAllocatesNothing(t *testing.T) {
	m := buildModel(t, randomPanel(t, rand.New(rand.NewSource(3)), 40, 60))
	sub := new(workspace).newSubproblem(m, Config{})
	if !slices.Contains(sub.single, false) || !slices.Contains(sub.single, true) {
		t.Fatalf("panel lacks one-pin or multi-pin groups: %v", sub.single)
	}
	gains := append([]float64(nil), m.Profits...)
	selected := make([]bool, m.NumIntervals())
	sub.maxGains(gains, selected)
	if allocs := testing.AllocsPerRun(100, func() { sub.maxGains(gains, selected) }); allocs != 0 {
		t.Errorf("warmed maxGains allocates %v times per call, want 0", allocs)
	}
}

// table2Models builds the LR model of every non-empty panel of a Table 2
// circuit.
func table2Models(t *testing.T, name string) []*assign.Model {
	t.Helper()
	spec, err := synth.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	var models []*assign.Model
	for p := 0; p < d.NumPanels(); p++ {
		pins := idx.PinsInPanel(p)
		if len(pins) == 0 {
			continue
		}
		set, err := pinaccess.GenerateWithOptions(d, idx, pins, pinaccess.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, assign.BuildWorkers(set, assign.SqrtProfit, 2))
	}
	return models
}
