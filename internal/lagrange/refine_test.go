package lagrange

import (
	"maps"
	"math/rand"
	"sort"
	"testing"

	"cpr/internal/assign"
)

// refRefine is refine before the workspace: per-pass selection, a map
// of each interval's users built from the sorted pins, and demotions
// driven by those lists. It is kept verbatim as refine's reference.
func refRefine(m *assign.Model, sol *assign.Solution) int {
	shrunk := 0
	set := m.Set
	for pass := 0; pass <= m.NumPins()+1; pass++ {
		selected := make([]bool, m.NumIntervals())
		users := make(map[int][]int)
		pids := make([]int, 0, len(sol.ByPin))
		for pid := range sol.ByPin {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			iv := sol.ByPin[pid]
			selected[iv] = true
			users[iv] = append(users[iv], pid)
		}
		changed := false
		for si := range m.Conflicts.Sets {
			cs := &m.Conflicts.Sets[si]
			var sel []int
			for _, id := range cs.IDs {
				if selected[id] {
					sel = append(sel, id)
				}
			}
			if len(sel) < 2 {
				continue
			}
			keep := sel[0]
			for _, id := range sel[1:] {
				if m.Profits[id] > m.Profits[keep] {
					keep = id
				}
			}
			any := false
			for _, id := range sel {
				if id == keep || set.Intervals[id].MinForPin >= 0 {
					continue
				}
				shrunk += refDemote(m, sol, id, users[id])
				selected[id] = false
				any = true
				changed = true
			}
			if !any && set.Intervals[keep].MinForPin < 0 {
				shrunk += refDemote(m, sol, keep, users[keep])
				selected[keep] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return shrunk
}

// refDemote is demote before the workspace, kept as refRefine's.
func refDemote(m *assign.Model, sol *assign.Solution, id int, pins []int) int {
	track := m.Set.Intervals[id].Track
	n := 0
	for _, pid := range pins {
		if sol.ByPin[pid] != id {
			continue
		}
		min := m.Set.MinInterval(pid, track)
		if min < 0 {
			min = m.Set.AnyMinInterval(pid)
		}
		if min >= 0 && min != id {
			sol.ByPin[pid] = min
			n++
		}
	}
	return n
}

// TestRefineMatchesReference runs refine and refRefine from random
// assignments, where many conflict sets hold several selected intervals,
// on random panels, through one workspace reused across trials. The
// demotion counts and the final assignments must be equal.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ws := new(workspace)
	demoted := 0
	for trial := 0; trial < 400; trial++ {
		m := buildModel(t, randomPanel(t, rng, 10+rng.Intn(30), 4+rng.Intn(16)))
		byPin := map[int]int{}
		for _, pid := range m.Set.PinIDs {
			ivs := m.Set.ByPin[pid]
			byPin[pid] = ivs[rng.Intn(len(ivs))]
		}
		got, want := maps.Clone(byPin), maps.Clone(byPin)
		n := ws.refine(m, got)
		if wantN := refRefine(m, &assign.Solution{ByPin: want}); n != wantN || !maps.Equal(got, want) {
			t.Fatalf("trial %d: %d demotions to %v, reference %d to %v", trial, n, got, wantN, want)
		}
		demoted += n
	}
	if demoted == 0 {
		t.Fatal("no trial demoted a pin")
	}
}
