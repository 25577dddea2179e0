package lagrange

import (
	"maps"
	"math/rand"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/pinaccess"
)

// refPostImprove is the member-scanning post-improvement pass that the
// count-based one replaced, kept verbatim as its reference.
func refPostImprove(m *assign.Model, sol *assign.Solution) int {
	selected := make([]bool, m.NumIntervals())
	users := make(map[int]int) // interval -> #pins assigned to it
	for _, iv := range sol.ByPin {
		selected[iv] = true
		users[iv]++
	}
	improved := 0
	for pass := 0; pass < 10; pass++ {
		changed := false
		for _, pid := range m.Set.PinIDs {
			cur := sol.ByPin[pid]
			if users[cur] != 1 {
				continue // shared interval: the pin cannot leave legally
			}
			best, bestProfit := -1, m.Profits[cur]
			for _, cand := range m.Set.ByPin[pid] {
				if cand == cur || selected[cand] {
					continue
				}
				if len(m.Set.Intervals[cand].PinIDs) != 1 {
					continue // would double-cover another pin's (1b) row
				}
				if m.Profits[cand] <= bestProfit {
					continue
				}
				free := true
				for _, si := range m.Conflicts.MemberOf[cand] {
					for _, other := range m.Conflicts.Sets[si].IDs {
						if other != cur && other != cand && selected[other] {
							free = false
							break
						}
					}
					if !free {
						break
					}
				}
				if free {
					best, bestProfit = cand, m.Profits[cand]
				}
			}
			if best >= 0 {
				selected[cur] = false
				users[cur] = 0
				selected[best] = true
				users[best] = 1
				sol.ByPin[pid] = best
				improved++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return improved
}

// checkPostImprove starts both passes from the LR solution Solve hands
// to post-improvement under cfg and requires equal assignments and
// upgrade counts. It returns the upgrade count.
func checkPostImprove(t *testing.T, m *assign.Model, cfg Config) int {
	t.Helper()
	cfg.SkipPostImprove = true
	start := Solve(m, cfg).Solution.ByPin
	got, want := maps.Clone(start), maps.Clone(start)
	n := new(workspace).postImprove(m, got)
	if wantN := refPostImprove(m, &assign.Solution{ByPin: want}); n != wantN || !maps.Equal(got, want) {
		t.Fatalf("%+v: %d upgrades to %v, reference %d to %v", cfg, n, got, wantN, want)
	}
	return n
}

var postImproveConfigs = []Config{{}, {DisableSameNetTieBreak: true}, {FullSubgradient: true}}

// TestPostImproveMatchesReferenceOnPanels compares the count-based pass
// with the member scan on every panel of the Table 2 circuits (ecc alone
// under -short), under the default config and both Algorithm 1
// ablations.
func TestPostImproveMatchesReferenceOnPanels(t *testing.T) {
	circuits := []string{"ecc", "efc", "ctl", "alu", "div"}
	if testing.Short() {
		circuits = circuits[:1]
	}
	for _, name := range circuits {
		t.Run(name, func(t *testing.T) {
			upgrades := 0
			for _, m := range table2Models(t, name) {
				for _, cfg := range postImproveConfigs {
					upgrades += checkPostImprove(t, m, cfg)
				}
			}
			if upgrades == 0 {
				t.Fatal("no panel had an upgrade to compare")
			}
			t.Logf("%s: %d upgrades compared", name, upgrades)
		})
	}
}

// TestPostImproveMatchesReferenceOnRandomPanels compares the two passes
// on random panels, also from the unrefined selections SkipRefinement
// leaves, and on sets generated from pin lists that repeat pins.
func TestPostImproveMatchesReferenceOnRandomPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		d := randomPanel(t, rng, 12+rng.Intn(24), 6+rng.Intn(30))
		m := buildModel(t, d)
		for _, cfg := range postImproveConfigs {
			checkPostImprove(t, m, cfg)
			cfg.SkipRefinement, cfg.MaxIterations = true, 1+rng.Intn(4)
			checkPostImprove(t, m, cfg)
		}
		// Every third pin requested twice: Set.PinIDs keeps the repeats,
		// and the pass visits such a pin twice per round.
		var pins []int
		for p := range d.Pins {
			pins = append(pins, p)
			if p%3 == 0 {
				pins = append(pins, p)
			}
		}
		set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.PinIDs) != len(pins) {
			t.Fatalf("trial %d: set lists %d pins, want the %d requested", trial, len(set.PinIDs), len(pins))
		}
		for _, cfg := range postImproveConfigs {
			checkPostImprove(t, assign.Build(set, assign.SqrtProfit), cfg)
		}
	}
}
