package router_test

import (
	"fmt"
	"testing"

	"cpr/internal/core"
	"cpr/internal/grid"
	"cpr/internal/router"
	"cpr/internal/synth"
)

// TestRoutabilityIndependentOfTieOrder routes designs shaped like the
// flow benchmark's (120 grid cells per net, 16 panels of height) in the
// CPR flow under several orders the search queue could pop equal keys
// in: arrival (production), reverse arrival and two seeded shuffles.
// Routability must not rest on the order: the routed share may spread by
// at most one point across orders, and the line-end DRC stage may drop
// at most one net per run. Before V2 vias were priced by their M2
// landing as well, these designs spread by 2.5–5.0 points across the
// orders, and the DRC stage dropped 3–22 nets per run.
func TestRoutabilityIndependentOfTieOrder(t *testing.T) {
	sizes := []int{200, 300, 400}
	if testing.Short() {
		sizes = sizes[:1]
	}
	orders := []router.TieOrder{router.TieFIFO, router.TieLIFO, router.TieShuffle(1), router.TieShuffle(2)}
	for _, n := range sizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			d, err := synth.Generate(synth.Spec{Name: fmt.Sprintf("tie%d", n), Nets: n, Width: n * 3 / 4, Height: 160, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, seeds, err := core.OptimizePinAccess(d, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := 100.0, 0.0
			for _, o := range orders {
				r := router.New(d, grid.New(d), router.Config{})
				for _, s := range seeds {
					r.SeedAssignment(s.Set, s.Solution)
				}
				router.SetTieOrder(r, o)
				res := r.Run()
				pct := 100 * float64(res.RoutedNets) / float64(len(d.Nets))
				lo, hi = min(lo, pct), max(hi, pct)
				t.Logf("%-7s routed %.2f%%, unrouted congestion %d drc %d, pops %d",
					o.Name, pct, res.CongestionUnrouted, res.DRCUnrouted, res.Search.Pops)
				if res.DRCUnrouted > 1 {
					t.Errorf("%s order: the DRC stage dropped %d nets, want at most 1", o.Name, res.DRCUnrouted)
				}
			}
			if hi-lo > 1 {
				t.Errorf("routed share spreads %.2f points across tie orders (%.2f–%.2f%%), want at most 1", hi-lo, lo, hi)
			}
		})
	}
}
