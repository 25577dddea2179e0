package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cpr/internal/design"
	"cpr/internal/pipeline"
	"cpr/internal/synth"
)

// determinismSpecs are the seeded designs the worker-count determinism
// tests run over. The sizes are chosen so the per-track and per-conflict-
// set parallel branches actually engage (tracks and conflict sets above
// parallel.Threshold) without making the test slow.
var determinismSpecs = []synth.Spec{
	{Name: "det-a", Nets: 220, Width: 220, Height: 80, Seed: 101},
	{Name: "det-b", Nets: 160, Width: 150, Height: 60, Seed: 202, BlockageFraction: 0.04},
	{Name: "det-c", Nets: 120, Width: 180, Height: 40, Seed: 303, NoPowerRails: true},
}

var determinismWorkers = []int{1, 2, 8}

func mustGenerate(t *testing.T, spec synth.Spec) *design.Design {
	t.Helper()
	d, err := synth.Generate(spec)
	if err != nil {
		t.Fatalf("generate %s: %v", spec.Name, err)
	}
	return d
}

// seedFingerprint serializes the selected-interval set of an optimization
// run into a canonical byte string: panel by panel, interval by interval,
// with net, track, and span. Byte equality of fingerprints is the
// determinism contract's "identical selected-interval sets".
func seedFingerprint(seeds []PanelSeed) string {
	var b strings.Builder
	for pi, seed := range seeds {
		fmt.Fprintf(&b, "panel %d\n", pi)
		for i, sel := range seed.Solution.Selected {
			if !sel {
				continue
			}
			iv := &seed.Set.Intervals[i]
			fmt.Fprintf(&b, "  iv %d net %d track %d span [%d,%d] pins %v\n",
				iv.ID, iv.NetID, iv.Track, iv.Span.Lo, iv.Span.Hi, iv.PinIDs)
		}
	}
	return b.String()
}

// reportFingerprint canonicalizes a PinOptReport, dropping the wall-clock
// Elapsed field which legitimately varies run to run.
func reportFingerprint(rep *PinOptReport) PinOptReport {
	canon := *rep
	canon.Elapsed = 0
	return canon
}

// TestOptimizePinAccessDeterministicAcrossWorkers is the core determinism
// guarantee: pin access optimization must produce byte-identical reports
// and selected-interval sets for every worker count.
func TestOptimizePinAccessDeterministicAcrossWorkers(t *testing.T) {
	for _, spec := range determinismSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			var baseRep PinOptReport
			var baseFP string
			for wi, workers := range determinismWorkers {
				d := mustGenerate(t, spec)
				rep, seeds, err := OptimizePinAccess(d, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				canon := reportFingerprint(rep)
				fp := seedFingerprint(seeds)
				if wi == 0 {
					baseRep, baseFP = canon, fp
					continue
				}
				if !reflect.DeepEqual(canon, baseRep) {
					t.Errorf("workers=%d: report differs from workers=%d:\n got %+v\nwant %+v",
						workers, determinismWorkers[0], canon, baseRep)
				}
				if fp != baseFP {
					t.Errorf("workers=%d: selected-interval set differs from workers=%d",
						workers, determinismWorkers[0])
				}
			}
		})
	}
}

// seedHashes hashes each panel seed's interval set and solution, so two
// optimization runs compare by every byte of their artifacts.
func seedHashes(seeds []PanelSeed) []string {
	var out []string
	for _, s := range seeds {
		out = append(out, pipeline.HashIntervalSet(&pipeline.IntervalSet{Set: s.Set}),
			pipeline.HashAssignment(&pipeline.Assignment{Solution: s.Solution}))
	}
	return out
}

// TestOptimizePinAccessConcurrentRunsSharePools runs OptimizePinAccess
// at Workers 1, 2 and 8 at once, each on every determinism design in
// turn, so the panel solves' pooled scratch passes between goroutines,
// designs and panel sizes. Every run must equal a sequential Workers=1
// run byte for byte; under the race detector this also checks that no
// two solves share scratch.
func TestOptimizePinAccessConcurrentRunsSharePools(t *testing.T) {
	designs := make([]*design.Design, len(determinismSpecs))
	wantRep := make([]PinOptReport, len(designs))
	wantSeeds := make([][]string, len(designs))
	for i, spec := range determinismSpecs {
		designs[i] = mustGenerate(t, spec)
		rep, seeds, err := OptimizePinAccess(designs[i], Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantRep[i], wantSeeds[i] = reportFingerprint(rep), seedHashes(seeds)
	}
	var wg sync.WaitGroup
	for g, workers := range determinismWorkers {
		wg.Add(1)
		go func(g, workers int) {
			defer wg.Done()
			for k := range designs {
				i := (g + k) % len(designs)
				rep, seeds, err := OptimizePinAccess(designs[i], Options{Workers: workers})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(reportFingerprint(rep), wantRep[i]) || !slices.Equal(seedHashes(seeds), wantSeeds[i]) {
					t.Errorf("workers=%d %s: concurrent run differs from the sequential one", workers, determinismSpecs[i].Name)
				}
			}
		}(g, workers)
	}
	wg.Wait()
}

// TestRunDeterministicAcrossWorkers runs the full CPR flow (optimization
// plus routing) and asserts the final Metrics are identical for every
// worker count once the wall-clock CPUSeconds field is zeroed.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow determinism sweep skipped in short mode")
	}
	for _, spec := range determinismSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			type canonMetrics struct {
				m       any
				routed  int
				pinOpt  PinOptReport
				hasSeed bool
			}
			var base canonMetrics
			for wi, workers := range determinismWorkers {
				d := mustGenerate(t, spec)
				res, err := Run(d, Options{Mode: ModeCPR, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				m := res.Metrics.ZeroTimes()
				cur := canonMetrics{m: m, routed: res.Metrics.RoutedNets}
				if res.PinOpt != nil {
					cur.pinOpt = reportFingerprint(res.PinOpt)
					cur.hasSeed = true
				}
				if wi == 0 {
					base = cur
					continue
				}
				if !reflect.DeepEqual(cur, base) {
					t.Errorf("workers=%d: run result differs from workers=%d:\n got %+v\nwant %+v",
						workers, determinismWorkers[0], cur, base)
				}
			}
		})
	}
}
