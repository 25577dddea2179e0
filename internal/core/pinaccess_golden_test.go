package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/lagrange"
	"cpr/internal/pinaccess"
	"cpr/internal/pipeline"
	"cpr/internal/synth"
)

// goldenPinAccessHashes pins, across commits, the pin access result of
// two Table 2 circuits: every panel's content key, every pin's assigned
// interval and the objective's float bits. "optimize" is
// OptimizePinAccess with default LR options; the other two run
// lagrange.Solve on the same panel models under the Algorithm 1
// ablations. Like goldenRouteHashes, this catches a change that picks
// different but deterministic intervals, which every same-binary
// determinism suite accepts. Regenerate it only for a change that is
// meant to move assignments or keys, and say so in the change
// description.
var goldenPinAccessHashes = map[string]string{
	"ecc/optimize":         "265f79010724846979f81e9013be27fc018cbdf2f2912af1dd3d98004ecdb390",
	"ecc/no-tiebreak":      "096edb1b5511b75a6ba0a145b9ca35bb1e2afad700ae342033d047fc3ccd28b5",
	"ecc/full-subgradient": "13b36a328fe5cadb9ca271b02e715e00fdff9e55d7dd3039fc4f5266b562dcbb",
	"efc/optimize":         "749478290d1df07759c8614c76257bda67c9cdfa6238de9afd8c033e5b878d74",
	"efc/no-tiebreak":      "0606547cc1cff60f40e96f3e43115ca44d4b08b92ff1e8de406a0984a4af904f",
	"efc/full-subgradient": "4d2f9af29e50cd60788c3bd604ad8b3bb1663db7cd3d35e0466f2484232ec831",
}

// writeAssignment hashes every pin's interval (track, span, covered pins)
// in ascending pin order, then the objective's bits.
func writeAssignment(h hash.Hash, set *pinaccess.Set, sol *assign.Solution) {
	for _, pid := range set.PinIDs {
		iv := &set.Intervals[sol.ByPin[pid]]
		fmt.Fprintf(h, "pin %d track %d span %d %d covers %v\n", pid, iv.Track, iv.Span.Lo, iv.Span.Hi, iv.PinIDs)
	}
	fmt.Fprintf(h, "objective %x\n", math.Float64bits(sol.Objective))
}

// TestPinAccessGolden pins pin access assignments and panel keys of ecc
// and efc across commits.
func TestPinAccessGolden(t *testing.T) {
	variants := []struct {
		name string
		cfg  lagrange.Config
	}{
		{"no-tiebreak", lagrange.Config{DisableSameNetTieBreak: true}},
		{"full-subgradient", lagrange.Config{FullSubgradient: true}},
	}
	check := func(t *testing.T, name string, h hash.Hash) {
		t.Helper()
		if got, want := hex.EncodeToString(h.Sum(nil)), goldenPinAccessHashes[name]; got != want {
			t.Errorf("%s: pin access moved: got %s, want %s", name, got, want)
		}
	}
	for _, circuit := range []string{"ecc", "efc"} {
		t.Run(circuit, func(t *testing.T) {
			spec, err := synth.SpecByName(circuit)
			if err != nil {
				t.Fatal(err)
			}
			d := mustGenerate(t, spec)
			opts := Options{Optimizer: OptLR, Workers: 2}
			rep, seeds, err := OptimizePinAccess(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			idx := d.BuildTrackIndex()
			cfg := solverConfig(opts)
			h := sha256.New()
			for i, pr := range rep.Panels {
				fmt.Fprintf(h, "panel %d key %s\n", pr.Panel, pipeline.PanelKeyFor(d, idx, pr.Panel, cfg))
				writeAssignment(h, seeds[i].Set, seeds[i].Solution)
			}
			fmt.Fprintf(h, "total %x\n", math.Float64bits(rep.Objective))
			check(t, circuit+"/optimize", h)

			for _, v := range variants {
				h := sha256.New()
				for i, pr := range rep.Panels {
					m := pipeline.ConflictStage(&pipeline.IntervalSet{Set: seeds[i].Set}, cfg, 2).Model
					res := lagrange.Solve(m, v.cfg)
					if err := m.CheckLegal(res.Solution); err != nil {
						t.Fatalf("%s panel %d: %v", v.name, pr.Panel, err)
					}
					fmt.Fprintf(h, "panel %d iterations %d\n", pr.Panel, res.Iterations)
					writeAssignment(h, seeds[i].Set, res.Solution)
				}
				check(t, circuit+"/"+v.name, h)
			}
		})
	}
}

// goldenPinAccessArtifacts pins, across commits, the stage-1 and stage-2
// artifacts of every panel of ecc and efc: the canonical interval-set
// and conflict-model encodings (interval numbering, covered pins,
// minimum-interval marks, conflict sets and their member order, profits)
// plus the per-pin lists S_j and the per-interval conflict memberships,
// which the encodings leave out. A rewrite of interval generation or of
// the conflict sweep must keep every byte; regenerate this only for a
// change meant to move artifacts, and say so in the change description.
var goldenPinAccessArtifacts = map[string]string{
	"ecc": "c6526c32bb8a5c89bb70495c476a33c8534a63b966e4165d8dbbbf139e9518f0",
	"efc": "e383354cd4b3ce9db502dfddbb54c523f8cd0043eb313771e2976a924470b349",
}

// TestPinAccessArtifactsGolden hashes every panel's interval set, S_j
// lists, conflict model and membership lists at one and two workers.
func TestPinAccessArtifactsGolden(t *testing.T) {
	for _, circuit := range []string{"ecc", "efc"} {
		t.Run(circuit, func(t *testing.T) {
			spec, err := synth.SpecByName(circuit)
			if err != nil {
				t.Fatal(err)
			}
			d := mustGenerate(t, spec)
			idx := d.BuildTrackIndex()
			for _, workers := range []int{1, 2} {
				h := sha256.New()
				for p := 0; p < d.NumPanels(); p++ {
					pins := idx.PinsInPanel(p)
					if len(pins) == 0 {
						continue
					}
					ivs, err := pipeline.GenerateStage(d, idx, pins, workers)
					if err != nil {
						t.Fatal(err)
					}
					cm := pipeline.ConflictStage(ivs, pipeline.SolverConfig{}, workers)
					fmt.Fprintf(h, "panel %d intervals %s conflicts %s\n", p,
						pipeline.HashIntervalSet(ivs), pipeline.HashConflictModel(cm))
					byPin := make([]int, 0, len(ivs.Set.ByPin))
					for pid := range ivs.Set.ByPin {
						byPin = append(byPin, pid)
					}
					sort.Ints(byPin)
					for _, pid := range byPin {
						fmt.Fprintf(h, "bypin %d %v\n", pid, ivs.Set.ByPin[pid])
					}
					for i, sets := range cm.Model.Conflicts.MemberOf {
						fmt.Fprintf(h, "memberof %d %v\n", i, sets)
					}
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), goldenPinAccessArtifacts[circuit]; got != want {
					t.Errorf("workers=%d: pin access artifacts moved: got %s, want %s", workers, got, want)
				}
			}
		})
	}
}
