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
// the five pinopt-table2 circuits: every panel's content key, every
// pin's assigned interval and the objective's float bits. "optimize" is
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
	"ctl/optimize":         "c8bba7af48a6a661e7c59cfa5b663546d840caede0cc648be2a035bc0b31fb7a",
	"ctl/no-tiebreak":      "daa3dad6f8cc9939829c4ad5a2006b1072c5855e8712f49d54d75837b8e41753",
	"ctl/full-subgradient": "b3eee751e81974d29b5a1f659d3b932e0065b62ac394a7cb7bf3dc12c44f69ee",
	"alu/optimize":         "5fc282f3fbccbf7a9317920e3783d542cfe89ba9059612d05b1aa746f844758f",
	"alu/no-tiebreak":      "84148e998af3d1a0889c48d9529911ac8d8207f8c51cfe2ed2c9c4db954a9828",
	"alu/full-subgradient": "b0e272bbe8c6702f0b9800b61df6d49b97b63d40720276833c6c522cfecf01d9",
	"div/optimize":         "bd58dd12ec8d2344f73e8d0212cc56cd1ba5b9a9436833ac703c11b948cfe8d0",
	"div/no-tiebreak":      "ea5f3ee74768161cac98802db50724ab706eaaf191fb6e1024ee867076689420",
	"div/full-subgradient": "caf60222fc738f9ede60fcab20ea6c3fbec541883e827773f298b6843743470b",
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

// TestPinAccessGolden pins pin access assignments, LR iteration counts
// and panel keys of the pinopt-table2 circuits across commits.
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
	for _, circuit := range []string{"ecc", "efc", "ctl", "alu", "div"} {
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
// artifacts of every panel of the five pinopt-table2 circuits (ecc, efc,
// ctl, alu and div): the canonical interval-set and conflict-model
// encodings (interval numbering, covered pins, minimum-interval marks,
// conflict sets and their member order, profits) plus the per-pin lists
// S_j and the per-interval conflict memberships, which the encodings
// leave out. A rewrite of interval generation or of
// the conflict sweep must keep every byte; regenerate this only for a
// change meant to move artifacts, and say so in the change description.
var goldenPinAccessArtifacts = map[string]string{
	"ecc": "c6526c32bb8a5c89bb70495c476a33c8534a63b966e4165d8dbbbf139e9518f0",
	"efc": "e383354cd4b3ce9db502dfddbb54c523f8cd0043eb313771e2976a924470b349",
	"ctl": "73d6a0f95cfdbfd4ffbf70132f70f1cec3c081fb375378fbdca12b7b6d848d93",
	"alu": "9eb93f71b37252f9fc779303598e5c3638d8f78a34869278fd5c1eaee2ce5c00",
	"div": "3e7c2a6b1086657deec24fab0bef1f25bf05711a6d7527dbe1e35f861ff0e1f1",
}

// TestPinAccessArtifactsGolden hashes every panel's interval set, S_j
// lists, conflict model and membership lists at one and two workers.
func TestPinAccessArtifactsGolden(t *testing.T) {
	for _, circuit := range []string{"ecc", "efc", "ctl", "alu", "div"} {
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
