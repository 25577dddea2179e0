package lagrange

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/conflict"
	"cpr/internal/geom"
	"cpr/internal/pinaccess"
)

// handModel builds an assignment model directly from interval specs, so
// the LR sub-routines can be tested without a full design.
func handModel(t *testing.T, ivs []pinaccess.Interval) *assign.Model {
	t.Helper()
	set := &pinaccess.Set{Intervals: ivs, ByPin: map[int][]int{}}
	pinSeen := map[int]bool{}
	for i := range ivs {
		ivs[i].ID = i
		for _, pid := range ivs[i].PinIDs {
			set.ByPin[pid] = append(set.ByPin[pid], i)
			if !pinSeen[pid] {
				pinSeen[pid] = true
				set.PinIDs = append(set.PinIDs, pid)
			}
		}
	}
	return assign.Build(set, assign.SqrtProfit)
}

// selectOnly flips selected to want through sub, interval by interval,
// so the conflict-set counts penalize reads describe it.
func selectOnly(sub *subproblem, selected, want []bool) {
	for i, on := range want {
		if selected[i] != on {
			sub.flip(int32(i), on, selected)
		}
	}
}

func TestMaxGainsPicksHighestGain(t *testing.T) {
	// One pin, two intervals: the longer must win at zero penalties.
	m := handModel(t, []pinaccess.Interval{
		{NetID: 0, Track: 0, Span: geom.Interval{Lo: 0, Hi: 9}, PinIDs: []int{0}, MinForPin: -1},
		{NetID: 0, Track: 0, Span: geom.Interval{Lo: 4, Hi: 5}, PinIDs: []int{0}, MinForPin: 0},
	})
	gains := append([]float64(nil), m.Profits...)
	selected := make([]bool, 2)
	new(workspace).newSubproblem(m, Config{}.withDefaults()).maxGains(gains, selected)
	if !selected[0] || selected[1] {
		t.Errorf("selected = %v, want the long interval only", selected)
	}
}

func TestMaxGainsSameNetTieBreak(t *testing.T) {
	// Equal gains: the interval covering two pins must win the tie.
	m := handModel(t, []pinaccess.Interval{
		{NetID: 0, Track: 0, Span: geom.Interval{Lo: 0, Hi: 3}, PinIDs: []int{0}, MinForPin: -1},
		{NetID: 0, Track: 1, Span: geom.Interval{Lo: 0, Hi: 0}, PinIDs: []int{0, 1}, MinForPin: -1},
		{NetID: 0, Track: 2, Span: geom.Interval{Lo: 0, Hi: 0}, PinIDs: []int{1}, MinForPin: 1},
	})
	// Force equal gains manually.
	gains := []float64{1, 1, 0.5}
	selected := make([]bool, 3)
	new(workspace).newSubproblem(m, Config{}.withDefaults()).maxGains(gains, selected)
	if !selected[1] {
		t.Errorf("selected = %v, want the shared interval via tie-break", selected)
	}
	if selected[0] || selected[2] {
		t.Errorf("selected = %v: shared interval already covers both pins", selected)
	}
}

func TestMaxGainsSkipsAssignedPins(t *testing.T) {
	// Interval 0 covers pins {0,1}; interval 1 covers {1}. Once 0 is
	// taken, 1 must be skipped.
	m := handModel(t, []pinaccess.Interval{
		{NetID: 0, Track: 0, Span: geom.Interval{Lo: 0, Hi: 9}, PinIDs: []int{0, 1}, MinForPin: -1},
		{NetID: 0, Track: 1, Span: geom.Interval{Lo: 0, Hi: 8}, PinIDs: []int{1}, MinForPin: -1},
	})
	gains := append([]float64(nil), m.Profits...)
	selected := make([]bool, 2)
	new(workspace).newSubproblem(m, Config{}.withDefaults()).maxGains(gains, selected)
	if !selected[0] || selected[1] {
		t.Errorf("selected = %v", selected)
	}
}

func TestPenalizeRaisesLambdaOnViolation(t *testing.T) {
	m := handModel(t, []pinaccess.Interval{
		{NetID: 0, Track: 0, Span: geom.Interval{Lo: 0, Hi: 5}, PinIDs: []int{0}, MinForPin: -1},
		{NetID: 1, Track: 0, Span: geom.Interval{Lo: 3, Hi: 8}, PinIDs: []int{1}, MinForPin: -1},
	})
	if len(m.Conflicts.Sets) != 1 {
		t.Fatalf("want 1 conflict set, got %d", len(m.Conflicts.Sets))
	}
	lambda := make([]float64, 1)
	penalties := make([]float64, 2)
	gains := append([]float64(nil), m.Profits...)
	sub := new(workspace).newSubproblem(m, Config{}.withDefaults())
	selected := make([]bool, 2)
	selectOnly(sub, selected, []bool{true, true})
	vio := penalize(m, sub, gains, lambda, penalties, 1, Config{}.withDefaults())
	if vio != 1 {
		t.Errorf("vio = %d, want 1", vio)
	}
	// Step: t_1 = L_m / 1^alpha = len([3,5]) = 3; subgradient = 1.
	if math.Abs(lambda[0]-3) > 1e-9 {
		t.Errorf("lambda = %g, want 3", lambda[0])
	}
	if penalties[0] != lambda[0] || penalties[1] != lambda[0] {
		t.Errorf("penalties = %v, want both equal to lambda", penalties)
	}
	for i := range gains {
		if want := m.Profits[i] - penalties[i]; gains[i] != want {
			t.Errorf("gains[%d] = %g, want profit minus penalty %g", i, gains[i], want)
		}
	}
	// Second iteration: step shrinks by k^alpha.
	vio = penalize(m, sub, gains, lambda, penalties, 2, Config{}.withDefaults())
	if vio != 1 {
		t.Errorf("vio = %d, want 1", vio)
	}
	wantStep := 3 / math.Pow(2, 0.95)
	if math.Abs(lambda[0]-(3+wantStep)) > 1e-9 {
		t.Errorf("lambda = %g, want %g", lambda[0], 3+wantStep)
	}
}

func TestPenalizeViolationOnlyLeavesSatisfiedSetsAlone(t *testing.T) {
	m := handModel(t, []pinaccess.Interval{
		{NetID: 0, Track: 0, Span: geom.Interval{Lo: 0, Hi: 5}, PinIDs: []int{0}, MinForPin: -1},
		{NetID: 1, Track: 0, Span: geom.Interval{Lo: 3, Hi: 8}, PinIDs: []int{1}, MinForPin: -1},
	})
	lambda := []float64{5}
	penalties := []float64{5, 5}
	gains := []float64{m.Profits[0] - 5, m.Profits[1] - 5}
	sub := new(workspace).newSubproblem(m, Config{}.withDefaults())
	selected := make([]bool, 2)
	selectOnly(sub, selected, []bool{true, false}) // satisfied
	if vio := penalize(m, sub, gains, lambda, penalties, 3, Config{}.withDefaults()); vio != 0 {
		t.Errorf("vio = %d, want 0", vio)
	}
	if lambda[0] != 5 {
		t.Errorf("violation-only update changed lambda of a satisfied set: %g", lambda[0])
	}
	// Full subgradient decreases it (subgradient = count-1 = 0 here when
	// one selected: 1-1=0 -> unchanged; deselect both for -1).
	selectOnly(sub, selected, []bool{false, false})
	cfg := Config{FullSubgradient: true}.withDefaults()
	penalize(m, sub, gains, lambda, penalties, 3, cfg)
	if lambda[0] >= 5 {
		t.Errorf("full subgradient should decrease lambda, got %g", lambda[0])
	}
}

// TestPostImprovePreservesLegality runs LR with and without the
// improvement pass over random panels and checks the pass never breaks
// legality while never lowering the objective.
func TestPostImprovePreservesLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		d := randomPanel(t, rng, 16+rng.Intn(16), 4+rng.Intn(16))
		m := buildModel(t, d)
		base := Solve(m, Config{SkipPostImprove: true})
		improved := Solve(m, Config{})
		if err := m.CheckLegal(improved.Solution); err != nil {
			t.Fatalf("trial %d: post-improve broke legality: %v", trial, err)
		}
		if improved.Solution.Objective < base.Solution.Objective-1e-9 {
			t.Fatalf("trial %d: post-improve lowered objective %g -> %g",
				trial, base.Solution.Objective, improved.Solution.Objective)
		}
	}
}

// TestSolveReleasesModel: a workspace back in the pool holds nothing of
// the model it solved. GC is off so the pool keeps the workspace.
func TestSolveReleasesModel(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := buildModel(t, randomPanel(t, rand.New(rand.NewSource(3)), 24, 12))
	Solve(m, Config{})
	if ws := workspacePool.Get().(*workspace); ws.sub.memberOf != nil {
		t.Error("the pooled workspace still holds the model's conflict membership")
	}
}

func TestRefineTerminatesOnAdversarialSelection(t *testing.T) {
	// Start from the all-max selection (every conflict violated) and
	// check refine reaches a legal state.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		d := randomPanel(t, rng, 24, 12)
		m := buildModel(t, d)
		// Assign every pin its largest interval.
		byPin := map[int]int{}
		for _, pid := range m.Set.PinIDs {
			best, bestLen := -1, -1
			for _, iv := range m.Set.ByPin[pid] {
				if l := m.Set.Intervals[iv].Span.Len(); l > bestLen {
					best, bestLen = iv, l
				}
			}
			byPin[pid] = best
		}
		sol := m.FromAssignment(byPin)
		new(workspace).refine(m, sol.ByPin)
		final := m.FromAssignment(sol.ByPin)
		if final.Violations != 0 {
			t.Fatalf("trial %d: refine left %d violations", trial, final.Violations)
		}
	}
}

// TestConflictMatrixConsistency guards the assumption refine relies on:
// no conflict set contains two minimum intervals.
func TestConflictMatrixConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		d := randomPanel(t, rng, 30, 14)
		m := buildModel(t, d)
		mins := func(ids []int) int {
			n := 0
			for _, id := range ids {
				if m.Set.Intervals[id].MinForPin >= 0 {
					n++
				}
			}
			return n
		}
		for _, cs := range m.Conflicts.Sets {
			if mins(cs.IDs) > 1 {
				t.Fatalf("trial %d: conflict set with two minimum intervals", trial)
			}
		}
		_ = conflict.Matrix{}
	}
}
