package lagrange

import (
	"fmt"
	"math/rand"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/ilp"
	"cpr/internal/pinaccess"
	"cpr/internal/tech"
)

// buildModel generates intervals for all pins of d and builds the model.
func buildModel(t testing.TB, d *design.Design) *assign.Model {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	pins := make([]int, len(d.Pins))
	for i := range pins {
		pins[i] = i
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
	if err != nil {
		t.Fatal(err)
	}
	return assign.Build(set, assign.SqrtProfit)
}

// contestedDesign mirrors the assign package test fixture: net A's long
// intervals cross diff-net pin b1 on the shared track.
func contestedDesign(t testing.TB) *design.Design {
	d := design.New("contested", 20, 10, tech.Default())
	na := d.AddNet("a")
	nb := d.AddNet("b")
	d.AddPin("a1", na, geom.MakeRect(2, 3, 2, 3))
	d.AddPin("a2", na, geom.MakeRect(15, 3, 15, 3))
	d.AddPin("b1", nb, geom.MakeRect(8, 3, 8, 3))
	d.AddPin("b2", nb, geom.MakeRect(8, 6, 8, 6))
	return d
}

// randomPanel builds a random single-panel design with nPins 1x1 pins on
// distinct grid cells, grouped into nets of up to three pins.
func randomPanel(t testing.TB, rng *rand.Rand, width, nPins int) *design.Design {
	t.Helper()
	d := design.New("rand", width, 10, tech.Default())
	type cell struct{ x, y int }
	var cells []cell
	for x := 0; x < width; x++ {
		for y := 0; y < 10; y++ {
			cells = append(cells, cell{x, y})
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	if nPins > len(cells) {
		nPins = len(cells)
	}
	placed := 0
	for placed < nPins {
		k := 1 + rng.Intn(3)
		if placed+k > nPins {
			k = nPins - placed
		}
		net := d.AddNet(fmt.Sprintf("n%d", len(d.Nets)))
		for j := 0; j < k; j++ {
			c := cells[placed]
			d.AddPin(fmt.Sprintf("p%d", placed), net, geom.MakeRect(c.x, c.y, c.x, c.y))
			placed++
		}
	}
	return d
}

func TestLRLegalOnContestedDesign(t *testing.T) {
	m := buildModel(t, contestedDesign(t))
	res := Solve(m, Config{})
	if res.Solution.Violations != 0 {
		t.Fatalf("LR solution has %d violations", res.Solution.Violations)
	}
	if err := m.CheckLegal(res.Solution); err != nil {
		t.Fatalf("LR solution illegal: %v", err)
	}
	min := m.MinimumSolution()
	if res.Solution.Objective < min.Objective-1e-9 {
		t.Errorf("LR objective %g below minimum-interval objective %g",
			res.Solution.Objective, min.Objective)
	}
}

func TestLRNeverExceedsILP(t *testing.T) {
	m := buildModel(t, contestedDesign(t))
	lrRes := Solve(m, Config{})
	ilpSol, _, err := m.SolveILP(ilp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if lrRes.Solution.Objective > ilpSol.Objective+1e-9 {
		t.Errorf("LR objective %g exceeds ILP optimum %g",
			lrRes.Solution.Objective, ilpSol.Objective)
	}
	// Paper Fig 6(b): LR should land close to the optimum.
	if lrRes.Solution.Objective < 0.75*ilpSol.Objective {
		t.Errorf("LR objective %g too far below ILP optimum %g",
			lrRes.Solution.Objective, ilpSol.Objective)
	}
}

func TestLRConvergesWithoutConflicts(t *testing.T) {
	// Pins far apart on distinct tracks: first greedy pass is legal.
	d := design.New("free", 30, 10, tech.Default())
	for i := 0; i < 3; i++ {
		n := d.AddNet(fmt.Sprintf("n%d", i))
		d.AddPin(fmt.Sprintf("p%d", i), n, geom.MakeRect(10*i+2, 3*i, 10*i+2, 3*i))
	}
	m := buildModel(t, d)
	res := Solve(m, Config{})
	if !res.Converged {
		t.Error("LR should converge immediately on a conflict-free instance")
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
	if res.ShrunkPins != 0 {
		t.Errorf("refinement demoted %d pins on a conflict-free instance", res.ShrunkPins)
	}
}

func TestLRPrefersSharedInterval(t *testing.T) {
	// Two same-net pins on one track: the shared covering interval wins
	// thanks to multiplicity in the profit and the same-net tie-break.
	d := design.New("pair", 12, 10, tech.Default())
	nc := d.AddNet("c")
	c1 := d.AddPin("c1", nc, geom.MakeRect(2, 3, 2, 3))
	c2 := d.AddPin("c2", nc, geom.MakeRect(8, 3, 8, 3))
	m := buildModel(t, d)
	res := Solve(m, Config{})
	if res.Solution.ByPin[c1] != res.Solution.ByPin[c2] {
		t.Errorf("pins got intervals %d and %d, want the shared intra-panel interval",
			res.Solution.ByPin[c1], res.Solution.ByPin[c2])
	}
}

func TestSkipRefinementMayLeaveViolations(t *testing.T) {
	// With one iteration and no refinement, the greedy pass picks maximal
	// overlapping intervals and violations survive.
	m := buildModel(t, contestedDesign(t))
	res := Solve(m, Config{MaxIterations: 1, SkipRefinement: true})
	if res.Converged {
		t.Skip("instance converged in one iteration; nothing to assert")
	}
	if res.Solution.Violations == 0 {
		t.Error("expected surviving violations with SkipRefinement and UB=1")
	}
}

func TestRefinementRepairsSingleIteration(t *testing.T) {
	m := buildModel(t, contestedDesign(t))
	res := Solve(m, Config{MaxIterations: 1})
	if res.Solution.Violations != 0 {
		t.Fatalf("refinement left %d violations", res.Solution.Violations)
	}
	if err := m.CheckLegal(res.Solution); err != nil {
		t.Fatalf("refined solution illegal: %v", err)
	}
}

func TestFullSubgradientAlsoConverges(t *testing.T) {
	m := buildModel(t, contestedDesign(t))
	res := Solve(m, Config{FullSubgradient: true})
	if res.Solution.Violations != 0 {
		t.Fatalf("full-subgradient run left %d violations", res.Solution.Violations)
	}
	if err := m.CheckLegal(res.Solution); err != nil {
		t.Fatal(err)
	}
}

func TestTieBreakAblationStillLegal(t *testing.T) {
	m := buildModel(t, contestedDesign(t))
	res := Solve(m, Config{DisableSameNetTieBreak: true})
	if err := m.CheckLegal(res.Solution); err != nil {
		t.Fatal(err)
	}
}

// TestLRLegalOnRandomPanels is the workhorse property test: across many
// random congested panels, LR must always emit a legal assignment, bounded
// by the minimum solution from below.
func TestLRLegalOnRandomPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		d := randomPanel(t, rng, 16+rng.Intn(20), 4+rng.Intn(20))
		m := buildModel(t, d)
		res := Solve(m, Config{})
		if err := m.CheckLegal(res.Solution); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		min := m.MinimumSolution()
		if res.Solution.Objective < min.Objective-1e-9 {
			t.Fatalf("trial %d: LR %g below minimum %g",
				trial, res.Solution.Objective, min.Objective)
		}
	}
}

// TestLRCloseToILPOnRandomPanels quantifies Fig 6(b): LR objective within
// a modest gap of the exact optimum on small random panels.
func TestLRCloseToILPOnRandomPanels(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP cross-check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(23))
	totalLR, totalILP := 0.0, 0.0
	for trial := 0; trial < 10; trial++ {
		d := randomPanel(t, rng, 14+rng.Intn(8), 4+rng.Intn(6))
		m := buildModel(t, d)
		lrRes := Solve(m, Config{})
		ilpSol, _, err := m.SolveILP(ilp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if lrRes.Solution.Objective > ilpSol.Objective+1e-6 {
			t.Fatalf("trial %d: LR %g beats ILP %g (impossible)",
				trial, lrRes.Solution.Objective, ilpSol.Objective)
		}
		totalLR += lrRes.Solution.Objective
		totalILP += ilpSol.Objective
	}
	if ratio := totalLR / totalILP; ratio < 0.80 {
		t.Errorf("aggregate LR/ILP ratio %.3f below 0.80; paper reports near-optimal LR", ratio)
	}
}

func TestIterationBoundRespected(t *testing.T) {
	m := buildModel(t, contestedDesign(t))
	res := Solve(m, Config{MaxIterations: 3})
	if res.Iterations > 3 {
		t.Errorf("iterations = %d, want <= 3", res.Iterations)
	}
}

// TestStopBeforeFirstIterationIsLegal checks that a Stop hook that fires
// before the first iteration still yields a legal solution: the Theorem 1
// minimum solution, not an empty selection.
func TestStopBeforeFirstIterationIsLegal(t *testing.T) {
	stop := func() bool { return true }
	for p, m := range table2Models(t, "ecc")[:3] {
		for _, skip := range []bool{false, true} {
			res := Solve(m, Config{Stop: stop, SkipPostImprove: skip})
			if err := m.CheckLegal(res.Solution); err != nil {
				t.Fatalf("panel %d SkipPostImprove=%v: %v", p, skip, err)
			}
			if res.Iterations != 0 || res.Converged || res.BestViolations != 0 {
				t.Errorf("panel %d SkipPostImprove=%v: iterations %d, converged %v, best violations %d; want 0, false, 0",
					p, skip, res.Iterations, res.Converged, res.BestViolations)
			}
			if skip && res.Solution.Objective != m.MinimumSolution().Objective {
				t.Errorf("panel %d: objective %g, want the minimum solution's %g",
					p, res.Solution.Objective, m.MinimumSolution().Objective)
			}
		}
	}
}
