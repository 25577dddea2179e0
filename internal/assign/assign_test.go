package assign

import (
	"math"
	"reflect"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/ilp"
	"cpr/internal/pinaccess"
	"cpr/internal/tech"
)

// contestedDesign builds a one-panel design where net A's long intervals
// cross diff-net pin b1 on the shared track, so the optimizer must trade
// interval length for conflict freedom.
func contestedDesign(t *testing.T) (*design.Design, *pinaccess.Set) {
	t.Helper()
	d := design.New("contested", 20, 10, tech.Default())
	na := d.AddNet("a")
	nb := d.AddNet("b")
	d.AddPin("a1", na, geom.MakeRect(2, 3, 2, 3))
	d.AddPin("a2", na, geom.MakeRect(15, 3, 15, 3))
	d.AddPin("b1", nb, geom.MakeRect(8, 3, 8, 3))
	d.AddPin("b2", nb, geom.MakeRect(8, 6, 8, 6))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	set, err := pinaccess.Generate(d, idx, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return d, set
}

func TestProfitsIncludeMultiplicity(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	for i := range set.Intervals {
		iv := &set.Intervals[i]
		wantBase := math.Sqrt(float64(iv.Span.Len()))
		if math.Abs(m.BaseProfits[i]-wantBase) > 1e-12 {
			t.Errorf("BaseProfits[%d] = %g, want %g", i, m.BaseProfits[i], wantBase)
		}
		want := wantBase * float64(len(iv.PinIDs))
		if math.Abs(m.Profits[i]-want) > 1e-12 {
			t.Errorf("Profits[%d] = %g, want %g", i, m.Profits[i], want)
		}
	}
}

func TestMinimumSolutionIsLegal(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	min := m.MinimumSolution()
	if min.Violations != 0 {
		t.Errorf("minimum solution has %d violations, want 0 (Theorem 1)", min.Violations)
	}
	if err := m.CheckLegal(min); err != nil {
		t.Errorf("minimum solution illegal: %v", err)
	}
	if len(min.ByPin) != m.NumPins() {
		t.Errorf("minimum solution assigns %d pins, want %d", len(min.ByPin), m.NumPins())
	}
}

func TestILPSolveBeatsMinimum(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	min := m.MinimumSolution()
	sol, res, err := m.SolveILP(ilp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ilp.Optimal {
		t.Fatalf("ILP status %v, want optimal", res.Status)
	}
	if sol.Objective < min.Objective-1e-9 {
		t.Errorf("ILP objective %g below minimum solution %g", sol.Objective, min.Objective)
	}
	if sol.Violations != 0 {
		t.Errorf("ILP solution has %d violations", sol.Violations)
	}
}

// bruteForceBest enumerates every per-pin assignment and returns the best
// legal objective.
func bruteForceBest(m *Model) float64 {
	pins := m.Set.PinIDs
	best := math.Inf(-1)
	choice := make([]int, len(pins))
	var rec func(i int)
	rec = func(i int) {
		if i == len(pins) {
			byPin := make(map[int]int, len(pins))
			for j, pid := range pins {
				byPin[pid] = m.Set.ByPin[pid][choice[j]]
			}
			s := m.FromAssignment(byPin)
			if m.CheckLegal(s) == nil && s.Objective > best {
				best = s.Objective
			}
			return
		}
		for c := range m.Set.ByPin[pins[i]] {
			choice[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestILPMatchesBruteForce(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	sol, _, err := m.SolveILP(ilp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceBest(m)
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Errorf("ILP objective %g, brute force %g", sol.Objective, want)
	}
}

func TestEvaluateCountsViolations(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	// Select every interval: violations must equal the number of conflict
	// sets (every set has >= 2 members by construction).
	all := make([]bool, m.NumIntervals())
	for i := range all {
		all[i] = true
	}
	s := m.Evaluate(all)
	if s.Violations != len(m.Conflicts.Sets) {
		t.Errorf("Violations = %d, want %d", s.Violations, len(m.Conflicts.Sets))
	}
	// Empty selection: no violations, no assignment, zero objective.
	empty := m.Evaluate(make([]bool, m.NumIntervals()))
	if empty.Violations != 0 || empty.Objective != 0 || len(empty.ByPin) != 0 {
		t.Errorf("empty selection: %+v", empty)
	}
}

func TestFromAssignmentRoundTrip(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	min := m.MinimumSolution()
	s := m.FromAssignment(min.ByPin)
	if s.Objective != min.Objective || s.Violations != min.Violations {
		t.Errorf("round trip changed metrics: %+v vs %+v", s, min)
	}
}

// TestIntoFormsOverwriteStaleSolution reuses one Solution for a run of
// selections and assignments, each unlike the last, and requires every
// in-place result to equal the allocating form's.
func TestIntoFormsOverwriteStaleSolution(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	n := m.NumIntervals()
	all, none, alternate := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range all {
		all[i], alternate[i] = true, i%2 == 0
	}
	reused := new(Solution)
	for _, sel := range [][]bool{all, none, alternate, all} {
		m.EvaluateInto(reused, sel)
		if want := m.Evaluate(sel); !reflect.DeepEqual(reused, want) {
			t.Errorf("EvaluateInto = %+v, Evaluate %+v", reused, want)
		}
	}
	for _, byPin := range []map[int]int{m.Evaluate(all).ByPin, m.MinimumSolution().ByPin, {}, m.Evaluate(alternate).ByPin} {
		m.FromAssignmentInto(reused, byPin)
		if want := m.FromAssignment(byPin); !reflect.DeepEqual(reused, want) {
			t.Errorf("FromAssignmentInto = %+v, FromAssignment %+v", reused, want)
		}
	}
}

func TestCheckLegalDetectsUnassignedPin(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	s := m.Evaluate(make([]bool, m.NumIntervals()))
	if err := m.CheckLegal(s); err == nil {
		t.Error("CheckLegal must reject a selection that covers no pins")
	}
}

func TestCheckLegalDetectsDoubleCover(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	// Select two intervals of the same pin.
	pid := set.PinIDs[0]
	if len(set.ByPin[pid]) < 2 {
		t.Skip("pin has a single interval")
	}
	sel := make([]bool, m.NumIntervals())
	sel[set.ByPin[pid][0]] = true
	sel[set.ByPin[pid][1]] = true
	if err := m.CheckLegal(m.Evaluate(sel)); err == nil {
		t.Error("CheckLegal must reject double-covered pins")
	}
}

func TestSharedIntervalSatisfiesBothPins(t *testing.T) {
	// Two same-net pins on one track: the shared covering interval is a
	// legal solution on its own for both pins.
	d := design.New("pair", 12, 10, tech.Default())
	nc := d.AddNet("c")
	c1 := d.AddPin("c1", nc, geom.MakeRect(2, 3, 2, 3))
	c2 := d.AddPin("c2", nc, geom.MakeRect(8, 3, 8, 3))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), []int{c1, c2})
	if err != nil {
		t.Fatal(err)
	}
	m := Build(set, SqrtProfit)
	sol, _, err := m.SolveILP(ilp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The optimum selects the single shared interval [2,8]: profit
	// 2*sqrt(7) beats any pair of disjoint intervals.
	if sol.ByPin[c1] != sol.ByPin[c2] {
		t.Errorf("pins assigned different intervals %d, %d; want the shared one",
			sol.ByPin[c1], sol.ByPin[c2])
	}
	iv := set.Intervals[sol.ByPin[c1]]
	if iv.Span != (geom.Interval{Lo: 2, Hi: 8}) {
		t.Errorf("assigned span %v, want [2,8]", iv.Span)
	}
}

func TestSqrtProfitBalances(t *testing.T) {
	// Direct check of the objective design: sqrt(9)+sqrt(9) > sqrt(16)+sqrt(2),
	// while linear profit prefers the imbalanced split 16+2.
	if SqrtProfit(9)+SqrtProfit(9) <= SqrtProfit(16)+SqrtProfit(2) {
		t.Error("sqrt profit should prefer balanced 9/9 over 16/2")
	}
	if LinearProfit(16)+LinearProfit(2) != LinearProfit(9)+LinearProfit(9) {
		t.Error("linear profit should be indifferent between 16/2 and 9/9")
	}
}

func TestLengthStats(t *testing.T) {
	_, set := contestedDesign(t)
	m := Build(set, SqrtProfit)
	sol, _, err := m.SolveILP(ilp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Lengths(set)
	if st.Min < 1 || st.Max < st.Min || st.Total < st.Max {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if st.Mean <= 0 {
		t.Errorf("mean = %g", st.Mean)
	}
	empty := (&Solution{ByPin: map[int]int{}}).Lengths(set)
	if empty.Total != 0 || empty.Min != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}
