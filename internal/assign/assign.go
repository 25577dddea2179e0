// Package assign models the weighted interval assignment problem at the
// heart of concurrent pin access optimization (paper §3.3):
//
//	max   sum_{p_j in P} sum_{I_i in S_j} f(I_i) * x_i          (1a)
//	s.t.  sum_{I_i in S_j} x_i  = 1   for every pin p_j         (1b)
//	      sum_{I_i in C_m} x_i <= 1   for every conflict set    (1c)
//	      x_i in {0, 1}                                         (1d)
//
// The objective counts an interval once per covered pin, so an interval
// serving k same-net pins (an intra-panel connection) carries k times its
// profit — exactly the paper's "counting its corresponding variable
// multiple times".
//
// The package builds the model from generated intervals and detected
// conflicts, converts it to a binary ILP for the exact solver, evaluates
// arbitrary selections, and provides the always-feasible minimum-interval
// solution of Theorem 1.
package assign

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cpr/internal/conflict"
	"cpr/internal/ilp"
	"cpr/internal/lp"
	"cpr/internal/parallel"
	"cpr/internal/pinaccess"
)

// ProfitFn maps an interval length (grid points) to its profit f(I).
type ProfitFn func(length int) float64

// SqrtProfit is the paper's f(I) = sqrt(l_i): it favours long intervals
// with diminishing returns, which balances lengths across pins.
func SqrtProfit(length int) float64 { return math.Sqrt(float64(length)) }

// LinearProfit is the ablation alternative f(I) = l_i from the paper's
// discussion ("compared to a linear function").
func LinearProfit(length int) float64 { return float64(length) }

// Model is one weighted interval assignment instance.
type Model struct {
	// Set holds the candidate intervals and the per-pin sets S_j.
	Set *pinaccess.Set
	// Conflicts holds the maximal conflict sets C and membership index.
	Conflicts *conflict.Matrix
	// Profits[i] is f(len(I_i)) multiplied by the number of covered pins
	// (objective coefficient of x_i in (1a)).
	Profits []float64
	// BaseProfits[i] is f(len(I_i)) without the multiplicity factor.
	BaseProfits []float64
}

// Build assembles a model from a generated interval set using profit
// function f (use SqrtProfit for the paper's objective).
func Build(set *pinaccess.Set, f ProfitFn) *Model {
	return BuildWorkers(set, f, 1)
}

// BuildWorkers is Build with the conflict sweep and profit evaluation
// sharded across up to workers goroutines (<= 1 is sequential, and the
// model is byte-identical for every value). With workers > 1 the profit
// function f must be safe for concurrent calls; the built-in profit
// functions are pure.
func BuildWorkers(set *pinaccess.Set, f ProfitFn, workers int) *Model {
	m := new(Model)
	m.Rebuild(set, f, workers)
	return m
}

// Rebuild makes m the model BuildWorkers(set, f, workers) returns,
// reusing the conflict matrix (conflict.Matrix.Rebuild) and profit
// vectors an earlier Rebuild of m grew. The earlier Conflicts, Profits
// and BaseProfits are overwritten, so the caller must hold nothing of
// them.
func (m *Model) Rebuild(set *pinaccess.Set, f ProfitFn, workers int) {
	if m.Conflicts == nil {
		m.Conflicts = new(conflict.Matrix)
	}
	m.Set = set
	m.Conflicts.Rebuild(set.Intervals, workers)
	n := len(set.Intervals)
	m.Profits = slices.Grow(m.Profits[:0], n)[:n]
	m.BaseProfits = slices.Grow(m.BaseProfits[:0], n)[:n]
	parallel.ForEachChunk(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := f(set.Intervals[i].Span.Len())
			m.BaseProfits[i] = base
			m.Profits[i] = base * float64(len(set.Intervals[i].PinIDs))
		}
	})
}

// NumIntervals returns the number of candidate intervals (ILP variables).
func (m *Model) NumIntervals() int { return len(m.Set.Intervals) }

// NumPins returns the number of pins to be assigned.
func (m *Model) NumPins() int { return len(m.Set.PinIDs) }

// Solution is an interval selection with its quality metrics.
type Solution struct {
	// Selected[i] reports whether interval i is chosen.
	Selected []bool
	// ByPin maps each pin ID to its assigned interval ID.
	ByPin map[int]int
	// Objective is the (1a) value of the selection.
	Objective float64
	// Violations is the number of conflict sets with more than one
	// selected interval (0 for a legal solution).
	Violations int
}

// Evaluate computes objective and violation count for a selection and
// derives the per-pin assignment. Pins covered by several selected
// intervals take the lowest interval ID; unassigned pins are absent from
// ByPin.
func (m *Model) Evaluate(selected []bool) *Solution {
	s := new(Solution)
	m.EvaluateInto(s, selected)
	return s
}

// EvaluateInto makes s the Solution Evaluate(selected) returns, reusing
// s's Selected slice and ByPin map.
func (m *Model) EvaluateInto(s *Solution, selected []bool) {
	s.Selected = append(s.Selected[:0], selected...)
	s.ByPin = emptyMap(s.ByPin, m.NumPins())
	s.Objective = 0
	for i, sel := range selected {
		if !sel {
			continue
		}
		s.Objective += m.Profits[i]
		for _, pid := range m.Set.Intervals[i].PinIDs {
			if _, ok := s.ByPin[pid]; !ok {
				s.ByPin[pid] = i // the first selected interval has the lowest ID
			}
		}
	}
	s.Violations = m.Conflicts.Violations(selected)
}

// FromAssignment builds a Solution from an explicit pin-to-interval map:
// the selection is the assigned intervals, ByPin a copy of the caller's
// map, and the objective sums the selection in ascending interval order,
// as Evaluate does.
func (m *Model) FromAssignment(byPin map[int]int) *Solution {
	s := new(Solution)
	m.FromAssignmentInto(s, byPin)
	return s
}

// FromAssignmentInto makes s the Solution FromAssignment(byPin) returns,
// reusing s's Selected slice and ByPin map; byPin must not be s.ByPin.
func (m *Model) FromAssignmentInto(s *Solution, byPin map[int]int) {
	n := m.NumIntervals()
	if cap(s.Selected) < n {
		s.Selected = make([]bool, n)
	} else {
		s.Selected = s.Selected[:n]
		clear(s.Selected)
	}
	s.ByPin = emptyMap(s.ByPin, len(byPin))
	for p, iv := range byPin {
		s.Selected[iv] = true
		s.ByPin[p] = iv
	}
	s.Objective = 0
	for i, sel := range s.Selected {
		if sel {
			s.Objective += m.Profits[i]
		}
	}
	s.Violations = m.Conflicts.Violations(s.Selected)
}

// emptyMap returns m cleared, or a new map sized for hint entries when m
// is nil.
func emptyMap(m map[int]int, hint int) map[int]int {
	if m == nil {
		return make(map[int]int, hint)
	}
	clear(m)
	return m
}

// MinimumSolution returns the Theorem 1 feasible solution: every pin takes
// one of its minimum intervals. The result has zero violations.
func (m *Model) MinimumSolution() *Solution {
	byPin := make(map[int]int, m.NumPins())
	for _, pid := range m.Set.PinIDs {
		iv := m.Set.AnyMinInterval(pid)
		if iv >= 0 {
			byPin[pid] = iv
		}
	}
	return m.FromAssignment(byPin)
}

// CheckLegal verifies a solution satisfies (1b)-(1d): every pin covered by
// exactly one selected interval (shared intervals may serve several pins)
// and no conflict set with two selections.
func (m *Model) CheckLegal(s *Solution) error {
	for _, pid := range m.Set.PinIDs {
		count := 0
		for _, iv := range m.Set.ByPin[pid] {
			if s.Selected[iv] {
				count++
			}
		}
		if count != 1 {
			return fmt.Errorf("assign: pin %d covered by %d selected intervals, want 1", pid, count)
		}
	}
	if v := m.Conflicts.Violations(s.Selected); v != 0 {
		return fmt.Errorf("assign: %d conflict sets violated", v)
	}
	return nil
}

// BuildILP converts the model to the paper's binary ILP (Formula (1)).
// Unit bounds are implied by the pin equality rows, so they are omitted.
func (m *Model) BuildILP() *ilp.Problem {
	p := ilp.NewProblem(m.NumIntervals())
	p.AddUnitBounds = false
	copy(p.Objective, m.Profits)
	for _, pid := range m.Set.PinIDs {
		terms := make([]lp.Term, 0, len(m.Set.ByPin[pid]))
		for _, iv := range m.Set.ByPin[pid] {
			terms = append(terms, lp.Term{Var: iv, Coef: 1})
		}
		p.AddConstraint(terms, lp.EQ, 1)
	}
	for _, cs := range m.Conflicts.Sets {
		terms := make([]lp.Term, 0, len(cs.IDs))
		for _, iv := range cs.IDs {
			terms = append(terms, lp.Term{Var: iv, Coef: 1})
		}
		p.AddConstraint(terms, lp.LE, 1)
	}
	return p
}

// SolveILP runs the exact branch-and-bound solver on the model, warm
// started from the minimum-interval solution, and returns the resulting
// assignment.
func (m *Model) SolveILP(cfg ilp.Config) (*Solution, ilp.Result, error) {
	if cfg.InitialSolution == nil {
		min := m.MinimumSolution()
		cfg.InitialSolution = min.Selected
	}
	res := ilp.Solve(m.BuildILP(), cfg)
	if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
		return nil, res, fmt.Errorf("assign: ILP solve failed with status %v", res.Status)
	}
	sol := m.Evaluate(res.X)
	if err := m.CheckLegal(sol); err != nil {
		return nil, res, fmt.Errorf("assign: ILP returned illegal selection: %w", err)
	}
	return sol, res, nil
}

// LengthStats summarizes assigned interval lengths for balance analysis.
type LengthStats struct {
	Total int
	Min   int
	Max   int
	Mean  float64
	// StdDev measures balance: the paper's sqrt profit exists to keep
	// this low while Total stays high.
	StdDev float64
}

// Lengths computes length statistics over the per-pin assigned intervals.
func (s *Solution) Lengths(set *pinaccess.Set) LengthStats {
	var st LengthStats
	n := 0
	var sum, sumSq float64
	st.Min = math.MaxInt
	// Sum in sorted pin order: float addition is order-dependent, and
	// Mean/StdDev are part of the reported (and cached) result.
	pids := make([]int, 0, len(s.ByPin))
	for pid := range s.ByPin {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		iv := s.ByPin[pid]
		l := set.Intervals[iv].Span.Len()
		st.Total += l
		if l < st.Min {
			st.Min = l
		}
		if l > st.Max {
			st.Max = l
		}
		sum += float64(l)
		sumSq += float64(l) * float64(l)
		n++
	}
	if n == 0 {
		st.Min = 0
		return st
	}
	st.Mean = sum / float64(n)
	variance := sumSq/float64(n) - st.Mean*st.Mean
	if variance > 0 {
		st.StdDev = math.Sqrt(variance)
	}
	return st
}
