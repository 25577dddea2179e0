// Package lagrange implements the scalable Lagrangian relaxation algorithm
// for the weighted interval assignment problem (paper §3.4, Algorithms 1
// and 2).
//
// The conflict constraints (1c) are relaxed into the objective with
// multipliers lambda_m, updated by subgradient descent:
//
//	lambda_m^{k+1} = max(0, lambda_m^k + t_k * (sum_{I_i in C_m} x_i - 1))
//	t_k = L_m / k^alpha
//
// where L_m is the length of the common intersection of conflict set C_m
// and alpha = 0.95 by default. Each LR subproblem — pick one interval per
// pin maximizing total gain (profit minus accumulated penalties) — is
// solved by the greedy maxGains routine, optimal whenever no interval is
// shared between pins (Theorem 2). The best selection seen across
// iterations is kept; any residual conflicts are removed by greedily
// shrinking intervals to their minimum intervals, which is guaranteed to
// terminate because the all-minimum solution is conflict free (Theorem 1).
//
// The solver keeps, per conflict set, the number of selected members and
// a bitset of the sets holding more than one, updated on every selection
// flip. The multiplier update therefore visits only the violated sets,
// and the post-improvement pass tests a candidate in time proportional
// to its own memberships (DESIGN.md §4b).
package lagrange

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"cpr/internal/assign"
)

// Config tunes the LR solver. Zero values take the paper's defaults.
//
//keypurity:options
type Config struct {
	// MaxIterations is the iteration upper bound UB (default 200).
	MaxIterations int
	// Alpha is the subgradient step exponent (default 0.95).
	Alpha float64
	// DisableSameNetTieBreak turns off the Algorithm 1 tie-breaking rule
	// that prefers intervals covering more same-net pins (for ablation).
	DisableSameNetTieBreak bool
	// FullSubgradient also decreases multipliers of satisfied conflict
	// sets (textbook subgradient) instead of the paper's increase-on-
	// violation-only rule (for ablation).
	FullSubgradient bool
	// SkipRefinement skips the final greedy conflict removal (for
	// ablation; the result may then be illegal).
	SkipRefinement bool
	// SkipPostImprove disables the legality-preserving local improvement
	// pass run after LR terminates. The pass is an addition over the
	// paper's Algorithm 2 (which stops at the first violation-free
	// solution): each pin greedily upgrades to a more profitable
	// conflict-free interval. Disable to measure the bare algorithm.
	SkipPostImprove bool
	// Workers has no effect: the multiplier update visits only the
	// violated conflict sets and runs on the solving goroutine.
	//
	// Deprecated: the solver is sequential; leave Workers zero.
	//
	//keypurity:exempt execution parallelism; the internal/parallel determinism contract makes results byte-identical for every worker count
	Workers int
	// Stop is polled between subgradient iterations; when it reports
	// true the loop exits early with the best selection seen so far
	// (refinement still runs so the returned solution stays legal).
	// Before the first iteration there is no selection yet, so the
	// solve starts from Theorem 1's minimum solution instead.
	// A nil Stop — or one that never fires — leaves the iteration
	// trajectory untouched, so results remain byte-identical to a run
	// without it.
	Stop func() bool
	// Observer, when non-nil, receives one IterationStat per subgradient
	// iteration — the convergence series behind trace spans and the
	// Figure 6 style ablation plots. It is strictly observational: the
	// callback sees copies of the iteration state and cannot influence
	// the trajectory, so results are byte-identical with or without it,
	// and it is excluded from every cache-key fingerprint. It runs on the
	// solving goroutine; keep it cheap.
	//
	//keypurity:exempt strictly observational; the callback sees copies and cannot influence the trajectory
	Observer func(IterationStat)
}

// IterationStat is one subgradient iteration's convergence snapshot.
type IterationStat struct {
	// Iteration is the 1-based iteration number k.
	Iteration int `json:"iter"`
	// Violations is the number of violated conflict sets in this
	// iteration's selection (the "conflicts remaining" series).
	Violations int `json:"violations"`
	// BestViolations is the minimum violation count seen so far.
	BestViolations int `json:"best_violations"`
	// SelectedProfit is the raw profit of this iteration's selection —
	// the primal value, a lower bound on the optimum once feasible.
	SelectedProfit float64 `json:"profit"`
	// DualValue is the Lagrangian function value of the selection under
	// the iteration's multipliers (selected gains plus the multiplier
	// sum) — the upper-bound side of the convergence gap. It is computed
	// from the greedy subproblem solution, so it is an estimate of the
	// true dual bound, matching what Algorithm 1 actually optimizes.
	DualValue float64 `json:"dual"`
}

// Validate reports a configuration the solver cannot run: an Alpha that
// is NaN, infinite or negative. A negative exponent is no subgradient
// step schedule, since its steps t_k = L_m / k^alpha grow with k; once
// k^alpha underflows to zero the step is infinite and the multipliers,
// penalties and gains turn NaN. Zero keeps meaning the default 0.95.
func (c Config) Validate() error {
	if math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) || c.Alpha < 0 {
		return fmt.Errorf("lagrange: Config.Alpha must be finite and non-negative, got %v", c.Alpha)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 200
	}
	if c.Alpha == 0 {
		c.Alpha = 0.95
	}
	return c
}

// Result reports the LR run.
type Result struct {
	// Solution is the final (legal unless SkipRefinement) assignment.
	Solution *assign.Solution
	// Iterations is the number of LR iterations executed.
	Iterations int
	// BestViolations is the violation count of the best selection before
	// greedy conflict removal.
	BestViolations int
	// Converged reports whether LR reached zero violations on its own.
	Converged bool
	// ShrunkPins counts pins demoted to minimum intervals by refinement.
	ShrunkPins int
	// ImprovedPins counts pin upgrades made by the post-improvement pass.
	ImprovedPins int
}

// Solve runs Algorithm 2 on the model. Its scratch comes from a pooled
// workspace, so a solve allocates little beyond the Solution it returns.
func Solve(m *assign.Model, cfg Config) Result {
	ws := workspacePool.Get().(*workspace)
	defer ws.release()
	return ws.solve(m, cfg.withDefaults())
}

// solve is Solve on ws's storage.
func (ws *workspace) solve(m *assign.Model, cfg Config) Result {
	n := m.NumIntervals()

	// Penalties accumulate per interval as the sum of its conflict sets'
	// multipliers. Gains start at the profits; penalize keeps each
	// interval's gain at its profit minus its penalty and marks the pin
	// groups whose gains moved, so maxGains re-solves only those. The
	// subproblem keeps the per-set selection counts penalize reads.
	ws.penalties = cleared(ws.penalties, n)
	ws.lambda = cleared(ws.lambda, len(m.Conflicts.Sets))
	penalties, lambda := ws.penalties, ws.lambda
	sub := ws.newSubproblem(m, cfg)
	ws.gains = append(ws.gains[:0], m.Profits...)
	ws.selected = cleared(ws.selected, n)
	gains, selected := ws.gains, ws.selected

	best := ws.best[:0]
	minVio := math.MaxInt
	iters := 0
	for k := 1; k <= cfg.MaxIterations && minVio > 0; k++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		iters = k
		sub.maxGains(gains, selected)
		// The observer's dual value wants the multipliers the selection
		// was made under, so the sums are taken before penalize mutates
		// lambda. Reads only — the trajectory is untouched.
		var obsProfit, obsDual float64
		if cfg.Observer != nil {
			for _, l := range lambda {
				obsDual += l
			}
			for i, sel := range selected {
				if sel {
					obsProfit += m.Profits[i]
					obsDual += gains[i]
				}
			}
		}
		vio := penalize(m, sub, gains, lambda, penalties, k, cfg)
		if vio < minVio {
			minVio = vio
			best = append(best[:0], selected...)
		}
		if cfg.Observer != nil {
			cfg.Observer(IterationStat{
				Iteration:      k,
				Violations:     vio,
				BestViolations: minVio,
				SelectedProfit: obsProfit,
				DualValue:      obsDual,
			})
		}
	}
	ws.best = best

	// sol is a working solution until the last step, which builds the
	// returned Solution afresh: from best when sol is still best's
	// evaluation, from sol's assignment otherwise.
	sol, fromBest := &ws.sols[0], iters > 0
	if iters == 0 {
		// No iteration ran (Stop fired at once): start from Theorem 1's
		// minimum solution, which is conflict free.
		sol = m.MinimumSolution()
		minVio = sol.Violations
	} else {
		m.EvaluateInto(sol, best)
	}
	res := Result{
		Iterations:     iters,
		BestViolations: minVio,
		Converged:      iters > 0 && minVio == 0,
	}
	if !cfg.SkipRefinement && sol.Violations > 0 {
		res.ShrunkPins = ws.refine(m, sol.ByPin)
		m.FromAssignmentInto(&ws.sols[1], sol.ByPin)
		sol, fromBest = &ws.sols[1], false
	}
	if !cfg.SkipPostImprove && sol.Violations == 0 {
		res.ImprovedPins = ws.postImprove(m, sol.ByPin)
		fromBest = false
	}
	if fromBest {
		res.Solution = m.Evaluate(best)
	} else {
		res.Solution = m.FromAssignment(sol.ByPin)
	}
	return res
}

// workspace is everything a Solve builds and discards: the subproblem's
// index, the iteration state, the working solutions, and the scratch of
// refine and postImprove. Solve takes one from workspacePool. Every
// slice is resized and overwritten or cleared before it is read, and a
// workspace back in the pool holds nothing of a model: its own maps and
// slices hold only numbers.
type workspace struct {
	sub subproblem
	// Solve's iteration state.
	penalties, lambda, gains []float64
	selected, best           []bool
	// sols are Solve's working solutions.
	sols [2]assign.Solution
	// newSubproblem's pin numbering, union-find parents, group numbers
	// and group sizes.
	dense                    map[int]int32
	parent, groupOf, ivCount []int32
	// refine's and postImprove's selection, a conflict set's selected
	// members, pins per interval and per-set selection counts.
	assigned  []bool
	members   []int
	users     []int32
	setCounts []int32
}

// workspacePool recycles workspaces across solves.
var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// release drops the workspace's reference to the model's conflict
// membership and returns it to the pool.
func (ws *workspace) release() {
	ws.sub.memberOf = nil
	workspacePool.Put(ws)
}

// grow returns s resized to n, reusing its array when it is large
// enough; the elements are stale, so the caller overwrites every one.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// cleared is grow with every element zeroed.
func cleared[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// postImprove greedily upgrades pins to more profitable intervals while
// preserving legality. Only moves that are trivially legal are made: the
// pin's current interval must serve no other pin, and the candidate must
// cover exactly this pin and sit in conflict sets with no other selected
// member. byPin is updated in place. Returns the number of upgrades.
//
// Every conflict set's selected members are counted once, and the counts
// follow each move, so a candidate is tested in time proportional to its
// own memberships (see onlyCur).
func (ws *workspace) postImprove(m *assign.Model, byPin map[int]int) int {
	n := m.NumIntervals()
	memberOf := m.Conflicts.MemberOf
	ws.assigned = cleared(ws.assigned, n)
	ws.users = cleared(ws.users, n) // interval -> #pins assigned to it
	selected, users := ws.assigned, ws.users
	for _, iv := range byPin {
		selected[iv] = true
		users[iv]++
	}
	ws.setCounts = cleared(ws.setCounts, len(m.Conflicts.Sets))
	counts := ws.setCounts
	for i, sel := range selected {
		if sel {
			for _, si := range memberOf[i] {
				counts[si]++
			}
		}
	}
	improved := 0
	for pass := 0; pass < 10; pass++ {
		changed := false
		// Set.PinIDs may repeat a pin, so its interval is read on every
		// visit.
		for _, pid := range m.Set.PinIDs {
			cur := byPin[pid]
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
				if onlyCur(counts, memberOf[cand], memberOf[cur]) {
					best, bestProfit = cand, m.Profits[cand]
				}
			}
			if best >= 0 {
				selected[cur], users[cur] = false, 0
				for _, si := range memberOf[cur] {
					counts[si]--
				}
				selected[best], users[best] = true, 1
				for _, si := range memberOf[best] {
					counts[si]++
				}
				byPin[pid] = best
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

// onlyCur reports whether no conflict set of an unselected candidate
// (candSets) has a selected member other than the selected interval cur,
// whose sets curSets are ascending: each count is 0, or 1 and the set
// holds cur. This equals scanning every member of every set.
func onlyCur(counts []int32, candSets, curSets []int) bool {
	for _, si := range candSets {
		switch counts[si] {
		case 0:
		case 1:
			if _, ok := slices.BinarySearch(curSets, si); !ok {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// subproblem is Algorithm 1's greedy LR subproblem, indexed once per
// Solve. The greedy takes intervals in one total order — gain descending,
// then covered pins descending (intra-panel connections preferred, unless
// DisableSameNetTieBreak), then ID ascending — and skips any interval
// with an already-assigned pin. Whether it takes an interval depends only
// on the earlier intervals that share one of its pins, so the pins are
// joined into groups that share an interval, and each group's intervals
// are solved on their own: the union of the per-group selections is
// exactly the selection of one global pass (DESIGN.md §4b). Pins an
// interval covers outside Set.PinIDs join the groups like any other pin.
type subproblem struct {
	tieBreak bool
	// ivPins[ivPinStart[i]:ivPinStart[i+1]] are interval i's pins as
	// dense indices, numbered in order of first appearance.
	ivPinStart []int32
	ivPins     []int32
	// groupIvs[groupStart[g]:groupStart[g+1]] are group g's intervals:
	// ascending by ID for a one-pin group, and in the order the last
	// maxGains call sorted them into for a larger one. Intervals covering
	// no pin belong to no group and are never selected.
	groupStart []int32
	groupIvs   []int32
	// single[g] reports that every interval of group g covers exactly
	// one pin (the same one), so the group takes its first interval in
	// the order.
	single []bool
	// ivGroup[i] is interval i's group, -1 if it covers no pin.
	ivGroup []int32
	// dirty[g] reports that group g was marked since the last maxGains
	// call.
	dirty []bool
	// Scratch reused by every call: a pin is assigned in the current call
	// when its stamp equals gen.
	stamp []uint32
	gen   uint32

	// The conflict sets' selection state, kept equal to a recount from
	// the selected slice on every flip: setCount[si] is the number of
	// selected members of set si, bit si of over is set when that count
	// is at least 2, and violated is the number of bits set.
	memberOf [][]int
	setCount []int32
	over     []uint64
	violated int
}

// newSubproblem joins the model's pins into groups with a union-find
// over every interval's pins and lists each group's intervals. It
// rebuilds ws.sub in place, reusing the storage an earlier solve grew.
func (ws *workspace) newSubproblem(m *assign.Model, cfg Config) *subproblem {
	ivs := m.Set.Intervals
	n := len(ivs)
	s := &ws.sub
	s.tieBreak = !cfg.DisableSameNetTieBreak
	s.ivPinStart = grow(s.ivPinStart, n+1)
	s.ivPinStart[0] = 0
	s.ivPins = s.ivPins[:0]
	if ws.dense == nil {
		ws.dense = make(map[int]int32, m.NumPins())
	}
	dense := ws.dense
	clear(dense)
	for i := range ivs {
		for _, pid := range ivs[i].PinIDs {
			d, ok := dense[pid]
			if !ok {
				d = int32(len(dense))
				dense[pid] = d
			}
			s.ivPins = append(s.ivPins, d)
		}
		s.ivPinStart[i+1] = int32(len(s.ivPins))
	}

	ws.parent = grow(ws.parent, len(dense))
	parent := ws.parent
	for p := range parent {
		parent[p] = int32(p)
	}
	find := func(p int32) int32 {
		for parent[p] != p {
			parent[p] = parent[parent[p]]
			p = parent[p]
		}
		return p
	}
	for i := 0; i < n; i++ {
		pins := s.pins(int32(i))
		for _, p := range pins {
			if a, b := find(pins[0]), find(p); a != b {
				parent[b] = a
			}
		}
	}

	// Number the groups by their lowest interval and count their
	// intervals; then lay the intervals out group by group.
	ws.groupOf = cleared(ws.groupOf, len(dense)) // root pin -> group + 1
	groupOf := ws.groupOf
	s.ivGroup = grow(s.ivGroup, n) // interval -> group, -1 if pinless
	counts := ws.ivCount[:0]
	s.single = s.single[:0]
	for i := 0; i < n; i++ {
		pins := s.pins(int32(i))
		if len(pins) == 0 {
			s.ivGroup[i] = -1
			continue
		}
		r := find(pins[0])
		if groupOf[r] == 0 {
			counts = append(counts, 0)
			s.single = append(s.single, true)
			groupOf[r] = int32(len(counts))
		}
		g := groupOf[r] - 1
		s.ivGroup[i] = g
		counts[g]++
		if len(pins) != 1 {
			s.single[g] = false
		}
	}
	ws.ivCount = counts
	s.groupStart = grow(s.groupStart, len(counts)+1)
	s.groupStart[0] = 0
	for g, c := range counts {
		s.groupStart[g+1] = s.groupStart[g] + c
	}
	next := counts // reused as each group's fill cursor
	copy(next, s.groupStart)
	s.groupIvs = grow(s.groupIvs, int(s.groupStart[len(counts)]))
	for i, g := range s.ivGroup {
		if g >= 0 {
			s.groupIvs[next[g]] = int32(i)
			next[g]++
		}
	}
	s.stamp = cleared(s.stamp, len(dense))
	s.gen = 0
	nsets := len(m.Conflicts.Sets)
	s.memberOf = m.Conflicts.MemberOf
	s.setCount = cleared(s.setCount, nsets)
	s.over = cleared(s.over, (nsets+63)/64)
	s.violated = 0
	// The first call solves every group.
	s.dirty = grow(s.dirty, len(counts))
	for g := range s.dirty {
		s.dirty[g] = true
	}
	return s
}

// mark records that interval i's gain changed: the next maxGains call
// re-solves its group.
func (s *subproblem) mark(i int) {
	if g := s.ivGroup[i]; g >= 0 {
		s.dirty[g] = true
	}
}

// flip selects or deselects interval i and updates the counts of its
// conflict sets.
func (s *subproblem) flip(i int32, on bool, selected []bool) {
	selected[i] = on
	if on {
		for _, si := range s.memberOf[i] {
			if s.setCount[si]++; s.setCount[si] == 2 {
				s.over[si>>6] |= 1 << (si & 63)
				s.violated++
			}
		}
		return
	}
	for _, si := range s.memberOf[i] {
		if s.setCount[si]--; s.setCount[si] == 1 {
			s.over[si>>6] &^= 1 << (si & 63)
			s.violated--
		}
	}
}

// pins returns interval i's pins as dense indices.
func (s *subproblem) pins(i int32) []int32 {
	return s.ivPins[s.ivPinStart[i]:s.ivPinStart[i+1]]
}

// compare orders intervals a and b as Algorithm 1 takes them: gain
// descending, then covered pins descending, then ID ascending. The ID
// makes the order total.
func (s *subproblem) compare(gains []float64, a, b int32) int {
	if gains[a] != gains[b] {
		if gains[a] > gains[b] {
			return -1
		}
		return 1
	}
	if s.tieBreak {
		if la, lb := s.ivPinStart[a+1]-s.ivPinStart[a], s.ivPinStart[b+1]-s.ivPinStart[b]; la != lb {
			return int(lb - la)
		}
	}
	return int(a - b)
}

// maxGains implements Algorithm 1's greedy LR subproblem: select intervals
// in non-increasing gain order, skipping any interval with an
// already-assigned pin, one pin group at a time. A one-pin group takes
// its first interval in the order; a larger group sorts its intervals and
// runs the greedy.
//
// A group's selection depends only on its own intervals' gains, so a call
// re-solves only the groups marked since the previous call (every group
// on the first) and leaves the rest of selected as that call left it.
// Only intervals whose selection changes are flipped, which keeps the
// conflict-set counts. The contract: selected is the slice the previous
// call filled (all false before the first), and a caller that changes
// gains[i] calls mark(i) before the next call. A call after the first
// allocates nothing.
func (s *subproblem) maxGains(gains []float64, selected []bool) {
	s.gen++
	if s.gen == 0 { // wrapped: no stamp may look current
		clear(s.stamp)
		s.gen = 1
	}
	for g, dirty := range s.dirty {
		if !dirty {
			continue
		}
		s.dirty[g] = false
		ivs := s.groupIvs[s.groupStart[g]:s.groupStart[g+1]]
		if s.single[g] {
			// Ascending IDs and a strict comparison keep the lowest ID
			// among equal gains. The group holds at most one selected
			// interval, prev.
			best, prev := ivs[0], int32(-1)
			for _, i := range ivs {
				if gains[i] > gains[best] {
					best = i
				}
				if selected[i] {
					prev = i
				}
			}
			if best != prev {
				if prev >= 0 {
					s.flip(prev, false, selected)
				}
				s.flip(best, true, selected)
			}
			continue
		}
		s.sortGroup(gains, ivs)
		for _, i := range ivs {
			pins := s.pins(i)
			take := !s.anyAssigned(pins)
			if take {
				for _, p := range pins {
					s.stamp[p] = s.gen
				}
			}
			if take != selected[i] {
				s.flip(i, take, selected)
			}
		}
	}
}

// sortGroup sorts a multi-pin group's intervals in place into Algorithm
// 1's order by insertion, starting from the order the previous call left,
// which one penalize step moves little. compare is a total order while no
// gain is NaN (Config.Validate), so the result equals a fresh sort.
func (s *subproblem) sortGroup(gains []float64, ivs []int32) {
	for k := 1; k < len(ivs); k++ {
		x := ivs[k]
		j := k
		for ; j > 0 && s.compare(gains, ivs[j-1], x) > 0; j-- {
			ivs[j] = ivs[j-1]
		}
		ivs[j] = x
	}
}

// anyAssigned reports whether one of the pins is assigned in this call.
func (s *subproblem) anyAssigned(pins []int32) bool {
	for _, p := range pins {
		if s.stamp[p] == s.gen {
			return true
		}
	}
	return false
}

// penalize implements Algorithm 1's multiplier update: for every violated
// conflict set, move lambda_m along the subgradient with step
// t_k = L_m / k^alpha, and propagate the change into per-interval
// penalties. Every interval whose penalty moves gets its gain recomputed
// as profit minus penalty and is marked in sub. Returns the violation
// count.
//
// Under the paper's rule only violated sets move, so the update visits
// the set bits of sub.over in ascending set index: the sets, and the
// order, for which a loop over every set does anything, which keeps each
// float accumulation in that loop's order. FullSubgradient moves every
// set.
func penalize(m *assign.Model, sub *subproblem, gains, lambda, penalties []float64, k int, cfg Config) int {
	kAlpha := math.Pow(float64(k), cfg.Alpha)
	step := func(si int) {
		cs := &m.Conflicts.Sets[si]
		tk := float64(cs.Common.Len()) / kAlpha
		next := lambda[si] + tk*float64(sub.setCount[si]-1)
		if next < 0 {
			next = 0
		}
		if delta := next - lambda[si]; delta != 0 {
			lambda[si] = next
			for _, id := range cs.IDs {
				penalties[id] += delta
				gains[id] = m.Profits[id] - penalties[id]
				sub.mark(id)
			}
		}
	}
	if cfg.FullSubgradient {
		for si := range m.Conflicts.Sets {
			step(si)
		}
		return sub.violated
	}
	for w, word := range sub.over {
		for ; word != 0; word &= word - 1 {
			step(w<<6 | bits.TrailingZeros64(word))
		}
	}
	return sub.violated
}

// refine performs the greedy conflict removal of Algorithm 2 line 11:
// while any conflict set holds more than one selected interval, shrink the
// offending intervals (all but the most profitable member) down to their
// pins' minimum intervals on the same track. Because minimum intervals are
// pairwise disjoint, the process strictly reduces the number of non-minimum
// assignments and terminates in a conflict-free state.
//
// byPin is updated in place; the caller recomputes the selection and its
// metrics. Returns the number of pin demotions.
func (ws *workspace) refine(m *assign.Model, byPin map[int]int) int {
	shrunk := 0
	set := m.Set
	for pass := 0; pass <= m.NumPins()+1; pass++ {
		ws.assigned = cleared(ws.assigned, m.NumIntervals())
		selected := ws.assigned
		for _, iv := range byPin {
			selected[iv] = true
		}
		changed := false
		for si := range m.Conflicts.Sets {
			cs := &m.Conflicts.Sets[si]
			sel := ws.members[:0]
			for _, id := range cs.IDs {
				if selected[id] {
					sel = append(sel, id)
				}
			}
			ws.members = sel
			if len(sel) < 2 {
				continue
			}
			// Keep the most profitable member; shrink every other
			// non-minimum member. If nothing else can shrink, shrink the
			// keeper itself.
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
				shrunk += demote(m, byPin, id)
				selected[id] = false
				any = true
				changed = true
			}
			if !any && set.Intervals[keep].MinForPin < 0 {
				shrunk += demote(m, byPin, keep)
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

// demote reassigns every pin using interval id to its minimum interval on
// the same track (falling back to any minimum interval), in ascending pin
// order. A pin can use only an interval that covers it, and demotion
// moves pins only onto minimum intervals, which are never demoted, so
// id's covered pins assigned to it are exactly its users.
func demote(m *assign.Model, byPin map[int]int, id int) int {
	track := m.Set.Intervals[id].Track
	n := 0
	for _, pid := range m.Set.Intervals[id].PinIDs {
		if iv, ok := byPin[pid]; !ok || iv != id {
			continue
		}
		min := m.Set.MinInterval(pid, track)
		if min < 0 {
			min = m.Set.AnyMinInterval(pid)
		}
		if min >= 0 && min != id {
			byPin[pid] = min
			n++
		}
	}
	return n
}
