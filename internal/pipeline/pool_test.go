package pipeline

import (
	"context"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/pinaccess"
	"cpr/internal/synth"
)

// table2Design generates the named Table 2 circuit and its track index.
func table2Design(t *testing.T, name string) (*design.Design, *design.TrackIndex) {
	t.Helper()
	spec, err := synth.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.BuildTrackIndex()
}

// cloneArtifact copies the parts of a panel artifact that hold storage,
// allocating exactly what SolvePanel allocates for them: the structs, the
// set's intervals, pins and two arenas, its ByPin map sized for its
// pins, and the solution's selection and ByPin map.
func cloneArtifact(a *PanelArtifact) *PanelArtifact {
	set := a.Intervals.Set
	total := 0
	for _, iv := range set.Intervals {
		total += len(iv.PinIDs)
	}
	arena := make([]int, 0, total)
	ivs := make([]pinaccess.Interval, len(set.Intervals))
	for i, iv := range set.Intervals {
		lo := len(arena)
		arena = append(arena, iv.PinIDs...)
		iv.PinIDs = arena[lo:len(arena):len(arena)]
		ivs[i] = iv
	}
	byPinArena := make([]int, 0, total)
	byPin := make(map[int][]int, len(set.ByPin))
	for pid, list := range set.ByPin {
		lo := len(byPinArena)
		byPinArena = append(byPinArena, list...)
		byPin[pid] = byPinArena[lo:len(byPinArena):len(byPinArena)]
	}
	sol := a.Assignment.Solution
	assigned := make(map[int]int, len(sol.ByPin))
	for pid, iv := range sol.ByPin {
		assigned[pid] = iv
	}
	return &PanelArtifact{
		Panel: a.Panel,
		Key:   a.Key,
		Intervals: &IntervalSet{Set: &pinaccess.Set{
			Intervals: ivs,
			PinIDs:    slices.Clone(set.PinIDs),
			ByPin:     byPin,
		}},
		Assignment: &Assignment{
			Solution: &assign.Solution{
				Selected:   slices.Clone(sol.Selected),
				ByPin:      assigned,
				Objective:  sol.Objective,
				Violations: sol.Violations,
			},
			Converged: a.Assignment.Converged,
		},
		NumConflicts: a.NumConflicts,
	}
}

// TestSolvePanelAllocatesOnlyArtifact: once its pools are warm, solving
// a panel allocates the artifact it returns and nothing else but the two
// closures it hands the worker pool (interval enumeration and profit
// evaluation). GC is off while measuring, so the pools keep their
// objects.
func TestSolvePanelAllocatesOnlyArtifact(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random")
	}
	d, idx := table2Design(t, "ecc")
	cfg := SolverConfig{}
	ctx := context.Background()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, panel := range []int{3, 17} {
		key := PanelKeyFor(d, idx, panel, cfg)
		var art *PanelArtifact
		solve := func() {
			var err error
			if art, err = SolvePanel(ctx, d, idx, panel, key, cfg, 1); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm the pools for this panel's sizes
		got := testing.AllocsPerRun(20, solve)
		want := testing.AllocsPerRun(20, func() { cloneArtifact(art) })
		t.Logf("panel %d: %d intervals, SolvePanel %.0f allocs, artifact %.0f", panel, len(art.Intervals.Set.Intervals), got, want)
		if got != want+2 {
			t.Errorf("panel %d: SolvePanel allocates %.0f objects, want the artifact's %.0f plus 2 closures", panel, got, want)
		}
		if m := modelPool.Get().(*ConflictModel); m.Model.Set != nil {
			t.Errorf("panel %d: the pooled model still holds the panel's interval set", panel)
		}
	}
}

// reuseConfigs are the solver settings TestSolvePanelReuseMatchesFresh
// runs under: LR's defaults, its four ablations, and an ILP with a
// one-node cap and no usable warm start, which sends some panels to the
// LR fallback.
var reuseConfigs = []struct {
	name string
	cfg  SolverConfig
}{
	{"lr", SolverConfig{}},
	{"no-tie-break", SolverConfig{LR: lagrange.Config{DisableSameNetTieBreak: true}}},
	{"full-subgradient", SolverConfig{LR: lagrange.Config{FullSubgradient: true}}},
	{"skip-refinement", SolverConfig{LR: lagrange.Config{SkipRefinement: true}}},
	{"skip-post-improve", SolverConfig{LR: lagrange.Config{SkipPostImprove: true}}},
	{"ilp-lr-fallback", SolverConfig{UseILP: true, ILP: ilp.Config{MaxNodes: 1, InitialSolution: []bool{false}}}},
}

// panelResult is what TestSolvePanelReuseMatchesFresh compares of one
// solve: the artifact's encodings and pin assignment, or the error.
type panelResult struct {
	intervals, assignment string
	byPin                 map[int]int
	err                   string
}

func resultOf(art *PanelArtifact, err error) panelResult {
	if err != nil {
		return panelResult{err: err.Error()}
	}
	return panelResult{
		intervals:  HashIntervalSet(art.Intervals),
		assignment: HashAssignment(art.Assignment),
		byPin:      maps.Clone(art.Assignment.Solution.ByPin),
	}
}

func (r panelResult) equal(o panelResult) bool {
	return r.intervals == o.intervals && r.assignment == o.assignment && maps.Equal(r.byPin, o.byPin) && r.err == o.err
}

// TestSolvePanelReuseMatchesFresh solves every panel of ecc and efc
// (the first eight of ecc's under -short), in shuffled order, right
// after solving the
// design's largest and then its smallest panel, so each solve runs on
// pooled scratch that last served a larger and a smaller panel. Each
// artifact, or error, must equal a fresh solve's: the stage functions
// after two garbage collections, which empty every sync.Pool, so each
// stage starts from new storage. A model rebuilt in place the same way
// must index the same conflict sets and memberships as a fresh one.
// Every artifact must still hash the same once all later panels have
// reused the scratch. GC is otherwise off, so the pools keep their
// objects between solves.
func TestSolvePanelReuseMatchesFresh(t *testing.T) {
	circuits, perConfig := []string{"ecc", "efc"}, 0
	if testing.Short() {
		circuits, perConfig = circuits[:1], 8
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	for _, name := range circuits {
		d, idx := table2Design(t, name)
		var panels []int
		for p := 0; p < d.NumPanels(); p++ {
			if len(idx.PinsInPanel(p)) > 0 {
				panels = append(panels, p)
			}
		}
		bySize := slices.Clone(panels)
		slices.SortStableFunc(bySize, func(a, b int) int { return len(idx.PinsInPanel(b)) - len(idx.PinsInPanel(a)) })
		largest, smallest := bySize[0], bySize[len(bySize)-1]
		for ci, rc := range reuseConfigs {
			t.Run(name+"/"+rc.name, func(t *testing.T) {
				cfg := rc.cfg
				order := slices.Clone(panels)
				rand.New(rand.NewSource(int64(ci))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				if perConfig > 0 {
					order = order[:perConfig]
				}
				// Fresh solves first: two collections before each one
				// empty every pool.
				fresh := make(map[int]*ConflictModel)
				want := make(map[int]panelResult)
				for _, p := range order {
					runtime.GC()
					runtime.GC()
					set, err := GenerateStage(d, idx, idx.PinsInPanel(p), 1)
					if err != nil {
						t.Fatalf("panel %d: %v", p, err)
					}
					fresh[p] = ConflictStage(set, cfg, 1)
					a, err := AssignStage(ctx, fresh[p], cfg)
					if err == nil {
						want[p] = resultOf(&PanelArtifact{Intervals: set, Assignment: a}, nil)
					} else {
						want[p] = resultOf(nil, err)
					}
				}
				// Then one pass with no collection, so the scratch passes
				// from panel to panel.
				reused := new(assign.Model)
				arts := make(map[int]*PanelArtifact)
				for _, p := range order {
					for _, q := range []int{largest, smallest} {
						qs, err := GenerateStage(d, idx, idx.PinsInPanel(q), 1)
						if err != nil {
							t.Fatal(err)
						}
						reused.Rebuild(qs.Set, cfg.profit(), 1)
						SolvePanel(ctx, d, idx, q, "", cfg, 1)
					}
					art, err := SolvePanel(ctx, d, idx, p, "", cfg, 1)
					if got := resultOf(art, err); !got.equal(want[p]) {
						t.Fatalf("panel %d: solved on reused scratch %+v, fresh %+v", p, got, want[p])
					}
					if err == nil {
						arts[p] = art
					}
					reused.Rebuild(fresh[p].Model.Set, cfg.profit(), 1)
					if !reflect.DeepEqual(reused.Conflicts.Sets, fresh[p].Model.Conflicts.Sets) ||
						!reflect.DeepEqual(reused.Conflicts.MemberOf, fresh[p].Model.Conflicts.MemberOf) {
						t.Fatalf("panel %d: the model rebuilt in place indexes other conflicts than a fresh one", p)
					}
				}
				for p, art := range arts {
					if got := resultOf(art, nil); !got.equal(want[p]) {
						t.Errorf("panel %d: its artifact changed after later panels reused the scratch", p)
					}
				}
			})
		}
	}
}
