// Package engine drives summary-based interprocedural analysis over a
// module: it walks the `go list -deps` graph, summarizes in-module
// dependency packages in memory (running only fact-producing analyzers
// on them), then runs the full analyzer set on the target packages with
// every dependency's facts already in the store. Dependencies are
// processed before dependents, so a function's summary — "blocks on
// I/O", "reads the wall clock", "reads Options field X" — is always
// complete by the time its callers are checked.
package engine

import (
	"fmt"
	"go/token"
	"sort"
	"time"

	"cpr/internal/analysis"
	"cpr/internal/analysis/loader"
)

// Options configures one engine run.
type Options struct {
	// ModuleDir is the module root (where go list runs).
	ModuleDir string
	// Analyzers are the diagnostic-producing analyzers to run on target
	// packages. Their Requires closure is scheduled automatically.
	Analyzers []*analysis.Analyzer
	// Known, when non-nil, enables suppression-comment validation on
	// target packages (analyzer names and aliases mapped to true).
	Known map[string]bool
}

// Finding is one resolved diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Timing aggregates one analyzer's cost across the run.
type Timing struct {
	Analyzer string  `json:"analyzer"`
	Packages int     `json:"packages"`
	Seconds  float64 `json:"seconds"`
}

// Engine runs analyzers over a module. Create with New; not safe for
// concurrent use.
type Engine struct {
	opts    Options
	loader  *loader.Loader
	store   *analysis.FactStore
	closure []*analysis.Analyzer // Requires-closed, topo order
	timings map[string]*Timing
}

// New creates an engine. The loader and fact store live for the
// engine's lifetime, so successive Run calls share type-checking work.
func New(opts Options) *Engine {
	return &Engine{
		opts:    opts,
		loader:  loader.New(opts.ModuleDir),
		store:   analysis.NewFactStore(),
		closure: analysis.Closure(opts.Analyzers),
		timings: make(map[string]*Timing),
	}
}

// Run analyzes every package matching the patterns and returns the
// surviving findings sorted by position, plus per-analyzer timings.
func (e *Engine) Run(patterns ...string) ([]Finding, []Timing, error) {
	roots, err := e.loader.List(patterns...)
	if err != nil {
		return nil, nil, err
	}
	targets := make(map[string]bool, len(roots))
	modPath := ""
	for _, r := range roots {
		targets[r.ImportPath] = true
		if modPath == "" && r.Module != nil {
			modPath = r.Module.Path
		}
	}

	order, err := e.topoOrder(roots, modPath)
	if err != nil {
		return nil, nil, err
	}

	producers := analysis.Producers(e.closure)
	var findings []Finding
	for _, path := range order {
		fs, err := e.runPackage(path, targets[path], producers)
		if err != nil {
			return nil, nil, err
		}
		findings = append(findings, fs...)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	var timings []Timing
	for _, t := range e.timings {
		timings = append(timings, *t)
	}
	sort.Slice(timings, func(i, j int) bool { return timings[i].Analyzer < timings[j].Analyzer })
	return findings, timings, nil
}

// topoOrder returns the module-internal packages reachable from roots,
// dependencies before dependents, deterministically.
func (e *Engine) topoOrder(roots []*loader.Meta, modPath string) ([]string, error) {
	var order []string
	state := make(map[string]int) // 0 unseen, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("engine: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		m, err := e.loader.Describe(path)
		if err != nil {
			return err
		}
		imports := append([]string(nil), m.Imports...)
		sort.Strings(imports)
		for _, imp := range imports {
			if imp == "C" || imp == "unsafe" {
				continue
			}
			if mapped, ok := m.ImportMap[imp]; ok {
				imp = mapped
			}
			im, err := e.loader.Describe(imp)
			if err != nil {
				return err
			}
			if !im.InModule(modPath) {
				continue
			}
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	for _, r := range roots {
		if err := visit(r.ImportPath); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// runPackage summarizes (and, for targets, fully analyzes) one package.
func (e *Engine) runPackage(path string, isTarget bool, producers []*analysis.Analyzer) ([]Finding, error) {
	toRun := e.closure
	if !isTarget {
		if len(producers) == 0 {
			return nil, nil // nothing to learn from dependencies
		}
		toRun = producers
	}

	pkg, err := e.loader.LoadPath(path)
	if err != nil {
		return nil, err
	}

	selected := make(map[*analysis.Analyzer]bool, len(e.opts.Analyzers))
	for _, a := range e.opts.Analyzers {
		selected[a] = true
	}

	var findings []Finding
	for _, a := range toRun {
		if len(a.FactTypes) > 0 && e.store.Analyzed(a.Name, path) {
			continue
		}
		start := time.Now()
		diags, err := runPass(e.loader.Fset, e.store, pkg, a)
		if err != nil {
			return nil, err
		}
		e.addTiming(a.Name, time.Since(start))
		if !isTarget || !selected[a] {
			continue
		}
		for _, d := range analysis.Filter(e.loader.Fset, pkg.Files, a, diags) {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Pos:      e.loader.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
	}

	if isTarget && e.opts.Known != nil {
		for _, d := range analysis.CheckSuppressions(e.loader.Fset, pkg.Files, e.opts.Known) {
			findings = append(findings, Finding{
				Analyzer: "cprlint",
				Pos:      e.loader.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
	}
	return findings, nil
}

// runPass runs analyzer a on pkg and returns its raw diagnostics. A fact
// producer's package is then marked analyzed in store, so neither Run
// nor RunOverlay summarizes it twice.
func runPass(fset *token.FileSet, store *analysis.FactStore, pkg *loader.Package, a *analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Facts:     store,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("engine: %s on %s: %w", a.Name, pkg.PkgPath, err)
	}
	if len(a.FactTypes) > 0 {
		store.MarkAnalyzed(a.Name, pkg.PkgPath)
	}
	return diags, nil
}

func (e *Engine) addTiming(name string, d time.Duration) {
	t, ok := e.timings[name]
	if !ok {
		t = &Timing{Analyzer: name}
		e.timings[name] = t
	}
	t.Packages++
	t.Seconds += d.Seconds()
}

// RunOverlay runs the analyzers' requirement closure over an
// analysistest overlay: fact producers walk root's source-loaded
// imports post-order (stubs the golden package pulled in through the
// loader overlay), then every analyzer in the closure runs on root
// itself. It returns root's raw diagnostics per analyzer name —
// suppression filtering is the caller's job, so golden tests can pin
// filtering behavior explicitly.
func RunOverlay(l *loader.Loader, store *analysis.FactStore, root *loader.Package, analyzers []*analysis.Analyzer) (map[string][]analysis.Diagnostic, error) {
	closure := analysis.Closure(analyzers)
	producers := analysis.Producers(closure)

	var summarize func(tp *loader.Package) error
	summarize = func(tp *loader.Package) error {
		for _, imp := range tp.Types.Imports() {
			dep, ok := l.SourcePkg(imp.Path())
			if !ok {
				continue // export-data import: stdlib handled by builtin tables
			}
			if err := summarize(dep); err != nil {
				return err
			}
		}
		if tp == root {
			return nil
		}
		for _, a := range producers {
			if store.Analyzed(a.Name, tp.PkgPath) {
				continue
			}
			// Producer diagnostics on stubs are not under test.
			if _, err := runPass(l.Fset, store, tp, a); err != nil {
				return err
			}
		}
		return nil
	}
	if err := summarize(root); err != nil {
		return nil, err
	}

	// Run the full closure on root even when a producer already
	// summarized it as some earlier root's dependency: fact export is
	// deterministic and idempotent, and diagnostics must not be lost.
	out := make(map[string][]analysis.Diagnostic)
	for _, a := range closure {
		diags, err := runPass(l.Fset, store, root, a)
		if err != nil {
			return nil, err
		}
		out[a.Name] = diags
	}
	return out, nil
}
