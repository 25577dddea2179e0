package main

import (
	"os"
	"path/filepath"
	"testing"

	"cpr/internal/analysis"
	"cpr/internal/analysis/all"
)

// writeModule lays out a throwaway Go module for Lint to chew on.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLintFindsSortsAndRelativizes(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": `package a

import (
	"sync"
	"time"
)

type Guarded struct {
	mu sync.Mutex
	n  int
}

func (g *Guarded) Slow() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	time.Sleep(time.Millisecond)
	return g.n
}

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`,
	})
	findings, _, err := Lint(dir, []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(findings), findings)
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.Analyzer)
		if f.File != filepath.Join("a", "a.go") {
			t.Errorf("file not module-relative: %q", f.File)
		}
	}
	// Sorted by position: the lockheld sleep under the mutex (line 16)
	// precedes the maporder float accumulation (line 22).
	if names[0] != "lockheld" || names[1] != "maporder" {
		t.Errorf("findings out of order: %v", names)
	}
	if findings[0].Line >= findings[1].Line {
		t.Errorf("not sorted by line: %d then %d", findings[0].Line, findings[1].Line)
	}
}

func TestLintSuppressionsApplyAndAreValidated(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"b/b.go": `package b

func SumA(m map[string]float64) float64 {
	var s float64
	//cprlint:ordered single-entry map in every caller
	for _, v := range m {
		s += v
	}
	return s
}

func SumB(m map[string]float64) float64 {
	var s float64
	//cprlint:maporder
	for _, v := range m {
		s += v
	}
	return s
}
`,
	})
	findings, _, err := Lint(dir, []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	// SumA is silenced. SumB's reason-less suppression does not apply, so
	// both the maporder finding and the bad-suppression finding survive.
	var analyzers []string
	for _, f := range findings {
		analyzers = append(analyzers, f.Analyzer)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings %v, want 2", len(findings), analyzers)
	}
	seen := map[string]bool{}
	for _, a := range analyzers {
		seen[a] = true
	}
	if !seen["maporder"] || !seen["cprlint"] {
		t.Errorf("want one maporder and one cprlint finding, got %v", analyzers)
	}
}

func TestLintCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"c/c.go": `package c

func Add(a, b int) int { return a + b }
`,
	})
	findings, _, err := Lint(dir, []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("clean module produced findings: %+v", findings)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	names := func(as []*analysis.Analyzer) []string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return out
	}

	full, err := selectAnalyzers("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(all.Analyzers()) {
		t.Errorf("default selection: got %v", names(full))
	}

	only, err := selectAnalyzers("maporder,nondeterm", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(only); len(got) != 2 || got[0] != "maporder" || got[1] != "nondeterm" {
		t.Errorf("-enable selection wrong: %v", got)
	}

	without, err := selectAnalyzers("", "lockheld")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names(without) {
		if n == "lockheld" {
			t.Error("-disable did not drop lockheld")
		}
	}
	if len(without) != len(all.Analyzers())-1 {
		t.Errorf("-disable selection wrong: %v", names(without))
	}

	if _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Error("unknown -enable name must error")
	}
	if _, err := selectAnalyzers("", "nosuch"); err == nil {
		t.Error("unknown -disable name must error")
	}
	if _, err := selectAnalyzers("maporder", "maporder"); err == nil {
		t.Error("selecting nothing must error")
	}
}
