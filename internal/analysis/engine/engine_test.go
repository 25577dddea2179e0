package engine_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cpr/internal/analysis"
	"cpr/internal/analysis/engine"
	"cpr/internal/analysis/lockheld"
)

// writeModule lays out a throwaway Go module for the engine to analyze.
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

// crossPackageModule is a two-package module where the only lockheld
// finding depends on the dependency package's funcsum summary: svc holds
// a mutex across a call into util, and only util's fact says it blocks.
func crossPackageModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"util/util.go": `package util

import "time"

// Slow blocks for a moment.
func Slow() { time.Sleep(time.Millisecond) }
`,
		"svc/svc.go": `package svc

import (
	"sync"

	"tmpmod/util"
)

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) Do() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	util.Slow()
	return s.n
}
`,
	})
}

// runFresh analyzes ./svc with a brand-new engine (no shared loader or
// fact store), so every finding comes from the module's current source.
func runFresh(t *testing.T, dir string) []engine.Finding {
	t.Helper()
	e := engine.New(engine.Options{
		ModuleDir: dir,
		Analyzers: []*analysis.Analyzer{lockheld.Analyzer},
	})
	findings, _, err := e.Run("./svc")
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	return findings
}

// TestCrossPackageFacts proves the engine summarizes a dependency that
// is not an analysis target and carries its facts to the dependent: the
// only finding in ./svc needs util's funcsum summary.
func TestCrossPackageFacts(t *testing.T) {
	dir := crossPackageModule(t)
	if got := runFresh(t, dir); len(got) != 1 ||
		!strings.Contains(got[0].Message, "tmpmod/util.Slow") {
		t.Fatalf("got %+v, want one lockheld finding via tmpmod/util.Slow", got)
	}
}

// TestStaleFactsInvalidated proves no dependency summary outlives its
// source: rewriting util so Slow no longer blocks removes the finding,
// and restoring it brings the finding back.
func TestStaleFactsInvalidated(t *testing.T) {
	dir := crossPackageModule(t)
	utilPath := filepath.Join(dir, "util", "util.go")
	blocking, err := os.ReadFile(utilPath)
	if err != nil {
		t.Fatal(err)
	}

	if got := runFresh(t, dir); len(got) != 1 {
		t.Fatalf("first run: got %+v, want one finding", got)
	}

	if err := os.WriteFile(utilPath, []byte(`package util

// Slow no longer blocks.
func Slow() {}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runFresh(t, dir); len(got) != 0 {
		t.Fatalf("after util stopped blocking: got %+v, want no findings", got)
	}

	if err := os.WriteFile(utilPath, blocking, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runFresh(t, dir); len(got) != 1 {
		t.Fatalf("after util was restored: got %+v, want the finding back", got)
	}
}

// noteFact is a throwaway package fact for the isolation test.
type noteFact struct {
	Msg string `json:"msg"`
}

func (*noteFact) AFact() {}

// TestAnalyzerIsolation proves a pass can import facts only from itself
// or analyzers it declares in Requires: two otherwise identical
// consumers differ only in Requires, and only the declaring one sees
// the producer's fact.
func TestAnalyzerIsolation(t *testing.T) {
	producer := &analysis.Analyzer{
		Name:      "producer",
		Doc:       "exports one package fact",
		FactTypes: []analysis.Fact{(*noteFact)(nil)},
	}
	producer.Run = func(pass *analysis.Pass) error {
		pass.ExportPackageFact(&noteFact{Msg: "hello"})
		return nil
	}
	consumer := func(name string, requires []*analysis.Analyzer) *analysis.Analyzer {
		a := &analysis.Analyzer{Name: name, Doc: "imports the note", Requires: requires}
		a.Run = func(pass *analysis.Pass) error {
			var f noteFact
			if pass.ImportPackageFact(producer, pass.Pkg.Path(), &f) {
				pass.Reportf(pass.Files[0].Pos(), "%s saw %q", name, f.Msg)
			} else {
				pass.Reportf(pass.Files[0].Pos(), "%s saw nothing", name)
			}
			return nil
		}
		return a
	}
	declaring := consumer("declaring", []*analysis.Analyzer{producer})
	isolated := consumer("isolated", nil)

	dir := writeModule(t, map[string]string{
		"p/p.go": "package p\n\nfunc F() {}\n",
	})
	e := engine.New(engine.Options{
		ModuleDir: dir,
		Analyzers: []*analysis.Analyzer{declaring, isolated},
	})
	findings, _, err := e.Run("./p")
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	got := make(map[string]string)
	for _, f := range findings {
		got[f.Analyzer] = f.Message
	}
	if got["declaring"] != `declaring saw "hello"` {
		t.Errorf("declaring consumer: %q, want the producer's fact", got["declaring"])
	}
	if got["isolated"] != "isolated saw nothing" {
		t.Errorf("isolated consumer: %q, want the fact to be invisible without Requires", got["isolated"])
	}
}
