// Command cprlint is the repo's determinism & robustness linter: a
// multichecker driving the internal/analysis suite (maporder,
// nondeterm, floatreduce, ctxpass, errdrop, plus the interprocedural
// lockheld, keypurity, goroleak, and deferclose) over package patterns,
// with //cprlint:<analyzer> <reason> suppression comments enforced to
// carry reasons. Lock copies are left to go vet's copylocks check.
//
// The v2 analyzers are summary-based: the engine walks the
// `go list -deps` graph, summarizes in-module dependency packages
// bottom-up in memory (funcsum facts: blocking, clock reads,
// option-field reads, ...), and checks targets with every dependency's
// summary in scope.
//
// Usage:
//
//	cprlint [flags] [packages]
//
//	-json             emit {"findings": [...], "timings": [...]} JSON
//	-list             print the analyzers and exit
//	-enable  a,b,...  run only the named analyzers
//	-disable a,b,...  skip the named analyzers
//
// Exit status: 0 when clean, 1 on findings, 2 on usage or load errors.
// The CI lint job runs `cprlint ./...` and additionally asserts that
// `cprlint -json ./...` reports an empty findings list, so any new
// finding — including an unjustified suppression — fails the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cpr/internal/analysis"
	"cpr/internal/analysis/all"
	"cpr/internal/analysis/engine"
)

// finding is one reported diagnostic, JSON-ready.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Findings []finding       `json:"findings"`
	Timings  []engine.Timing `json:"timings"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and per-analyzer timings as JSON")
	list := flag.Bool("list", false, "list analyzers and exit")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	flag.Parse()

	if *list {
		for _, a := range all.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cprlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cprlint:", err)
		os.Exit(2)
	}
	findings, timings, err := Lint(wd, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cprlint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		report := jsonReport{Findings: findings, Timings: timings}
		if report.Findings == nil {
			report.Findings = []finding{}
		}
		if report.Timings == nil {
			report.Timings = []engine.Timing{}
		}
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "cprlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "cprlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// selectAnalyzers applies -enable/-disable to the registry.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range all.Analyzers() {
		byName[a.Name] = a
	}
	parseList := func(s string) (map[string]bool, error) {
		set := make(map[string]bool)
		if s == "" {
			return set, nil
		}
		for _, name := range strings.Split(s, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parseList(enable)
	if err != nil {
		return nil, err
	}
	off, err := parseList(disable)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range all.Analyzers() {
		if len(on) > 0 && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// Lint runs the engine on the patterns from moduleDir and returns
// module-relative findings sorted by position, plus per-analyzer
// timings. Suppression comments are applied (and validated: a
// //cprlint: comment with a bad name or no reason is itself a finding,
// under the "cprlint" analyzer name).
func Lint(moduleDir string, patterns []string, analyzers []*analysis.Analyzer) ([]finding, []engine.Timing, error) {
	e := engine.New(engine.Options{
		ModuleDir: moduleDir,
		Analyzers: analyzers,
		Known:     all.Known(),
	})
	raw, timings, err := e.Run(patterns...)
	if err != nil {
		return nil, nil, err
	}
	var findings []finding
	for _, f := range raw {
		file := f.Pos.Filename
		if rel, err := relIfUnder(moduleDir, file); err == nil {
			file = rel
		}
		findings = append(findings, finding{
			Analyzer: f.Analyzer,
			File:     file,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	return findings, timings, nil
}

// relIfUnder returns target relative to base when target lies under it.
func relIfUnder(base, target string) (string, error) {
	if !strings.HasPrefix(target, base+string(os.PathSeparator)) {
		return "", fmt.Errorf("outside module")
	}
	return strings.TrimPrefix(target, base+string(os.PathSeparator)), nil
}
