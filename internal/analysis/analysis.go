// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough driver surface to write
// project-specific static checks as composable Analyzer values and run
// them from cmd/cprlint and from analysistest golden tests.
//
// The x/tools module is deliberately not imported — the repo builds with
// the standard library only — but the shapes (Analyzer, Pass, Diagnostic)
// mirror x/tools so the analyzers could be ported to a stock multichecker
// with mechanical edits.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and
	// //cprlint: suppression comments. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description shown by cprlint -list.
	Doc string
	// SuppressAliases are extra names accepted in suppression comments
	// (e.g. maporder accepts the documented //cprlint:ordered form).
	SuppressAliases []string
	// Requires lists analyzers whose facts this one imports. The engine
	// runs the transitive closure of Requires over every package —
	// dependencies first — before this analyzer sees a target package,
	// so required facts are always complete when Run executes.
	Requires []*Analyzer
	// FactTypes declares the fact types this analyzer exports, as nil
	// pointer prototypes (e.g. (*Summary)(nil)). An analyzer with a
	// non-empty FactTypes is a fact producer: the engine runs it over
	// dependency packages, not just analysis targets.
	FactTypes []Fact
	// Run executes the check on one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files is the package's parsed syntax (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info

	// Facts is the run-wide fact store; never nil.
	Facts *FactStore

	// Report delivers one finding. Drivers install it.
	Report func(Diagnostic)
}

// ExportObjectFact records fact f for obj under this pass's analyzer.
// obj must belong to the package being analyzed (facts flow from
// dependencies to dependents, never sideways).
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj != nil && obj.Pkg() != nil && obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: %s exported a fact for %s, which is outside package %s",
			p.Analyzer.Name, obj.Name(), p.Pkg.Path()))
	}
	p.Facts.Export(p.Analyzer.Name, obj, f)
}

// ExportPackageFact records a package-level fact for the package being
// analyzed.
func (p *Pass) ExportPackageFact(f Fact) {
	p.Facts.ExportPackage(p.Analyzer.Name, p.Pkg.Path(), f)
}

// ImportObjectFact copies the fact exported for obj by `from` — which
// must be this analyzer or one of its Requires — into ptr and reports
// whether one was found. Restricting imports to declared requirements is
// what keeps analyzers isolated: facts of an analyzer you did not
// declare are invisible even when another run left them in the store.
func (p *Pass) ImportObjectFact(from *Analyzer, obj types.Object, ptr Fact) bool {
	if !p.mayImport(from) {
		return false
	}
	return p.Facts.Import(from.Name, obj, ptr)
}

// ImportObjectFactByName is ImportObjectFact addressed by package path
// and ObjectKey, for objects another fact names without a live
// types.Object.
func (p *Pass) ImportObjectFactByName(from *Analyzer, pkgPath, objKey string, ptr Fact) bool {
	if !p.mayImport(from) {
		return false
	}
	return p.Facts.ImportByName(from.Name, pkgPath, objKey, ptr)
}

// ImportPackageFact copies the package-level fact exported for pkgPath
// by `from` into ptr.
func (p *Pass) ImportPackageFact(from *Analyzer, pkgPath string, ptr Fact) bool {
	if !p.mayImport(from) {
		return false
	}
	return p.Facts.ImportPackage(from.Name, pkgPath, ptr)
}

// mayImport reports whether from's facts are visible to this pass.
func (p *Pass) mayImport(from *Analyzer) bool {
	if from == nil {
		return false
	}
	if from == p.Analyzer {
		return true
	}
	for _, r := range p.Analyzer.Requires {
		if r == from {
			return true
		}
	}
	return false
}

// Closure returns the given analyzers plus the transitive closure of
// their Requires, ordered so every analyzer appears after everything it
// requires — the order the engine runs them in on each package.
func Closure(as []*Analyzer) []*Analyzer {
	var out []*Analyzer
	seen := make(map[*Analyzer]bool)
	var visit func(a *Analyzer)
	visit = func(a *Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, r := range a.Requires {
			visit(r)
		}
		out = append(out, a)
	}
	for _, a := range as {
		visit(a)
	}
	return out
}

// Producers filters as down to fact-producing analyzers (FactTypes
// non-empty) — the subset the engine runs over dependency packages.
func Producers(as []*Analyzer) []*Analyzer {
	var out []*Analyzer
	for _, a := range as {
		if len(a.FactTypes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// FuncOf resolves a call expression's callee to a *types.Func, looking
// through parentheses. It returns nil for calls through function values,
// type conversions, and builtins — the cases where no static callee
// exists.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ObjectOf resolves an expression to the variable it names, looking
// through parentheses: identifiers and selector expressions resolve to
// their *types.Var; everything else (index expressions, dereferences,
// calls) yields nil.
func ObjectOf(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		if v == nil {
			v, _ = info.Defs[x].(*types.Var)
		}
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	}
	return nil
}

// IsFloat reports whether t's underlying type is a floating point type.
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
