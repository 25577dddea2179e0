// Package all registers every cprlint analyzer. cmd/cprlint and the
// lint CI job consume this list; adding an analyzer here wires it into
// the whole toolchain.
package all

import (
	"cpr/internal/analysis"
	"cpr/internal/analysis/ctxpass"
	"cpr/internal/analysis/deferclose"
	"cpr/internal/analysis/errdrop"
	"cpr/internal/analysis/floatreduce"
	"cpr/internal/analysis/goroleak"
	"cpr/internal/analysis/keypurity"
	"cpr/internal/analysis/lockheld"
	"cpr/internal/analysis/maporder"
	"cpr/internal/analysis/nondeterm"
)

// Analyzers returns the full suite in stable (alphabetical) order.
// funcsum is deliberately absent: it produces facts, not diagnostics,
// and the engine schedules it implicitly through Requires.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpass.Analyzer,
		deferclose.Analyzer,
		errdrop.Analyzer,
		floatreduce.Analyzer,
		goroleak.Analyzer,
		keypurity.Analyzer,
		lockheld.Analyzer,
		maporder.Analyzer,
		nondeterm.Analyzer,
	}
}

// Known maps every analyzer name and suppression alias to true, for
// validating //cprlint: comments.
func Known() map[string]bool {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
		for _, alias := range a.SuppressAliases {
			known[alias] = true
		}
	}
	return known
}
