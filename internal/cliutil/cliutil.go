// Package cliutil centralizes the flag spellings, default values, and
// help strings shared by the cpr command-line tools (cpr, pinopt,
// experiments, benchgen, cprd), so -workers/-seed/-mode and friends
// cannot drift between binaries again.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/telemetry"
)

// AllCircuits is the canonical -circuits default covering every Table 2
// preset.
const AllCircuits = "ecc,efc,ctl,alu,div,top"

// Workers registers the canonical -workers flag on the default flag set.
func Workers() *int {
	return flag.Int("workers", 0,
		"optimization worker count (0 = GOMAXPROCS, 1 = sequential; results are identical)")
}

// Seed registers the canonical -seed flag with a tool-specific default.
func Seed(def int64) *int64 {
	return flag.Int64("seed", def, "deterministic generator seed")
}

// Mode registers the canonical -mode flag (parse with core.ParseMode).
func Mode() *string {
	return flag.String("mode", "cpr", "routing flow: cpr, nopinopt, sequential")
}

// Optimizer registers the canonical -optimizer flag (parse with
// core.ParseOptimizer).
func Optimizer() *string {
	return flag.String("optimizer", "lr", "pin access optimizer for cpr mode: lr, ilp")
}

// Circuits registers the canonical -circuits flag with a tool-specific
// default ("" means the tool treats absence specially).
func Circuits(def, extra string) *string {
	usage := "comma-separated Table 2 circuit names (ecc efc ctl alu div top)"
	if extra != "" {
		usage += "; " + extra
	}
	return flag.String("circuits", def, usage)
}

// RuleEngine registers the canonical -rule-engine flag (validate with
// tech.ParseEngine, apply through core.Options.RuleEngine). The empty
// default keeps whatever engine the design carries (sadp when none).
func RuleEngine() *string {
	return flag.String("rule-engine", "",
		"multi-patterning rule engine: sadp, lele, tpl (empty keeps the design's engine; unknown names fail)")
}

// ILPTimeout registers the canonical -ilp-timeout flag with a
// tool-specific default.
func ILPTimeout(def time.Duration) *time.Duration {
	return flag.Duration("ilp-timeout", def, "per-panel ILP time limit (0 = no cap)")
}

// Trace registers the canonical -trace flag: a file the run's span
// trace is written to. Tracing is strictly observational — results are
// byte-identical with or without it.
func Trace() *string {
	return flag.String("trace", "",
		"write the run's pipeline span trace to this file (results are identical with tracing on or off)")
}

// TraceFormat registers the canonical -trace-format flag.
func TraceFormat() *string {
	return flag.String("trace-format", "chrome",
		"trace encoding: chrome (trace_event JSON for chrome://tracing / Perfetto) or json (raw span records)")
}

// StartTrace attaches a fresh tracer to ctx when path is non-empty and
// returns a flush function that writes the collected trace to path in
// the given format ("chrome" or "json"; "" means chrome). With an empty
// path ctx passes through and the flush is a no-op.
func StartTrace(ctx context.Context, path, format string) (context.Context, func() error, error) {
	if path == "" {
		return ctx, func() error { return nil }, nil
	}
	switch format {
	case "", "chrome", "json":
	default:
		return ctx, nil, fmt.Errorf("unknown -trace-format %q (want chrome, json)", format)
	}
	tr := telemetry.New()
	ctx = telemetry.WithTracer(ctx, tr)
	flush := func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if format == "json" {
			err = tr.WriteJSON(f, telemetry.ExportOptions{})
		} else {
			err = tr.WriteChromeTrace(f, telemetry.ExportOptions{})
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return ctx, flush, nil
}

// Baseline registers the canonical -baseline flag: a cpr-design file of
// a previous design revision to rerun against incrementally.
func Baseline() *string {
	return flag.String("baseline", "",
		"cpr-design file of a previous revision; it is optimized first and the main design is rerun incrementally against it (identical results, only dirtied panels recomputed)")
}

// RerunMode registers the canonical -rerun-mode flag (parse with
// core.ParseRerunMode). It selects the incremental-rerun contract used
// together with -baseline: strict reruns are byte-identical to a cold
// run, eco-fast reruns additionally warm-start dirtied nets from the
// baseline's routes and are checked DRC-clean only.
func RerunMode() *string {
	return flag.String("rerun-mode", "strict",
		"incremental rerun contract with -baseline: strict (byte-identical to a cold run) or eco-fast (warm-starts dirtied nets; checked DRC-clean only, routes and routed nets may differ)")
}

// ReadDesign loads a cpr-design file.
func ReadDesign(path string) (*design.Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := designio.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Fatal prints a tool-prefixed error and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
