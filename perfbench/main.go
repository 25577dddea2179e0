// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one workload as a fixed, seeded op sequence, checks
// every op's output off the clock, and prints its metrics; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 15, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with no
// tracing at all); with -trace 1 the same op sequence is replayed as
// calls into each layer's public functions, each call wrapped in an
// in-memory span, and the per-layer metrics are printed instead. The
// JSON line carries exactly the metrics BENCHMARK.json registers for the
// mode (manifest.go), the same set for every workload; the table above
// it shows everything measured.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload flow-cold --seed 1 --seconds 20 --trace 0
//
// README.md in this directory records, for every workload, its
// generator specs, loop type, settings, the layers it stresses and
// bypasses, and which end-to-end metric each per-layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// workload runs one workload end to end. The untraced run reports the
// end-to-end metrics; the traced run the per-layer metrics. bypassed
// names the per-layer groups (manifest.go) its ops never reach.
type workload struct {
	name     string
	untraced func(cfg runConfig) (*report, error)
	traced   func(cfg runConfig) (*report, error)
	bypassed []string
}

var workloads = []workload{
	{"flow-cold", runFlowCold, traceFlowCold, []string{"daemon"}},
	{"pinopt-table2", runPinOpt, tracePinOpt, []string{"router", "daemon"}},
	// cprd-strict is cprd-eco without its eco-fast reruns; see README.md
	// for why only it is registered in BENCHMARK.json.
	{"cprd-strict",
		func(cfg runConfig) (*report, error) { return runEco(cfg, false) },
		func(cfg runConfig) (*report, error) { return traceEco(cfg, false) }, nil},
	{"cprd-eco",
		func(cfg runConfig) (*report, error) { return runEco(cfg, true) },
		func(cfg runConfig) (*report, error) { return traceEco(cfg, true) }, nil},
}

// runConfig carries the command-line settings every workload shares.
type runConfig struct {
	seed    int64
	seconds int
	// workers is the machine's processor count; no workload keeps more
	// busy threads than this.
	workers int
}

func main() {
	name := flag.String("workload", "", "workload to run: flow-cold, pinopt-table2, cprd-strict or cprd-eco")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same op sequence")
	seconds := flag.Int("seconds", 20, "nominal measured duration; sizes the fixed op sequence")
	trace := flag.Int("trace", 0, "1 replays the ops as traced layer calls and prints per-layer metrics")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, workers: runtime.GOMAXPROCS(0)}
	run, defs, bypassed := w.untraced, endToEnd, []string(nil)
	if *trace == 1 {
		run, defs, bypassed = w.traced, perLayer(), w.bypassed
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.registered(defs, bypassed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout, w.name, *seed)
}

// metric is one reported number. n is the number of samples behind it,
// printed in the table but kept out of the JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report is a workload's outcome: the op tally and its metrics.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	// Metrics holds everything measured; the table shows it all.
	Metrics map[string]metric

	// json holds the registered metrics, the JSON line's (set by
	// registered).
	json map[string]metric
	// failures holds the reasons of the first few failed ops.
	failures []string
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

// set records a metric with the number of samples behind it.
func (r *report) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, n: n}
}

// attempt counts one op; a non-nil err counts it as failed.
func (r *report) attempt(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

// setOK records ok_pct, the share of attempted ops that completed and
// passed their output check: the complement of the failed share,
// reported this way round so the metric is never zero.
func (r *report) setOK() {
	r.set("ok_pct", 100*float64(r.Attempted-r.Failed)/float64(max(1, r.Attempted)), "%", r.Attempted)
}

// close marks the run correct when every attempted op passed.
func (r *report) close() { r.Correct = r.Failed == 0 && r.Attempted > 0 }

func (r *report) print(f *os.File, workload string, seed int64) {
	fmt.Fprintf(f, "# %s seed=%d attempted=%d failed=%d\n", workload, seed, r.Attempted, r.Failed)
	for _, reason := range r.failures {
		fmt.Fprintf(f, "# failed: %s\n", reason)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(f, "# %-32s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.json})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(line))
}
