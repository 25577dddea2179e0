package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cpr/client"
	"cpr/internal/core"
	"cpr/internal/metrics"
	"cpr/internal/synth"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	v, n, err := percentile(xs, 90)
	if err != nil || n != 100 || v < 90 || v > 91 {
		t.Fatalf("p90 of 1..100 = %v over %d samples (err %v), want 90..91 over 100", v, n, err)
	}
	if v, n, err := percentile([]float64{3, 1, 2}, 50); err != nil || v != 2 || n != 3 {
		t.Fatalf("p50 of {1,2,3} = %v over %d samples (err %v), want 2 over 3", v, n, err)
	}
	// 99 samples leave 9.9 beyond p90: too few for a tail.
	if _, n, err := percentile(xs[:99], 90); err == nil || n != 99 {
		t.Fatalf("p90 of 99 samples: n=%d err=%v, want an error naming 99 samples", n, err)
	}
	if _, _, err := percentile(nil, 50); err == nil {
		t.Fatal("p50 of no samples succeeded")
	}
}

// TestTraceOpsSelfTimeAndReplayMismatch runs traceOps over a fake batch
// whose public call takes 40 ms and reports 25 ms of timed stages, and
// whose replay spends 5 ms in the grid build: core.self_ms is what is
// left, about 10 ms. The second op's replay reaches another outcome and
// fails.
func TestTraceOpsSelfTimeAndReplayMismatch(t *testing.T) {
	b := batch{
		n:   2,
		run: func(int) error { time.Sleep(40 * time.Millisecond); return nil },
		check: func(int, *tally) (outcome, error) {
			return outcome{pins: 3, objective: 1.5, layers: 25 * time.Millisecond}, nil
		},
		replay: func(tr *tracer, root int, _ *tally, i int) (outcome, *pinOptReplay, error) {
			tr.call("grid.build", root, func() { time.Sleep(5 * time.Millisecond) })
			return outcome{pins: 3 + i, objective: 1.5}, &pinOptReplay{busy: time.Millisecond, wall: time.Millisecond, workers: 1}, nil
		},
	}
	r := newReport()
	traceOps(r, newTracer(), b, "grid.build")
	r.close()
	if r.Attempted != 2 || r.Failed != 1 || len(r.failures) != 1 || !strings.Contains(r.failures[0], "replay reached") {
		t.Fatalf("attempted=%d failed=%d failures=%q, want the second op's replay mismatch", r.Attempted, r.Failed, r.failures)
	}
	// Only the first op passed; the mean is over both ops.
	if self := r.Metrics["core.self_ms"].Value * 2; self < 5 || self > 30 {
		t.Fatalf("core.self_ms of the passing op = %.2f ms, want about 10", self)
	}
	if g := r.Metrics["grid.build_ms"].Value * 2; g < 5 || g > 20 {
		t.Fatalf("grid.build_ms summed = %.2f ms, want about 5 per replay", g)
	}
}

// TestBarrierAndTracerAcrossGoroutines runs the barrier and the tracer
// the way a cprd pass does, from several clients at once: no client
// starts a round before every client has finished the one before.
func TestBarrierAndTracerAcrossGoroutines(t *testing.T) {
	const clients, rounds = 3, 50
	b, tr := newBarrier(clients), newTracer()
	var mu sync.Mutex
	done := make([]int, clients) // rounds each client has finished
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b.wait()
				mu.Lock()
				for other, n := range done {
					if n < r {
						t.Errorf("client %d started round %d before client %d finished round %d", c, r, other, n)
					}
				}
				mu.Unlock()
				tr.call("round", -1, func() {})
				mu.Lock()
				done[c]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if n := len(tr.spans); n != clients*rounds {
		t.Fatalf("%d spans recorded, want %d", n, clients*rounds)
	}
}

func TestSameSeedSameOpSequence(t *testing.T) {
	f1, w1 := flowOps(7, 20)
	f2, w2 := flowOps(7, 20)
	if !reflect.DeepEqual(f1, f2) || w1 != w2 {
		t.Fatal("flow-cold: the same seed gave different op sequences")
	}
	if f3, _ := flowOps(8, 20); reflect.DeepEqual(f1, f3) {
		t.Fatal("flow-cold: seeds 7 and 8 gave the same op sequence")
	}

	s1, o1 := pinoptOps(7, 20)
	s2, o2 := pinoptOps(7, 20)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("pinopt-table2: the same seed gave different op sequences")
	}
	if _, o3 := pinoptOps(8, 20); reflect.DeepEqual(o1, o3) {
		t.Fatal("pinopt-table2: seeds 7 and 8 gave the same op sequence")
	}

	for _, ecoFast := range []bool{false, true} {
		p1, _ := ecoPlan(7, 20, ecoFast)
		p2, _ := ecoPlan(7, 20, ecoFast)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("cprd (eco-fast %t): the same seed gave different op sequences", ecoFast)
		}
		if p3, _ := ecoPlan(8, 20, ecoFast); reflect.DeepEqual(p1, p3) {
			t.Fatalf("cprd (eco-fast %t): seeds 7 and 8 gave the same op sequence", ecoFast)
		}
		kinds := map[reqKind]int{}
		for _, p := range p1 {
			for _, st := range p.steps {
				kinds[st.kind]++
			}
		}
		sessions := len(p1[0].sessions)
		if kinds[kindHit] < 200 || kinds[kindCold] != sessions || kinds[kindStrict] != sessions ||
			(kinds[kindEcoFast] == sessions) != ecoFast || kinds[kindSync] != sessions*ecoClients {
			t.Fatalf("cprd (eco-fast %t) plan of %d sessions has %v steps by kind, want one cold and strict (and eco-fast) per session and at least 200 hits",
				ecoFast, sessions, kinds)
		}
	}
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	d := synth.MustGenerate(synth.Spec{Name: "tiny", Nets: 20, Width: 40, Height: 40, Seed: 3})
	res, err := core.Run(d, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFlow(d, res, nil); err != nil {
		t.Fatalf("clean result failed its check: %v", err)
	}

	// Select a second interval for a pin that already has one.
	sol := res.Artifacts.Panels[0].Assignment.Solution
	set := res.Artifacts.Panels[0].Intervals.Set
	corrupted := false
	for pin, iv := range sol.ByPin {
		for _, other := range set.ByPin[pin] {
			if other != iv {
				sol.ByPin[pin] = other
				corrupted = true
				break
			}
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("no pin with a second interval to corrupt")
	}

	r := newReport()
	r.attempt(nil)
	r.attempt(checkFlow(d, res, nil))
	r.setOK()
	r.close()
	if r.Correct || r.Attempted != 2 || r.Failed != 1 || r.Metrics["ok_pct"].Value != 50 {
		t.Fatalf("report after one corrupted op of two: correct=%t attempted=%d failed=%d ok_pct=%v",
			r.Correct, r.Attempted, r.Failed, r.Metrics["ok_pct"].Value)
	}
	if len(r.failures) != 1 {
		t.Fatalf("failures = %q, want the corrupted op's reason", r.failures)
	}
}

func TestCorruptedHitMetricsCountAsFailed(t *testing.T) {
	cold := &client.Result{Metrics: metrics.Routing{Circuit: "c", TotalNets: 10, RoutedNets: 9, Vias: 4, CPUSeconds: 1}}
	hit := *cold
	hit.Metrics.CPUSeconds = 0.001 // wall-clock fields may differ
	if err := sameMetrics("hit", &hit, cold); err != nil {
		t.Fatalf("hit differing only in time failed: %v", err)
	}
	hit.Metrics.Vias++
	err := sameMetrics("hit", &hit, cold)
	if err == nil || !strings.Contains(err.Error(), "hit of c") {
		t.Fatalf("hit with a changed via count: err=%v", err)
	}
	r := newReport()
	r.attempt(err)
	r.attempt(errors.New("cprd: 503 Service Unavailable"))
	if r.Failed != 2 {
		t.Fatalf("failed = %d, want 2", r.Failed)
	}
}

// TestManifestMatchesBenchmarkJSON keeps the metric lists the program
// prints in its JSON line equal to the ones BENCHMARK.json registers.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: the program registers %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (metricDef{m.Name, m.Unit}) {
				t.Errorf("%s metric %d: the program has %v, BENCHMARK.json %s in %s", kind, i, got[i], m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, manifest.EndToEnd)
	same("per_layer", perLayer(), manifest.PerLayer)
	for _, w := range manifest.Workloads {
		found := false
		for _, have := range workloads {
			found = found || have.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json registers workload %s, which the program does not run", w.Name)
		}
	}
}

func TestRegisteredMetricsOnly(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"router.rounds", "count"}}
	r := newReport()
	r.set("a_ms", 1.5, "ms", 3)
	r.set("table_only", 2, "count", 1)
	if err := r.registered(defs, nil); err == nil || !strings.Contains(err.Error(), "router.rounds") {
		t.Fatalf("a missing metric of a layer the workload reaches: err=%v", err)
	}
	r = newReport()
	r.set("a_ms", 1.5, "ms", 3)
	r.set("table_only", 2, "count", 1)
	if err := r.registered(defs, []string{"router"}); err != nil {
		t.Fatal(err)
	}
	if len(r.json) != 2 || r.json["router.rounds"].Value != 0 || r.json["a_ms"].Value != 1.5 {
		t.Fatalf("JSON metrics = %v, want a_ms and router.rounds = 0 only", r.json)
	}
	r = newReport()
	r.set("a_ms", 1.5, "s", 3)
	if err := r.registered(defs[:1], nil); err == nil {
		t.Fatal("a metric in the wrong unit was accepted")
	}
	r = newReport()
	r.set("a_ms", 1.5, "ms", 3)
	r.set("router.rounds", 4, "count", 3)
	if err := r.registered(defs, []string{"router"}); err == nil {
		t.Fatal("a measured metric of a bypassed group was overwritten")
	}
}
