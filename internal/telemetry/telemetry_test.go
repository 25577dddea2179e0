package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestSpanTree(t *testing.T) {
	tr := New()
	root := tr.StartSpan("run", nil)
	child := tr.StartSpan("pinopt", root)
	child.SetAttr("panels", 3)
	grand := tr.StartSpan("panel", child)
	leaf := tr.StartSpan("assign", grand)
	if leaf.Lane != 0 {
		t.Errorf("leaf lane = %d, want inherited 0", leaf.Lane)
	}
	grand.SetLane(7)
	leaf2 := tr.StartSpan("assign2", grand)
	if leaf2.Lane != 7 {
		t.Errorf("lane not inherited after SetLane: got %d want 7", leaf2.Lane)
	}
	leaf.End()
	leaf2.End()
	grand.End()
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 5 {
		t.Fatalf("got %d spans, want 5", len(recs))
	}
	if recs[0].Name != "run" || recs[0].ParentID != 0 {
		t.Errorf("root record wrong: %+v", recs[0])
	}
	if recs[1].ParentID != recs[0].ID || recs[2].ParentID != recs[1].ID {
		t.Errorf("parent links wrong: %+v", recs[:3])
	}
	if v, ok := tr.Find("pinopt").Attr("panels"); !ok || v != 3 {
		t.Errorf("attr lost: %v %v", v, ok)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", nil)
	if sp != nil {
		t.Fatal("nil tracer must give nil span")
	}
	sp.SetAttr("k", 1)
	sp.SetLane(3)
	sp.End()
	if tr.Snapshot() != nil || tr.Find("x") != nil || tr.FindAll("x") != nil {
		t.Error("nil tracer accessors must return nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&buf, ExportOptions{}); err != nil {
		t.Fatal(err)
	}

	var reg *Registry
	reg.Counter("c", "h").Inc()
	reg.Gauge("g", "h").Set(2)
	reg.Histogram("h", "h", DefSecondsBuckets).Observe(1)
	reg.GaugeFunc("gf", "h", func() float64 { return 1 })
	reg.CounterFunc("cf", "h", func() float64 { return 1 })
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ctx2, sp2 := StartSpan(ctx, "nope")
	if sp2 != nil || ctx2 != ctx {
		t.Error("StartSpan without tracer must be identity")
	}
	if RegistryFrom(ctx) != nil || TracerFrom(ctx) != nil || SpanFrom(ctx) != nil {
		t.Error("empty context must carry no telemetry")
	}
}

func TestContextPlumbing(t *testing.T) {
	tr := New()
	reg := NewRegistry()
	ctx := WithRegistry(WithTracer(context.Background(), tr), reg)
	if TracerFrom(ctx) != tr || RegistryFrom(ctx) != reg {
		t.Fatal("context round trip failed")
	}
	ctx, root := StartSpan(ctx, "run")
	_, child := StartSpan(ctx, "stage")
	if child.ParentID != root.ID {
		t.Errorf("child parent = %d, want %d", child.ParentID, root.ID)
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr := New()
	ctx, root := StartSpan(WithTracer(context.Background(), tr), "run")
	_, sp := StartSpan(ctx, "panel")
	sp.SetLane(2)
	sp.SetAttr("pins", 14)
	sp.SetAttr("key", "abc")
	sp.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(parsed.TraceEvents))
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Errorf("bad event envelope: %+v", ev)
		}
	}
	panel := parsed.TraceEvents[1]
	if panel.Name != "panel" || panel.TID != 2 || panel.Args["pins"] != float64(14) {
		t.Errorf("panel event wrong: %+v", panel)
	}
}

func TestZeroTimesExportIsStable(t *testing.T) {
	build := func() *Tracer {
		tr := New()
		root := tr.StartSpan("run", nil)
		sp := tr.StartSpan("panel", root)
		sp.SetAttr("panel", 0)
		sp.End()
		root.End()
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a, ExportOptions{ZeroTimes: true}); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b, ExportOptions{ZeroTimes: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("zeroed exports differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	var c, d bytes.Buffer
	if err := build().WriteJSON(&c, ExportOptions{ZeroTimes: true}); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&d, ExportOptions{ZeroTimes: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Errorf("zeroed JSON exports differ:\n%s\nvs\n%s", c.String(), d.String())
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("cpr_things_total", "things", L("kind", "a"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if c.Value() != 3 {
		t.Errorf("counter = %g, want 3", c.Value())
	}
	if reg.Counter("cpr_things_total", "things", L("kind", "a")) != c {
		t.Error("re-registration must return the same counter")
	}

	g := reg.Gauge("cpr_depth", "depth")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("gauge = %g, want 3", g.Value())
	}

	h := reg.Histogram("cpr_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 56.05 {
		t.Errorf("histogram count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cpr_ops_total", "operations", L("op", "hit")).Add(4)
	reg.Counter("cpr_ops_total", "operations", L("op", "miss")).Add(1)
	reg.Gauge("cpr_queue_depth", "queue depth").Set(2)
	reg.GaugeFunc("cpr_live", "liveness", func() float64 { return 1 })
	h := reg.Histogram("cpr_wait_seconds", "wait", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	want := []string{
		"# HELP cpr_ops_total operations",
		"# TYPE cpr_ops_total counter",
		`cpr_ops_total{op="hit"} 4`,
		`cpr_ops_total{op="miss"} 1`,
		"# TYPE cpr_queue_depth gauge",
		"cpr_queue_depth 2",
		"cpr_live 1",
		"# TYPE cpr_wait_seconds histogram",
		`cpr_wait_seconds_bucket{le="0.1"} 1`,
		`cpr_wait_seconds_bucket{le="1"} 2`,
		`cpr_wait_seconds_bucket{le="+Inf"} 3`,
		"cpr_wait_seconds_sum 3.55",
		"cpr_wait_seconds_count 3",
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Errorf("exposition missing %q:\n%s", w, text)
		}
	}
	checkPrometheusWellFormed(t, text)
}

// checkPrometheusWellFormed is a minimal text-format validator: every
// non-comment line is `name{labels} value`, every series is preceded by
// HELP/TYPE headers for its family, families are contiguous.
func checkPrometheusWellFormed(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	var lastFamily string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			if _, dup := typed[fields[2]]; dup {
				t.Fatalf("family %q declared twice", fields[2])
			}
			typed[fields[2]] = fields[3]
			lastFamily = fields[2]
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok && !strings.HasPrefix(name, lastFamily) {
			t.Errorf("series %q has no TYPE header", name)
		}
		fields := strings.Fields(line)
		val := fields[len(fields)-1]
		if val != "+Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Errorf("series %q has unparsable value %q", name, val)
			}
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	tr := New()
	reg := NewRegistry()
	root := tr.StartSpan("run", nil)
	c := reg.Counter("c_total", "c")
	h := reg.Histogram("h", "h", DefCountBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sp := tr.StartSpan("panel", root)
				sp.SetAttr("i", j)
				sp.End()
				c.Inc()
				h.Observe(float64(j))
				// First uses of a name race with each other: every
				// goroutine must get the same instrument.
				reg.Counter("lazy_total", "lazy").Inc()
				reg.Histogram("lazy_hist", "lazy", DefCountBuckets).Observe(float64(j))
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Errorf("counter = %g, want 1600", c.Value())
	}
	if got := reg.Counter("lazy_total", "lazy").Value(); got != 1600 {
		t.Errorf("lazily created counter = %g, want 1600", got)
	}
	if got := len(tr.FindAll("panel")); got != 1600 {
		t.Errorf("spans = %d, want 1600", got)
	}
}

// TestScrapeDuringRegistration scrapes while another goroutine registers
// new series of the scraped family; under -race this catches an export
// that reads a family's series after releasing the registry lock.
func TestScrapeDuringRegistration(t *testing.T) {
	reg := NewRegistry()
	const labels = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < labels; i++ {
			reg.Counter("c_total", "c", L("k", strconv.Itoa(i))).Inc()
		}
	}()
	for i := 0; i < 200; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "c_total{"); got != labels {
		t.Errorf("scrape lists %d c_total series, want %d", got, labels)
	}
}
