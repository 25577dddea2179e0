package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant instrument label.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefSecondsBuckets are the default latency histogram bounds, spanning
// sub-millisecond panel solves to multi-minute full-circuit jobs.
var DefSecondsBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// DefCountBuckets are the default bounds for count-valued histograms
// (iterations, rip-ups, congested grids).
var DefCountBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// metricKind is the Prometheus type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing metric. The zero value and nil
// are usable; Add on nil is a no-op.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets (cumulative at
// export, Prometheus-style, with an implicit +Inf bucket). Nil-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []uint64  // per-bound counts, non-cumulative; len(bounds)+1 with overflow last
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramSnapshot is a point-in-time, JSON-friendly view of a
// histogram: cumulative counts per finite bound (the implicit +Inf
// bucket is excluded — JSON cannot encode it — but Count covers every
// observation).
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // cumulative, parallel to Bounds
}

// Snapshot captures the histogram for JSON surfaces like /v1/stats. Safe
// on nil (returns nil).
func (h *Histogram) Snapshot() *HistogramSnapshot {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &HistogramSnapshot{
		Count:  h.total,
		Sum:    h.sum,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)),
	}
	cum := uint64(0)
	for i := range h.bounds {
		cum += h.counts[i]
		s.Counts[i] = cum
	}
	return s
}

// instrument is one registered time series (a family member with a fixed
// label set).
type instrument struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // value function for *Func instruments
}

// family groups instruments sharing a metric name.
type family struct {
	name        string
	help        string
	kind        metricKind
	instruments map[string]*instrument // keyed by canonical label string
	order       []string               // registration order; export re-sorts
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. A nil registry is usable: every constructor returns
// nil, and nil instruments no-op, so disabled telemetry costs one pointer
// test per call site.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders labels canonically (sorted by key) for dedup and
// export ordering.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// getOrCreate returns the instrument for (name, labels), creating the
// family and instrument as needed. The caller holds r.mu, and fills the
// instrument's lazily created fields before releasing it: concurrent
// first uses of one name race otherwise. Registering one name with two
// different kinds is a programming error and panics.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []Label) *instrument {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, instruments: make(map[string]*instrument)}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	inst, ok := f.instruments[key]
	if !ok {
		inst = &instrument{labels: append([]Label(nil), labels...)}
		f.instruments[key] = inst
		f.order = append(f.order, key)
	}
	return inst
}

// Counter registers (or fetches) a counter. Nil registry returns nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.getOrCreate(name, help, kindCounter, labels)
	if inst.ctr == nil && inst.fn == nil {
		inst.ctr = &Counter{}
	}
	return inst.ctr
}

// Gauge registers (or fetches) a gauge. Nil registry returns nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.getOrCreate(name, help, kindGauge, labels)
	if inst.gauge == nil && inst.fn == nil {
		inst.gauge = &Gauge{}
	}
	return inst.gauge
}

// Histogram registers (or fetches) a histogram with the given ascending
// bucket upper bounds (+Inf implicit). Nil registry returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.getOrCreate(name, help, kindHistogram, labels)
	if inst.hist == nil {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		inst.hist = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
	}
	return inst.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters maintained elsewhere (cache hit totals,
// jobs-by-state). No-op on nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.getOrCreate(name, help, kindCounter, labels)
	inst.fn = fn
	inst.ctr = nil
}

// GaugeFunc registers a gauge read from fn at scrape time (queue depth,
// cache entries). No-op on nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.getOrCreate(name, help, kindGauge, labels)
	inst.fn = fn
	inst.gauge = nil
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sampleName renders `name{labels}` with optional extra label appended.
func sampleName(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// string, histograms expanded into cumulative _bucket/_sum/_count
// series. A nil registry writes nothing.
//
// Each family's series list and instrument fields are copied under the
// registry lock, since registration appends to the one and rewrites the
// other; formatting then runs unlocked on the copies. A family's name,
// help and kind never change after creation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type series struct {
		key  string
		inst instrument
	}
	type familySnapshot struct {
		f      *family
		series []series
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	fams := make([]familySnapshot, len(names))
	for i, n := range names {
		f := r.families[n]
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		ss := make([]series, len(keys))
		for j, key := range keys {
			ss[j] = series{key: key, inst: *f.instruments[key]}
		}
		fams[i] = familySnapshot{f: f, series: ss}
	}
	r.mu.Unlock()

	for _, fs := range fams {
		f := fs.f
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for i := range fs.series {
			if err := writeInstrument(w, f, fs.series[i].key, &fs.series[i].inst); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeInstrument(w io.Writer, f *family, key string, inst *instrument) error {
	switch f.kind {
	case kindCounter, kindGauge:
		var v float64
		switch {
		case inst.fn != nil:
			v = inst.fn()
		case inst.ctr != nil:
			v = inst.ctr.Value()
		case inst.gauge != nil:
			v = inst.gauge.Value()
		}
		_, err := fmt.Fprintf(w, "%s %s\n", sampleName(f.name, key, ""), formatValue(v))
		return err
	default:
		h := inst.hist
		h.mu.Lock()
		bounds := append([]float64(nil), h.bounds...)
		counts := append([]uint64(nil), h.counts...)
		sum, total := h.sum, h.total
		h.mu.Unlock()
		cum := uint64(0)
		for i, b := range bounds {
			cum += counts[i]
			le := fmt.Sprintf("le=%q", formatValue(b))
			if _, err := fmt.Fprintf(w, "%s %d\n", sampleName(f.name+"_bucket", key, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", sampleName(f.name+"_bucket", key, `le="+Inf"`), total); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", sampleName(f.name+"_sum", key, ""), formatValue(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", sampleName(f.name+"_count", key, ""), total)
		return err
	}
}
