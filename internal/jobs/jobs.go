// Package jobs is the bounded job manager behind the cprd daemon: it
// accepts design-optimization requests, queues them FIFO up to a cap,
// runs at most MaxConcurrent of them at a time through the core pipeline
// with a per-job timeout, serves identical requests from the
// content-addressed result cache, coalesces identical in-flight
// submissions onto one job, and supports graceful drain.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"cpr/internal/cache"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/pipeline"
	"cpr/internal/telemetry"
)

// ResultCache is the daemon's three-level cache: whole-design results at
// the top, per-panel pipeline artifacts and per-region route bundles
// below. A design-level hit answers a resubmission without running
// anything; a design-level miss still harvests panel- and route-level
// hits for everything the edit provably cannot affect. Every level is a
// typed in-memory LRU over a content-addressed block source; build one
// with NewExchangedResultCache.
type ResultCache struct {
	// Design holds whole-design results under cache.Key.
	Design *cache.Backed[*core.RunResult]
	// Panel holds per-panel pipeline artifacts under cache.PanelKey.
	Panel *cache.Backed[*pipeline.PanelArtifact]
	// Route holds per-region route bundles under cache.RouteKey.
	Route *cache.Backed[*pipeline.RouteArtifact]
}

// NewExchangedResultCache creates the three-level cache on top of a
// block source (exchange.Service). The capacities bound each level's
// typed in-memory LRU (<= 0 selects the cache package default); the
// panel and route levels typically want a multiple of the design level,
// since one design contributes many panels and regions. Misses fall
// through to the content-addressed block store — and, when the source
// has peers, to other daemons. Blocks are written at Put over a durable
// store and at eviction over an in-memory one (see cache.Backed), so an
// entry the memory tier evicts is still answered from the store, and
// Manager.Block serves peers the entries the memory tier holds. Decoded
// panel and route artifacts are verified to carry the requested key
// before they are spliced; design-level results don't carry their key
// (it covers the design bytes, which the result does not retain), so
// they rely on the key's collision resistance alone.
func NewExchangedResultCache(designCap, panelCap, routeCap int, src cache.BlockSource) *ResultCache {
	return &ResultCache{
		Design: cache.NewBacked[*core.RunResult](designCap, src,
			core.EncodeResult, core.DecodeResult, nil),
		Panel: cache.NewBacked[*pipeline.PanelArtifact](panelCap, src,
			pipeline.MarshalPanelArtifact, pipeline.UnmarshalPanelArtifact,
			func(a *pipeline.PanelArtifact) string { return a.Key }),
		Route: cache.NewBacked[*pipeline.RouteArtifact](routeCap, src,
			pipeline.MarshalRouteArtifact, pipeline.UnmarshalRouteArtifact,
			func(a *pipeline.RouteArtifact) string { return a.Key }),
	}
}

// State is a job's lifecycle state. Terminal states are StateDone and
// StateFailed; a canceled or timed-out job lands in StateFailed.
type State int

const (
	// StateQueued means the job is waiting in the FIFO queue.
	StateQueued State = iota
	// StateRunning means a worker is executing the job.
	StateRunning
	// StateDone means the job finished with a result (possibly from
	// cache).
	StateDone
	// StateFailed means the job finished with an error, including
	// cancellation and timeout.
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	default:
		return "failed"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

var (
	// ErrQueueFull is returned by Submit when the FIFO queue is at
	// capacity; HTTP maps it to 429.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining is returned by Submit after Drain started; HTTP maps
	// it to 503.
	ErrDraining = errors.New("jobs: manager draining")
	// ErrUnknownBaseJob is returned by SubmitBase when the base job ID is
	// not (or no longer) known; HTTP maps it to 400.
	ErrUnknownBaseJob = errors.New("jobs: unknown base job")
	// ErrBaseNotDone is returned by SubmitBase when the base job has not
	// finished successfully, so it has no result to rerun against; HTTP
	// maps it to 400.
	ErrBaseNotDone = errors.New("jobs: base job has no result")
)

// RunFunc executes one optimization request. The default is
// core.RunContext; cmd/cprd wraps it, and tests substitute stubs.
type RunFunc func(ctx context.Context, d *design.Design, opts core.Options) (*core.RunResult, error)

// RerunFunc executes one incremental request against a base result. The
// default is core.RerunContext; cmd/cprd wraps it, and tests substitute
// stubs.
type RerunFunc func(ctx context.Context, prev *core.RunResult, d *design.Design, opts core.Options) (*core.RunResult, error)

// Config tunes a Manager. Zero values take the documented defaults.
type Config struct {
	// MaxConcurrent is the number of jobs executed simultaneously
	// (default 2). Each job additionally parallelizes internally per
	// its Options.Workers.
	MaxConcurrent int
	// QueueCap bounds the FIFO queue of jobs waiting for a worker
	// (default 64). Submissions beyond it fail with ErrQueueFull.
	QueueCap int
	// JobTimeout cancels a job's context this long after it starts
	// running (0 = no timeout).
	JobTimeout time.Duration
	// RetainJobs bounds how many finished jobs stay queryable by ID
	// (default 4096); the oldest finished jobs are forgotten first. A
	// retained job keeps its result, never its design or its base job's
	// result: a job drops both when it finishes.
	RetainJobs int
	// Run overrides the job executor (default core.RunContext). cmd/cprd
	// sets it to apply its -workers default.
	Run RunFunc
	// Rerun overrides the incremental job executor (default
	// core.RerunContext). cmd/cprd sets it to apply its -workers default.
	Rerun RerunFunc
	// Metrics receives the manager's operational metrics (queue depth,
	// queue-wait and run latencies, rejected submissions, cache
	// hit/miss/evict) and is threaded into every job's run context so the
	// pipeline's stage metrics land in the same registry. Nil gets a
	// private registry: Stats reads these instruments, so they always
	// exist. Telemetry is strictly observational: results are
	// byte-identical whichever registry is attached.
	Metrics *telemetry.Registry
	// TraceJobs, when set, gives every executed job its own span tracer,
	// retrievable via Job.Tracer (the daemon serves it as
	// GET /v1/jobs/{id}/trace). Cache-served jobs never ran, so they
	// have no trace.
	TraceJobs bool
	// Events, when non-nil, receives every job lifecycle event
	// (admitted/started/done/failed, cache answers, rejection causes)
	// plus the pipeline's in-run events (LR iterations, negotiation
	// rounds, block fetches, span boundaries). The bus doubles as the
	// flight recorder behind GET /v1/debug/events. Like Metrics and
	// TraceJobs it is strictly observational.
	Events *telemetry.EventBus
	// CrashDump, when non-empty, is the file the flight-recorder ring is
	// flushed to when a job panics, so post-mortems don't depend on any
	// tracing flag having been set.
	CrashDump string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.Run == nil {
		c.Run = core.RunContext
	}
	if c.Rerun == nil {
		c.Rerun = core.RerunContext
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	return c
}

// Job is one optimization request moving through the manager. All fields
// behind mu are written by the manager only; readers use Snapshot.
type Job struct {
	// ID is the manager-assigned identifier ("j1", "j2", ...).
	ID string
	// Key is the content address of the request (cache.Key of the
	// design hash and options fingerprint); empty for uncacheable
	// requests (custom profit functions).
	Key string
	// BaseJobID is the finished job this one reruns incrementally
	// against; empty for cold submissions. A base never changes the
	// result — only how much of it is recomputed — so it is not part of
	// Key.
	BaseJobID string

	// design and base are the run's inputs: the submitted design and,
	// for incremental reruns, the base job's result. Both are nil once
	// the job is terminal (and never set on a cached answer), so a
	// retained job holds only its result.
	design *design.Design
	opts   core.Options
	base   *core.RunResult

	mu        sync.Mutex
	state     State
	cached    bool
	result    *core.RunResult
	errMsg    string
	tracer    *telemetry.Tracer
	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// Tracer returns the job's span tracer, or nil when the manager was not
// configured with TraceJobs or the job never ran (cache hits, jobs
// failed before starting).
func (j *Job) Tracer() *telemetry.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

// Snapshot is a race-free copy of a job's observable state.
type Snapshot struct {
	ID        string
	Key       string
	BaseJobID string
	State     State
	Cached    bool
	Result    *core.RunResult
	Err       string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// QueueWait is submit-to-start (or submit-to-now while queued).
	QueueWait time.Duration
	// RunTime is start-to-finish (or start-to-now while running).
	RunTime time.Duration
}

// Snapshot copies the job's observable state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:        j.ID,
		Key:       j.Key,
		BaseJobID: j.BaseJobID,
		State:     j.state,
		Cached:    j.cached,
		Result:    j.result,
		Err:       j.errMsg,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	now := time.Now()
	switch {
	case j.state == StateQueued:
		s.QueueWait = now.Sub(j.submitted)
	case !j.started.IsZero():
		s.QueueWait = j.started.Sub(j.submitted)
	}
	switch {
	case j.state == StateRunning:
		s.RunTime = now.Sub(j.started)
	case !j.started.IsZero() && !j.finished.IsZero():
		s.RunTime = j.finished.Sub(j.started)
	}
	return s
}

// Done returns a channel closed when the job reaches a terminal state.
// The job's terminal event is published to the manager's event bus
// before the channel closes, so a subscriber that drains its channel
// after Done fires has seen the job_done/job_failed event (unless it
// was dropped for falling behind).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx fires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fingerprint renders the result-affecting fields of Options into a
// canonical string for cache keying. Worker counts are deliberately
// excluded — the pipeline's determinism contract makes results
// byte-identical for every worker count. The solver and router halves
// are delegated to the pipeline's own fingerprint encoders through the
// same Options mapping a run uses (Options.SolverConfig), so the design
// key can never drift from the fields the pipeline actually consumes;
// non-addressable inputs (a custom Profit, an LR Stop hook) surface as
// sentinels, and Submit refuses to cache under them. The rule-engine
// override is encoded directly, so two submissions of one design under
// different engines can never share a key (a design-borne engine is
// already part of the design hash via its designio record).
//
//keypurity:encoder design
func Fingerprint(o core.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v3 mode=%s engine=%s", o.Mode, o.RuleEngine)
	b.WriteString(" " + o.SolverConfig().Fingerprint())
	b.WriteString(" " + pipeline.RouterFingerprint(o.Router))
	s := o.Sequential
	fmt.Fprintf(&b, " seq=%d,%d,%d,%d",
		s.RetryRounds, s.WindowMargin, s.MaxRipsPerNet, s.VictimsPerFailure)
	return b.String()
}

// Stats is a point-in-time view of the manager for /v1/stats. Every
// figure /metrics also exports is read from the owner /metrics reads (a
// registry instrument, or a cache counter the registry bridges), so the
// two surfaces cannot disagree.
type Stats struct {
	QueueDepth int              `json:"queue_depth"`
	QueueCap   int              `json:"queue_cap"`
	Running    int              `json:"running"`
	Draining   bool             `json:"draining"`
	ByState    map[string]int64 `json:"jobs_by_state"`
	// RejectedQueueFull counts submissions refused with ErrQueueFull
	// (HTTP 429) since the manager started:
	// cprd_jobs_rejected_total{reason="queue_full"}.
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	// RejectedDraining counts submissions refused with ErrDraining
	// (HTTP 503): cprd_jobs_rejected_total{reason="draining"}.
	RejectedDraining int64       `json:"rejected_draining"`
	Cache            cache.Stats `json:"cache"`
	CacheHitRate     float64     `json:"cache_hit_rate"`
	// PanelCache counts per-panel artifact hits and misses: the
	// incremental-reuse rate of design-level misses.
	PanelCache        cache.Stats `json:"panel_cache"`
	PanelCacheHitRate float64     `json:"panel_cache_hit_rate"`
	// RouteCache counts per-region route bundle hits and misses: the
	// routing-splice rate of incremental reruns.
	RouteCache        cache.Stats `json:"route_cache"`
	RouteCacheHitRate float64     `json:"route_cache_hit_rate"`
	// Stages snapshots three latency histograms, sums in seconds:
	// queue_wait (cprd_job_queue_wait_seconds), run (cprd_job_run_seconds)
	// and pinopt (cpr_stage_seconds{stage="pinopt"}, the pin-access
	// optimizer's time per run). All three are always present.
	Stages map[string]*telemetry.HistogramSnapshot `json:"stage_latency"`
	// EventsDropped counts stream events lost to slow subscribers; 0
	// without Config.Events.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

// Manager owns the queue, the workers, and the job registry.
type Manager struct {
	cfg   Config
	cache *ResultCache

	queue   chan *Job
	workers sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string        // finished job IDs, oldest first, for retention
	inflight map[string]*Job // key -> queued/running job, for coalescing
	cancels  map[string]context.CancelFunc
	counts   map[State]int64
	running  int
	seq      int64
	draining bool
	hardStop bool

	// Instruments registered in Config.Metrics; Stats reads them back.
	mQueueWait    *telemetry.Histogram
	mRunTime      *telemetry.Histogram
	mPinOpt       *telemetry.Histogram
	mRejectedFull *telemetry.Counter
	mRejectedDrn  *telemetry.Counter
}

// New creates a manager and starts its worker goroutines. The cache may
// be shared with other components for stats reporting.
//
//cprlint:ctxpass worker lifecycle is bound to the queue channel; Drain(ctx) closes it and honors its context
func New(cfg Config, c *ResultCache) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		cache:    c,
		queue:    make(chan *Job, cfg.QueueCap),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		cancels:  make(map[string]context.CancelFunc),
		counts:   make(map[State]int64),
	}
	m.registerMetrics()
	m.workers.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go m.worker()
	}
	return m
}

// registerMetrics wires the manager's operational metrics into the
// configured registry: live gauges read manager state at scrape time,
// cache counters bridge the cache's own counters, and the latency
// histograms are pre-registered so the hot finish path only observes.
// The pinopt histogram is the one the pipeline observes per pin-access
// run (same name, help and buckets); registering it here makes it exist
// before the first job.
func (m *Manager) registerMetrics() {
	reg := m.cfg.Metrics
	m.mQueueWait = reg.Histogram("cprd_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", telemetry.DefSecondsBuckets)
	m.mRunTime = reg.Histogram("cprd_job_run_seconds",
		"Wall-clock job execution time.", telemetry.DefSecondsBuckets)
	m.mPinOpt = reg.Histogram("cpr_stage_seconds", "Wall-clock time per pipeline stage.",
		telemetry.DefSecondsBuckets, telemetry.L("stage", "pinopt"))
	m.mRejectedFull = reg.Counter("cprd_jobs_rejected_total",
		"Submissions refused by the manager.", telemetry.L("reason", "queue_full"))
	m.mRejectedDrn = reg.Counter("cprd_jobs_rejected_total",
		"Submissions refused by the manager.", telemetry.L("reason", "draining"))
	if ev := m.cfg.Events; ev != nil {
		reg.CounterFunc("cpr_events_dropped_total",
			"Stream events dropped because a subscriber channel was full.",
			func() float64 { return float64(ev.Dropped()) })
	}
	reg.GaugeFunc("cprd_queue_depth", "Jobs waiting in the FIFO queue.",
		func() float64 { return float64(len(m.queue)) })
	reg.GaugeFunc("cprd_running_jobs", "Jobs currently executing.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.running)
		})
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed} {
		st := st
		reg.GaugeFunc("cprd_jobs_by_state", "Jobs per lifecycle state.",
			func() float64 {
				m.mu.Lock()
				defer m.mu.Unlock()
				return float64(m.counts[st])
			}, telemetry.L("state", st.String()))
	}
	levels := []struct {
		name  string
		stats func() cache.Stats
	}{
		{"design", m.cache.Design.Stats},
		{"panel", m.cache.Panel.Stats},
		{"route", m.cache.Route.Stats},
	}
	for _, lv := range levels {
		lv := lv
		reg.CounterFunc("cprd_cache_hits_total", "Cache hits by level.",
			func() float64 { return float64(lv.stats().Hits) }, telemetry.L("level", lv.name))
		reg.CounterFunc("cprd_cache_misses_total", "Cache misses by level.",
			func() float64 { return float64(lv.stats().Misses) }, telemetry.L("level", lv.name))
		reg.CounterFunc("cprd_cache_evictions_total", "Cache evictions by level.",
			func() float64 { return float64(lv.stats().Evictions) }, telemetry.L("level", lv.name))
		reg.GaugeFunc("cprd_cache_entries", "Live cache entries by level.",
			func() float64 { return float64(lv.stats().Entries) }, telemetry.L("level", lv.name))
	}
}

// Submit registers one optimization request. The fast paths never touch
// the optimizer: a completed identical request is answered from the
// content-addressed cache as an immediately-done job, and an identical
// request still queued or running is coalesced onto the existing job.
// Otherwise the job enters the FIFO queue, or ErrQueueFull /
// ErrDraining is returned.
func (m *Manager) Submit(d *design.Design, opts core.Options) (*Job, error) {
	return m.SubmitBase(d, opts, "")
}

// SubmitBase is Submit with an incremental baseline: when baseJobID
// names a finished job, the new job reruns against its result,
// recomputing only the panels and routing regions the edit dirtied and
// splicing the rest. In strict rerun mode the baseline never changes
// the result — the hard invariant of core.Rerun is byte-identity with a
// cold run — so the design-level cache key, the cached-answer fast
// path, and coalescing all behave exactly as for Submit. The base job's
// result goes to the Rerun function when the job runs; core.RerunContext
// then puts its panel and route artifacts into the panel and route
// levels, so reuse survives earlier evictions.
//
// Eco-fast reruns with a baseline are the one exception: their result
// is checked DRC-clean only, and its routes and routed nets may differ
// from a cold run, so such jobs bypass the design-level cache entirely
// (no cached-answer fast path, no coalescing, no Put) — a warm-started
// result must never be served to a cold submitter of the same design.
func (m *Manager) SubmitBase(d *design.Design, opts core.Options, baseJobID string) (*Job, error) {
	var base *core.RunResult
	if baseJobID != "" {
		baseJob, ok := m.Get(baseJobID)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownBaseJob, baseJobID)
		}
		snap := baseJob.Snapshot()
		if snap.State != StateDone || snap.Result == nil {
			return nil, fmt.Errorf("%w: %q is %s", ErrBaseNotDone, baseJobID, snap.State)
		}
		base = snap.Result
	}

	fp := Fingerprint(opts)
	// Design-level cacheability follows the pipeline's own rule
	// (SolverConfig.Cacheable: custom Profit, LR Stop hooks, and
	// time-limited ILP are not content-addressable) plus one job-layer
	// exclusion: eco-fast rerun results are not byte-identical to a cold
	// run, so they must never answer a cold key.
	cacheable := opts.SolverConfig().Cacheable() &&
		!(opts.RerunMode == core.RerunEcoFast && base != nil)
	var key string
	if cacheable {
		hash, err := designio.Hash(d)
		if err != nil {
			return nil, err
		}
		key = cache.Key(hash, fp)
	}

	// The design-level lookup happens outside the manager lock: a miss
	// may fetch from peer daemons, and that network round-trip must never
	// serialize unrelated submissions.
	// Draining and coalescing are (re-)checked under the lock afterwards.
	m.mu.Lock()
	if m.draining {
		m.mRejectedDrn.Inc()
		m.mu.Unlock()
		m.cfg.Events.Publish("", "job_rejected", map[string]any{"cause": "draining"})
		return nil, ErrDraining
	}
	if cacheable {
		if existing, ok := m.inflight[key]; ok {
			m.mu.Unlock()
			return existing, nil
		}
	}
	m.mu.Unlock()

	if cacheable {
		if res, ok := m.cache.Design.Get(key); ok {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.draining {
				m.mRejectedDrn.Inc()
				m.cfg.Events.Publish("", "job_rejected", map[string]any{"cause": "draining"})
				return nil, ErrDraining
			}
			job := m.newJobLocked(key, nil, opts)
			job.BaseJobID = baseJobID
			now := time.Now()
			job.state = StateDone
			job.cached = true
			job.result = res
			job.started = now
			job.finished = now
			close(job.done)
			m.counts[StateDone]++
			m.retainLocked(job.ID)
			m.cfg.Events.Publish(job.ID, "job_cached", map[string]any{"key": key})
			return job, nil
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.mRejectedDrn.Inc()
		m.cfg.Events.Publish("", "job_rejected", map[string]any{"cause": "draining"})
		return nil, ErrDraining
	}
	if cacheable {
		// Re-check: an identical submission may have queued while the
		// cache lookup ran unlocked.
		if existing, ok := m.inflight[key]; ok {
			return existing, nil
		}
	}
	if len(m.queue) >= m.cfg.QueueCap {
		m.mRejectedFull.Inc()
		m.cfg.Events.Publish("", "job_rejected", map[string]any{"cause": "queue_full"})
		return nil, ErrQueueFull
	}
	job := m.newJobLocked(key, d, opts)
	job.BaseJobID = baseJobID
	job.base = base
	m.counts[StateQueued]++
	if cacheable {
		m.inflight[key] = job
	}
	select {
	case m.queue <- job:
	default:
		// Unreachable while Submit holds mu (the only sender), but keep
		// the registry consistent if it ever fires.
		delete(m.jobs, job.ID)
		delete(m.inflight, key)
		m.counts[StateQueued]--
		m.mRejectedFull.Inc()
		m.cfg.Events.Publish("", "job_rejected", map[string]any{"cause": "queue_full"})
		return nil, ErrQueueFull
	}
	m.cfg.Events.Publish(job.ID, "job_admitted", map[string]any{"key": key, "base": baseJobID})
	return job, nil
}

// newJobLocked allocates and registers a job; callers hold m.mu.
func (m *Manager) newJobLocked(key string, d *design.Design, opts core.Options) *Job {
	m.seq++
	job := &Job{
		ID:        fmt.Sprintf("j%d", m.seq),
		Key:       key,
		design:    d,
		opts:      opts,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	m.jobs[job.ID] = job
	return job
}

// retainLocked records a finished job and evicts the oldest finished
// jobs beyond the retention cap; callers hold m.mu.
func (m *Manager) retainLocked(id string) {
	m.finished = append(m.finished, id)
	for len(m.finished) > m.cfg.RetainJobs {
		old := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, old)
	}
}

// Metrics returns the manager's registry: Config.Metrics, or the private
// one New created. The daemon serves it at GET /metrics.
func (m *Manager) Metrics() *telemetry.Registry { return m.cfg.Metrics }

// Block encodes the entry a cache level holds in memory under key,
// without touching counters or recency (cache.Backed.Block); keys are
// domain-separated, so at most one level holds a key. The daemon's
// block endpoint falls back to it when the local store lacks a key.
func (m *Manager) Block(key string) ([]byte, bool) {
	for _, block := range []func(string) ([]byte, bool){
		m.cache.Design.Block, m.cache.Panel.Block, m.cache.Route.Block,
	} {
		if data, ok := block(key); ok {
			return data, true
		}
	}
	return nil, false
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (m *Manager) worker() {
	defer m.workers.Done()
	for job := range m.queue {
		m.execute(job)
	}
}

func (m *Manager) execute(job *Job) {
	start := time.Now()
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), m.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	defer cancel()

	m.mu.Lock()
	skip := m.hardStop
	m.counts[StateQueued]--
	if skip {
		m.counts[StateFailed]++
	} else {
		m.counts[StateRunning]++
		m.running++
		m.cancels[job.ID] = cancel
	}
	m.mu.Unlock()

	job.mu.Lock()
	job.started = start
	queueWait := start.Sub(job.submitted)
	if skip {
		job.state = StateFailed
		job.errMsg = "canceled: manager shut down before the job started"
		job.finished = start
	} else {
		job.state = StateRunning
	}
	job.mu.Unlock()

	if skip {
		m.finish(job, queueWait, 0, false)
		return
	}

	// The panel and route caches are wired for content-addressable jobs
	// only: a custom profit function makes panel artifacts unaddressable
	// (the profit is part of their inputs), and route keys are derived
	// from them downstream. Eco-fast jobs (Key == "" with a base) still
	// get both read-side caches — their own divergent artifacts carry no
	// keys, so they can never poison either level.
	opts := job.opts
	if opts.Profit == nil {
		opts.PanelCache = m.cache.Panel
		opts.RouteCache = m.cache.Route
	}

	// Thread telemetry into the run context. Strictly observational: the
	// core pipeline's §4e contract keeps results byte-identical with or
	// without it, so none of the knobs reach any cache key.
	em := telemetry.NewEmitter(m.cfg.Events, job.ID)
	if m.cfg.TraceJobs {
		tr := telemetry.New()
		tr.SetEmitter(em)
		job.mu.Lock()
		job.tracer = tr
		job.mu.Unlock()
		ctx = telemetry.WithTracer(ctx, tr)
	}
	ctx = telemetry.WithRegistry(ctx, m.cfg.Metrics)
	ctx = telemetry.WithEmitter(ctx, em)
	m.cfg.Events.Publish(job.ID, "job_started", nil)
	res, err := m.runJob(ctx, job, opts)
	end := time.Now()

	job.mu.Lock()
	job.finished = end
	if err != nil {
		job.state = StateFailed
		job.errMsg = err.Error()
	} else {
		job.state = StateDone
		job.result = res
	}
	job.mu.Unlock()

	if err == nil && job.Key != "" {
		m.cache.Design.Put(job.Key, res)
	}
	m.finish(job, queueWait, end.Sub(start), true)
}

// runJob executes the job's Run/Rerun function, converting a panic into
// a job failure: the panic is published as a job_panic event (with a
// truncated stack), the flight recorder is flushed to the configured
// crash-dump file, and the worker stays alive.
func (m *Manager) runJob(ctx context.Context, job *Job, opts core.Options) (res *core.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > 8192 {
				stack = stack[:8192]
			}
			m.cfg.Events.Publish(job.ID, "job_panic",
				map[string]any{"panic": fmt.Sprint(r), "stack": string(stack)})
			m.dumpCrash()
			res, err = nil, fmt.Errorf("jobs: job %s panicked: %v", job.ID, r)
		}
	}()
	if job.base != nil {
		return m.cfg.Rerun(ctx, job.base, job.design, opts)
	}
	return m.cfg.Run(ctx, job.design, opts)
}

// dumpCrash writes the flight-recorder ring to Config.CrashDump. Errors
// are swallowed: the dump is best-effort post-mortem data and must never
// mask the original failure.
func (m *Manager) dumpCrash() {
	if m.cfg.CrashDump == "" || m.cfg.Events == nil {
		return
	}
	f, err := os.Create(m.cfg.CrashDump)
	if err != nil {
		return
	}
	defer f.Close()
	_ = m.cfg.Events.WriteJSON(f)
}

// finish moves the job out of the live sets and observes its latencies.
// ran distinguishes jobs that reached a worker from jobs failed by a
// hard-stopped drain (those were counted failed in execute).
func (m *Manager) finish(job *Job, queueWait, runTime time.Duration, ran bool) {
	job.mu.Lock()
	state := job.state
	errMsg := job.errMsg
	job.design, job.base = nil, nil
	job.mu.Unlock()

	// The terminal event goes out before job.done closes, so an SSE
	// handler woken by Done() that then drains its subscription always
	// observes it (unless the subscriber fell behind and dropped).
	if state == StateDone {
		m.cfg.Events.Publish(job.ID, "job_done", map[string]any{"state": state.String()})
	} else {
		m.cfg.Events.Publish(job.ID, "job_failed", map[string]any{"state": state.String(), "error": errMsg})
	}

	m.mu.Lock()
	if ran {
		m.counts[StateRunning]--
		m.running--
		m.counts[state]++
	}
	delete(m.cancels, job.ID)
	if job.Key != "" && m.inflight[job.Key] == job {
		delete(m.inflight, job.Key)
	}
	m.mQueueWait.Observe(queueWait.Seconds())
	if ran {
		m.mRunTime.Observe(runTime.Seconds())
	}
	m.retainLocked(job.ID)
	m.mu.Unlock()

	close(job.done)
}

// Stats snapshots the manager counters for /v1/stats.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		QueueDepth:        len(m.queue),
		QueueCap:          m.cfg.QueueCap,
		Running:           m.running,
		Draining:          m.draining,
		RejectedQueueFull: int64(m.mRejectedFull.Value()),
		RejectedDraining:  int64(m.mRejectedDrn.Value()),
		ByState:           make(map[string]int64, len(m.counts)),
		Stages: map[string]*telemetry.HistogramSnapshot{
			"queue_wait": m.mQueueWait.Snapshot(),
			"run":        m.mRunTime.Snapshot(),
			"pinopt":     m.mPinOpt.Snapshot(),
		},
	}
	for s, n := range m.counts {
		if n != 0 {
			st.ByState[s.String()] = n
		}
	}
	st.EventsDropped = m.cfg.Events.Dropped()
	st.Cache = m.cache.Design.Stats()
	st.CacheHitRate = st.Cache.HitRate()
	st.PanelCache = m.cache.Panel.Stats()
	st.PanelCacheHitRate = st.PanelCache.HitRate()
	st.RouteCache = m.cache.Route.Stats()
	st.RouteCacheHitRate = st.RouteCache.HitRate()
	return st
}

// Drain stops accepting submissions, lets queued and running jobs finish,
// and returns once everything is terminal. If ctx fires first, the
// contexts of running jobs are canceled and not-yet-started queued jobs
// are failed without running; Drain then waits for the workers to
// acknowledge and returns ctx.Err(). Drain is idempotent; only the first
// call closes the queue.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		// Submit rejects with ErrDraining before reaching the channel,
		// and it checks under mu, so no send can race this close.
		close(m.queue)
	}

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	m.mu.Lock()
	m.hardStop = true
	for _, cancel := range m.cancels {
		cancel()
	}
	m.mu.Unlock()
	<-done
	return ctx.Err()
}
