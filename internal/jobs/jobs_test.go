package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpr/internal/blockstore"
	"cpr/internal/cache"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/exchange"
	"cpr/internal/lagrange"
	"cpr/internal/pipeline"
	"cpr/internal/synth"
)

// memExchange is the block source cmd/cprd builds without
// -blockstore-dir or -peers: an exchange over an unbounded in-memory
// blockstore.
func memExchange() *exchange.Service {
	return exchange.New(blockstore.NewMem(0), nil, nil)
}

func testDesign(t *testing.T) *design.Design {
	t.Helper()
	d, err := synth.Generate(synth.Spec{Name: "jobs-test", Nets: 10, Width: 60, Height: 20, Seed: 1})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return d
}

// optsN returns options whose fingerprint differs per n, to mint
// distinct cache keys over one shared design.
func optsN(n int) core.Options {
	return core.Options{LR: lagrange.Config{MaxIterations: n}}
}

func waitTerminal(t *testing.T, j *Job) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID, err)
	}
	return j.Snapshot()
}

func TestSubmitRunsToDone(t *testing.T) {
	var runs atomic.Int64
	m := New(Config{
		MaxConcurrent: 2,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			runs.Add(1)
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)

	job, err := m.Submit(d, core.Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitTerminal(t, job)
	if snap.State != StateDone || snap.Cached || snap.Result == nil {
		t.Fatalf("snapshot = %+v, want done uncached with result", snap)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
	st := m.Stats()
	if st.ByState["done"] != 1 {
		t.Fatalf("stats = %+v, want 1 done", st.ByState)
	}
	if st.Stages["run"].Count != 1 || st.Stages["queue_wait"].Count != 1 {
		t.Fatalf("stage histograms missing: %+v", st.Stages)
	}
	// Without Config.Metrics the manager keeps its own registry, and
	// Stats reads the instruments it exports.
	var prom strings.Builder
	if err := m.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\ncprd_job_run_seconds_count 1\n") {
		t.Fatalf("registry does not export the run: want cprd_job_run_seconds_count 1 in\n%s", prom.String())
	}
}

func TestCacheHitOnIdenticalResubmission(t *testing.T) {
	var runs atomic.Int64
	m := New(Config{
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			runs.Add(1)
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)

	first, err := m.Submit(d, core.Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fs := waitTerminal(t, first)

	second, err := m.Submit(d, core.Options{})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	ss := second.Snapshot()
	if ss.State != StateDone || !ss.Cached {
		t.Fatalf("resubmission = %+v, want immediately done from cache", ss)
	}
	if ss.ID == fs.ID {
		t.Fatal("cached job reused the original job ID")
	}
	if ss.Key != fs.Key {
		t.Fatalf("cache keys differ for identical requests: %s vs %s", ss.Key, fs.Key)
	}
	if ss.Result != fs.Result {
		t.Fatal("cached job did not serve the stored result")
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1 (second submission must not re-run)", runs.Load())
	}
	if st := m.Stats(); st.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit", st.Cache)
	}
}

func TestDifferentOptionsMissCache(t *testing.T) {
	var runs atomic.Int64
	m := New(Config{
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			runs.Add(1)
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)
	a, _ := m.Submit(d, optsN(1))
	waitTerminal(t, a)
	b, _ := m.Submit(d, optsN(2))
	waitTerminal(t, b)
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2 (different options must not share results)", runs.Load())
	}
}

func TestCoalesceIdenticalInflight(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	m := New(Config{
		MaxConcurrent: 2,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			runs.Add(1)
			<-release
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)

	a, err := m.Submit(d, core.Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b, err := m.Submit(d, core.Options{})
	if err != nil {
		t.Fatalf("coalescing Submit: %v", err)
	}
	if a != b {
		t.Fatal("identical in-flight submissions should coalesce onto one job")
	}
	close(release)
	if snap := waitTerminal(t, a); snap.State != StateDone {
		t.Fatalf("state = %v, want done", snap.State)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	m := New(Config{
		MaxConcurrent: 1,
		QueueCap:      1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			<-release
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)

	first, err := m.Submit(d, optsN(1))
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	// The worker may not have dequeued the first job yet; poll until it
	// does so the single queue slot is predictably free.
	deadline := time.Now().Add(5 * time.Second)
	for first.Snapshot().State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(d, optsN(2)); err != nil {
		t.Fatalf("second Submit (fills queue): %v", err)
	}
	if _, err := m.Submit(d, optsN(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit: err = %v, want ErrQueueFull", err)
	}
	close(release)
}

func TestJobTimeoutFailsWithoutWedging(t *testing.T) {
	m := New(Config{
		MaxConcurrent: 1,
		JobTimeout:    20 * time.Millisecond,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			if o.LR.MaxIterations == 999 {
				<-ctx.Done() // simulate a job that only stops when canceled
				return nil, ctx.Err()
			}
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)

	slow, err := m.Submit(d, optsN(999))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitTerminal(t, slow)
	if snap.State != StateFailed || snap.Err == "" {
		t.Fatalf("timed-out job = %+v, want terminal failed with error", snap)
	}

	fast, err := m.Submit(d, optsN(1))
	if err != nil {
		t.Fatalf("Submit after timeout: %v", err)
	}
	if snap := waitTerminal(t, fast); snap.State != StateDone {
		t.Fatalf("queue wedged after a timeout: follow-up job = %+v", snap)
	}
	if st := m.Stats(); st.ByState["failed"] != 1 || st.ByState["done"] != 1 {
		t.Fatalf("stats = %+v, want 1 failed + 1 done", st.ByState)
	}
}

func TestDrainCompletesInflightJobs(t *testing.T) {
	m := New(Config{
		MaxConcurrent: 2,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			time.Sleep(20 * time.Millisecond)
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(d, optsN(i+1))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, j := range jobs {
		if snap := j.Snapshot(); snap.State != StateDone {
			t.Fatalf("job %s after drain = %v, want done", j.ID, snap.State)
		}
	}
	if _, err := m.Submit(d, optsN(99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain: err = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsRunningJobs(t *testing.T) {
	m := New(Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			<-ctx.Done() // cooperates with cancellation but never finishes on its own
			return nil, ctx.Err()
		},
	}, NewExchangedResultCache(16, 0, 0, memExchange()))
	d := testDesign(t)

	running, err := m.Submit(d, optsN(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	queued, err := m.Submit(d, optsN(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain: err = %v, want DeadlineExceeded", err)
	}
	for _, j := range []*Job{running, queued} {
		if snap := j.Snapshot(); snap.State != StateFailed {
			t.Fatalf("job %s after hard drain = %v, want failed", j.ID, snap.State)
		}
	}
}

// TestStressNoJobLostNoDoubleRun floods the manager from many goroutines
// with overlapping submissions and asserts the two manager invariants:
// every accepted submission reaches a terminal state, and no content
// address is ever optimized twice (coalescing catches in-flight
// duplicates, the cache catches completed ones). The design level's
// memory tier holds fewer results than there are keys, so a result it
// evicts must come back from the blockstore as a cached answer, not as
// a second run.
func TestStressNoJobLostNoDoubleRun(t *testing.T) {
	const (
		submitters = 8
		keys       = 40
		designCap  = 8
	)
	runCounts := make([]atomic.Int64, keys+1)
	exch := memExchange()
	m := New(Config{
		MaxConcurrent: 4,
		QueueCap:      submitters * keys, // never 429 in this test
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			runCounts[o.LR.MaxIterations].Add(1)
			time.Sleep(100 * time.Microsecond)
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(designCap, 0, 0, exch))
	d := testDesign(t)

	var (
		mu   sync.Mutex
		jobs []*Job
		wg   sync.WaitGroup
	)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= keys; k++ {
				j, err := m.Submit(d, optsN(k))
				if err != nil {
					t.Errorf("Submit key %d: %v", k, err)
					return
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for _, j := range jobs {
		snap := waitTerminal(t, j)
		if snap.State != StateDone {
			t.Fatalf("job %s = %v (%s), want done", j.ID, snap.State, snap.Err)
		}
	}
	if len(jobs) != submitters*keys {
		t.Errorf("lost submissions: got %d jobs, want %d", len(jobs), submitters*keys)
	}

	// Every key once more, after all are done: each is a cached answer.
	// At least keys-designCap of them were evicted from memory, so the
	// blockstore answers those.
	localBefore := exch.Stats().Local
	for k := 1; k <= keys; k++ {
		j, err := m.Submit(d, optsN(k))
		if err != nil {
			t.Fatalf("resubmit key %d: %v", k, err)
		}
		if snap := waitTerminal(t, j); snap.State != StateDone || !snap.Cached {
			t.Errorf("resubmitted key %d = %v cached=%v, want a cached answer", k, snap.State, snap.Cached)
		}
	}
	if st := m.Stats().Cache; st.Evictions == 0 {
		t.Errorf("design level = %+v, want evictions from its memory tier", st)
	}
	if got := exch.Stats().Local - localBefore; got < keys-designCap {
		t.Errorf("blockstore answered %d resubmissions, want at least %d", got, keys-designCap)
	}
	for k := 1; k <= keys; k++ {
		if got := runCounts[k].Load(); got != 1 {
			t.Errorf("key %d ran %d times, want exactly 1", k, got)
		}
	}
}

func TestFingerprintNormalization(t *testing.T) {
	if Fingerprint(core.Options{Workers: 1}) != Fingerprint(core.Options{Workers: 8}) {
		t.Error("worker count must not change the fingerprint (results are identical)")
	}
	if Fingerprint(core.Options{Mode: core.ModeCPR}) == Fingerprint(core.Options{Mode: core.ModeSequential}) {
		t.Error("mode must change the fingerprint")
	}
	if Fingerprint(optsN(1)) == Fingerprint(optsN(2)) {
		t.Error("LR iteration bound must change the fingerprint")
	}
	if fmt.Sprint(Fingerprint(core.Options{})) == "" {
		t.Error("empty fingerprint")
	}
}

// TestSubmitBaseDispatchesRerun: a submission naming a finished base job
// must execute through the Rerun path with the base's result, while a
// baseless submission stays on Run.
func TestSubmitBaseDispatchesRerun(t *testing.T) {
	baseRes := &core.RunResult{}
	var runs, reruns atomic.Int64
	var gotBase *core.RunResult
	m := New(Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			runs.Add(1)
			return baseRes, nil
		},
		Rerun: func(ctx context.Context, prev *core.RunResult, d *design.Design, o core.Options) (*core.RunResult, error) {
			reruns.Add(1)
			gotBase = prev
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 16, 0, memExchange()))
	d := testDesign(t)

	base, err := m.Submit(d, optsN(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, base)

	// Different options mint a different design key, so the incremental
	// submission misses the design cache and actually executes.
	inc, err := m.SubmitBase(d, optsN(2), base.ID)
	if err != nil {
		t.Fatalf("SubmitBase: %v", err)
	}
	snap := waitTerminal(t, inc)
	if snap.State != StateDone || snap.BaseJobID != base.ID {
		t.Fatalf("snapshot = %+v, want done with base %s", snap, base.ID)
	}
	if runs.Load() != 1 || reruns.Load() != 1 {
		t.Fatalf("runs=%d reruns=%d, want 1 and 1", runs.Load(), reruns.Load())
	}
	if gotBase != baseRes {
		t.Fatal("Rerun did not receive the base job's result")
	}
}

// TestSubmitBaseErrors: unknown and unfinished base jobs are rejected at
// submission time with typed errors (HTTP maps both to 400).
func TestSubmitBaseErrors(t *testing.T) {
	release := make(chan struct{})
	m := New(Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			<-release
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 16, 0, memExchange()))
	d := testDesign(t)

	if _, err := m.SubmitBase(d, core.Options{}, "no-such-job"); !errors.Is(err, ErrUnknownBaseJob) {
		t.Fatalf("unknown base error = %v, want ErrUnknownBaseJob", err)
	}

	running, err := m.Submit(d, optsN(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.SubmitBase(d, optsN(2), running.ID); !errors.Is(err, ErrBaseNotDone) {
		t.Fatalf("unfinished base error = %v, want ErrBaseNotDone", err)
	}
	close(release)
	waitTerminal(t, running)
}

// TestFinishedJobsHoldNoInputs: a retained job keeps its result but not
// the design it was submitted with nor its base job's result, whether
// it was answered from cache, run cold, or rerun against a base.
func TestFinishedJobsHoldNoInputs(t *testing.T) {
	var rerunBase atomic.Bool
	m := New(Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			return &core.RunResult{}, nil
		},
		Rerun: func(ctx context.Context, prev *core.RunResult, d *design.Design, o core.Options) (*core.RunResult, error) {
			rerunBase.Store(prev != nil && d != nil)
			return &core.RunResult{}, nil
		},
	}, NewExchangedResultCache(16, 16, 16, memExchange()))
	d := testDesign(t)

	cold, err := m.Submit(d, optsN(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, cold)
	hit, err := m.Submit(d, optsN(1))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if snap := waitTerminal(t, hit); !snap.Cached {
		t.Fatalf("resubmission = %+v, want a cached answer", snap)
	}
	rerun, err := m.SubmitBase(d, optsN(2), cold.ID)
	if err != nil {
		t.Fatalf("SubmitBase: %v", err)
	}
	waitTerminal(t, rerun)
	if !rerunBase.Load() {
		t.Fatal("the rerun did not receive its design and base result")
	}

	for _, j := range []*Job{cold, hit, rerun} {
		if _, ok := m.Get(j.ID); !ok {
			t.Fatalf("job %s is not retained", j.ID)
		}
		j.mu.Lock()
		hasDesign, hasBase, hasResult := j.design != nil, j.base != nil, j.result != nil
		j.mu.Unlock()
		if hasDesign || hasBase {
			t.Errorf("finished job %s holds design=%v base=%v, want neither", j.ID, hasDesign, hasBase)
		}
		if !hasResult {
			t.Errorf("finished job %s lost its result", j.ID)
		}
	}
}

// TestResultCacheIndependentAccounting: the three levels share one block
// source but count hits, misses and entries on their own.
func TestResultCacheIndependentAccounting(t *testing.T) {
	c := NewExchangedResultCache(2, 2, 2, memExchange())
	dk, pk, rk := cache.Key("d1", "fp"), cache.PanelKey("p1", "fp"), cache.RouteKey("r1", "fp")
	c.Design.Put(dk, &core.RunResult{})
	c.Panel.Put(pk, &pipeline.PanelArtifact{Key: pk})
	c.Route.Put(rk, &pipeline.RouteArtifact{Key: rk})

	if _, ok := c.Design.Get(dk); !ok {
		t.Fatal("design level lost its entry")
	}
	if _, ok := c.Panel.Get(cache.PanelKey("missing", "fp")); ok {
		t.Fatal("panel level fabricated an entry")
	}
	if _, ok := c.Route.Get(rk); !ok {
		t.Fatal("route level lost its entry")
	}

	design, panel, route := c.Design.Stats(), c.Panel.Stats(), c.Route.Stats()
	if design.Hits != 1 || design.Misses != 0 {
		t.Fatalf("design stats = %+v", design)
	}
	if panel.Hits != 0 || panel.Misses != 1 {
		t.Fatalf("panel stats = %+v", panel)
	}
	if route.Hits != 1 || route.Misses != 0 {
		t.Fatalf("route stats = %+v", route)
	}
	if design.Entries != 1 || panel.Entries != 1 || route.Entries != 1 {
		t.Fatalf("entry counts = %d %d %d", design.Entries, panel.Entries, route.Entries)
	}
}

// TestResultCachePerLevelEviction: each level's capacity bounds its own
// memory tier only. Overflowing one level evicts there and nowhere else,
// and every evicted entry is still answered from the block store.
func TestResultCachePerLevelEviction(t *testing.T) {
	c := NewExchangedResultCache(1, 2, 3, memExchange())
	var dks, pks, rks []string
	for i := 0; i < 4; i++ {
		label := fmt.Sprintf("k%d", i)
		dks = append(dks, cache.Key(label, "fp"))
		pks = append(pks, cache.PanelKey(label, "fp"))
		rks = append(rks, cache.RouteKey(label, "fp"))
		c.Design.Put(dks[i], &core.RunResult{})
		c.Panel.Put(pks[i], &pipeline.PanelArtifact{Panel: i, Key: pks[i]})
		c.Route.Put(rks[i], &pipeline.RouteArtifact{Key: rks[i]})
	}
	if st := c.Design.Stats(); st.Entries != 1 || st.Evictions != 3 {
		t.Fatalf("design after overflow = %+v", st)
	}
	if st := c.Panel.Stats(); st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("panel after overflow = %+v", st)
	}
	if st := c.Route.Stats(); st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("route after overflow = %+v", st)
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Design.Get(dks[i]); !ok {
			t.Errorf("design key %d lost after memory eviction", i)
		}
		if a, ok := c.Panel.Get(pks[i]); !ok || a.Panel != i {
			t.Errorf("panel key %d = %+v, %v after memory eviction", i, a, ok)
		}
		if _, ok := c.Route.Get(rks[i]); !ok {
			t.Errorf("route key %d lost after memory eviction", i)
		}
	}
}
