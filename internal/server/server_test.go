package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpr/client"
	"cpr/internal/blockstore"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/exchange"
	"cpr/internal/jobs"
	"cpr/internal/synth"
)

// smallSpec is a circuit tiny enough that a full real pipeline run takes
// well under a second.
var smallSpec = client.Spec{Name: "srv-test", Nets: 20, Width: 80, Height: 30, Seed: 3}

// memExchange is the block source cmd/cprd builds without
// -blockstore-dir or -peers: an exchange over an unbounded in-memory
// blockstore.
func memExchange() *exchange.Service {
	return exchange.New(blockstore.NewMem(0), nil, nil)
}

// newTestServer wires a manager (real pipeline unless cfg.Run overrides)
// behind an httptest server and returns a client for it.
func newTestServer(t *testing.T, cfg jobs.Config) (*jobs.Manager, *client.Client) {
	t.Helper()
	mgr := jobs.New(cfg, jobs.NewExchangedResultCache(256, 0, 0, memExchange()))
	ts := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(ts.Close)
	return mgr, client.New(ts.URL)
}

func TestSubmitPollResultRoundTrip(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 2})
	ctx := context.Background()

	job, err := c.SubmitSpec(ctx, smallSpec, nil)
	if err != nil {
		t.Fatalf("SubmitSpec: %v", err)
	}
	if job.ID == "" || job.Key == "" {
		t.Fatalf("submission missing id/key: %+v", job)
	}
	final, err := c.Wait(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != "done" || final.Cached {
		t.Fatalf("final job = %+v, want done uncached", final)
	}
	if final.Result == nil || final.Result.Metrics.TotalNets != 20 {
		t.Fatalf("result = %+v, want metrics for 20 nets", final.Result)
	}
	if final.Result.PinOpt == nil || final.Result.PinOpt.Pins == 0 {
		t.Fatalf("pinopt summary = %+v, want populated", final.Result.PinOpt)
	}
	if final.Result.Mode != "cpr" {
		t.Fatalf("mode = %q, want cpr", final.Result.Mode)
	}
}

func TestCacheHitOnIdenticalResubmission(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 2})
	ctx := context.Background()

	first, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if first.State != "done" || first.Cached {
		t.Fatalf("first = %+v, want done uncached", first)
	}
	second, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if second.State != "done" || !second.Cached {
		t.Fatalf("second = %+v, want done served from cache", second)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatalf("cached result differs:\n first  %+v\n second %+v", first.Result, second.Result)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Cache.Hits != 1 || st.CacheHitRate <= 0 {
		t.Fatalf("stats = hits %d rate %v, want 1 hit", st.Cache.Hits, st.CacheHitRate)
	}
	if st.Stages["run"].Count != 1 {
		t.Fatalf("run stage count = %d, want 1 (cache hit must not run)", st.Stages["run"].Count)
	}
}

// TestInlineDesignSharesCacheWithSpec proves content addressing: a design
// generated client-side and submitted inline hits the cache entry left by
// the equivalent server-side spec submission.
func TestInlineDesignSharesCacheWithSpec(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 2})
	ctx := context.Background()

	if _, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true}); err != nil {
		t.Fatalf("spec submit: %v", err)
	}

	d, err := synth.Generate(synth.Spec{
		Name: smallSpec.Name, Nets: smallSpec.Nets,
		Width: smallSpec.Width, Height: smallSpec.Height, Seed: smallSpec.Seed,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var sb strings.Builder
	if err := designio.Write(&sb, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	job, err := c.Submit(ctx, client.SubmitRequest{Design: sb.String(), Wait: true})
	if err != nil {
		t.Fatalf("inline submit: %v", err)
	}
	if !job.Cached {
		t.Fatalf("inline submission of identical design missed the cache: %+v", job)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	_, c := newTestServer(t, jobs.Config{
		MaxConcurrent: 1,
		QueueCap:      1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			<-release
			return &core.RunResult{}, nil
		},
	})
	defer close(release)
	ctx := context.Background()

	specN := func(seed int64) client.Spec {
		s := smallSpec
		s.Seed = seed
		return s
	}
	first, err := c.SubmitSpec(ctx, specN(101), nil)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	// Wait for the worker to pick up the first job so the queue slot is
	// predictably free.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := c.Job(ctx, first.ID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if j.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.SubmitSpec(ctx, specN(102), nil); err != nil {
		t.Fatalf("second (fills queue): %v", err)
	}
	_, err = c.SubmitSpec(ctx, specN(103), nil)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: err = %v, want 429 StatusError", err)
	}
}

func TestGracefulDrainCompletesInflight(t *testing.T) {
	mgr, c := newTestServer(t, jobs.Config{
		MaxConcurrent: 2,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			time.Sleep(30 * time.Millisecond)
			return &core.RunResult{}, nil
		},
	})
	ctx := context.Background()

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		s := smallSpec
		s.Seed = seed
		job, err := c.SubmitSpec(ctx, s, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, job.ID)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		job, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if job.State != "done" {
			t.Fatalf("job %s after drain = %q, want done", id, job.State)
		}
	}

	_, err := c.SubmitSpec(ctx, smallSpec, nil)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: err = %v, want 503", err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || !h.Draining {
		t.Fatalf("health = %+v, want ok + draining", h)
	}
}

// TestJobTimeoutRealPipeline runs the actual optimizer under a deadline
// it cannot meet: the job must land in a terminal failed state, and a
// small job submitted afterwards must still complete — the queue is not
// wedged by the timeout.
func TestJobTimeoutRealPipeline(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 1, JobTimeout: 500 * time.Millisecond})
	ctx := context.Background()

	big := client.Spec{Name: "srv-big", Nets: 3000, Width: 600, Height: 300, Seed: 31}
	job, err := c.SubmitSpec(ctx, big, nil)
	if err != nil {
		t.Fatalf("big submit: %v", err)
	}
	final, err := c.Wait(ctx, job.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != "failed" || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("timed-out job = %+v, want failed with deadline error", final)
	}

	small, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("small submit: %v", err)
	}
	if small.State != "done" {
		t.Fatalf("queue wedged after timeout: small job = %+v", small)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 1})
	ctx := context.Background()
	var se *client.StatusError

	_, err := c.Submit(ctx, client.SubmitRequest{})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("empty request: err = %v, want 400", err)
	}
	_, err = c.Submit(ctx, client.SubmitRequest{Design: "cpr-design 1", Spec: &smallSpec})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("design+spec: err = %v, want 400", err)
	}
	_, err = c.Submit(ctx, client.SubmitRequest{Design: "not a design"})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("garbage design: err = %v, want 400", err)
	}
	_, err = c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Options: &client.Options{Mode: "warp"}})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("bad mode: err = %v, want 400", err)
	}
	// A negative LR step exponent turns the multipliers NaN; it is refused
	// with its reason before the job is queued.
	_, err = c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Options: &client.Options{LRAlpha: -1000}})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(err.Error(), "Alpha") {
		t.Fatalf("lr_alpha -1000: err = %v, want 400 naming Alpha", err)
	}
	_, err = c.Job(ctx, "j999999")
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown job: err = %v, want 404", err)
	}
}

// TestStatsReportsDefaultQueueCap: a manager configured without a queue
// cap reports the default of 64 on /v1/stats.
func TestStatsReportsDefaultQueueCap(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 1})
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	if st.QueueCap != 64 {
		t.Fatalf("queue_cap = %d, want default 64", st.QueueCap)
	}
}

// TestIncrementalSubmitWithBaseJob drives the full incremental path over
// HTTP with the real pipeline: submit a design, move one pin, resubmit
// naming the first job as base_job, and check that panels were reused,
// the panel-cache counters moved, and the result matches a cold run of
// the edited design.
func TestIncrementalSubmitWithBaseJob(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 2})
	ctx := context.Background()

	d, err := synth.Generate(synth.Spec{Name: "inc-e2e", Nets: 40, Width: 100, Height: 40, Seed: 9})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var sb strings.Builder
	if err := designio.Write(&sb, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	base, err := c.Submit(ctx, client.SubmitRequest{Design: sb.String(), Wait: true})
	if err != nil {
		t.Fatalf("base submit: %v", err)
	}
	if base.State != "done" {
		t.Fatalf("base job = %+v, want done", base)
	}

	// Move one pin by one column; the rebuilt text is a valid ECO edit.
	edited := *d
	edited.Pins = append([]design.Pin(nil), d.Pins...)
	p := &edited.Pins[0]
	p.Shape.X0++
	p.Shape.X1++
	if err := edited.Validate(); err != nil {
		t.Fatalf("edit invalid: %v", err)
	}
	var eb strings.Builder
	if err := designio.Write(&eb, &edited); err != nil {
		t.Fatalf("write edited: %v", err)
	}

	inc, err := c.SubmitIncremental(ctx, eb.String(), base.ID, nil)
	if err != nil {
		t.Fatalf("incremental submit: %v", err)
	}
	final, err := c.Wait(ctx, inc.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != "done" || final.Cached {
		t.Fatalf("incremental job = %+v, want done uncached", final)
	}
	if final.BaseJob != base.ID {
		t.Errorf("base_job echo = %q, want %q", final.BaseJob, base.ID)
	}
	sum := final.Result.Incremental
	if sum == nil || sum.Reused == 0 {
		t.Fatalf("incremental summary = %+v, want reused panels", sum)
	}
	if sum.Reused+len(sum.Recomputed) != sum.Panels {
		t.Errorf("summary does not add up: %+v", sum)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.PanelCache.Hits == 0 {
		t.Errorf("panel cache hits = 0, want > 0 after incremental resubmission")
	}
	if st.PanelCacheHitRate <= 0 {
		t.Errorf("panel cache hit rate = %v, want > 0", st.PanelCacheHitRate)
	}

	// Byte-identity over the wire: a cold server run of the edited design
	// must produce the same result payload (provenance fields aside).
	_, cold := newTestServer(t, jobs.Config{MaxConcurrent: 2})
	coldJob, err := cold.Submit(ctx, client.SubmitRequest{Design: eb.String(), Wait: true})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	got, want := *final.Result, *coldJob.Result
	got.Incremental, want.Incremental = nil, nil
	got.PinOpt.ElapsedMS, want.PinOpt.ElapsedMS = 0, 0
	got.Metrics, want.Metrics = got.Metrics.ZeroTimes(), want.Metrics.ZeroTimes()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("incremental result differs from cold run:\n inc  %+v\n cold %+v", got, want)
	}
}

// TestUnknownBaseJobRejected: naming a base job the daemon does not know
// is a 400 at submission time.
func TestUnknownBaseJobRejected(t *testing.T) {
	_, c := newTestServer(t, jobs.Config{MaxConcurrent: 1})
	var sb strings.Builder
	d, err := synth.Generate(synth.Spec{Name: "inc-bad", Nets: 10, Width: 60, Height: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := designio.Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitIncremental(context.Background(), sb.String(), "job-does-not-exist", nil)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("error = %v, want HTTP 400", err)
	}
}
