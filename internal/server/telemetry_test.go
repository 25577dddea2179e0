package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"cpr/client"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/jobs"
	"cpr/internal/telemetry"
)

// promLine matches one Prometheus text-exposition sample line:
// name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(Inf)?$`)

// newMetricsServer is newTestServer with a metrics registry and job
// tracing wired in, exposing the raw base URL for header checks.
func newMetricsServer(t *testing.T, cfg jobs.Config) (*jobs.Manager, *client.Client, string) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	mgr := jobs.New(cfg, jobs.NewExchangedResultCache(256, 0, 0, memExchange()))
	ts := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(ts.Close)
	return mgr, client.New(ts.URL), ts.URL
}

// TestMetricsEndpointPrometheusFormat scrapes /metrics after one real
// pipeline run and checks the exposition is well-formed and carries the
// daemon-level and pipeline-level series the dashboards depend on.
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	_, c, baseURL := newMetricsServer(t, jobs.Config{MaxConcurrent: 2, TraceJobs: true})
	ctx := context.Background()

	if _, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// A second identical submission exercises the design-level cache so
	// the hit counter is nonzero.
	if _, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true}); err != nil {
		t.Fatalf("resubmit: %v", err)
	}

	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	text := string(body)

	for _, want := range []string{
		"# TYPE cprd_job_run_seconds histogram",
		"cprd_job_run_seconds_count 1",
		"cprd_job_queue_wait_seconds_count 1",
		`cprd_cache_hits_total{level="design"} 1`,
		`cprd_cache_misses_total{level="design"} 1`,
		`cprd_cache_hits_total{level="panel"}`,
		"cprd_queue_depth 0",
		`cprd_jobs_by_state{state="done"} 2`,
		// Pipeline metrics flow into the same registry via the job context.
		`cpr_runs_total{mode="cpr"} 1`,
		`cpr_panels_total{source="computed"}`,
		`cpr_stage_seconds_count{stage="pinopt"} 1`,
		`cpr_stage_seconds_count{stage="route"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestJobTraceEndpoint exercises GET /v1/jobs/{id}/trace: executed jobs
// serve a parseable trace in both encodings, cache-served jobs and
// unknown IDs answer 404, and bad formats answer 400.
func TestJobTraceEndpoint(t *testing.T) {
	_, c, _ := newMetricsServer(t, jobs.Config{MaxConcurrent: 2, TraceJobs: true})
	ctx := context.Background()

	job, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	chrome, err := c.Trace(ctx, job.ID, client.TraceChrome)
	if err != nil {
		t.Fatalf("Trace chrome: %v", err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &ct); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"run", "pinopt", "panel", "route"} {
		if !names[want] {
			t.Errorf("chrome trace missing %q span", want)
		}
	}

	raw, err := c.Trace(ctx, job.ID, client.TraceJSON)
	if err != nil {
		t.Fatalf("Trace json: %v", err)
	}
	var rt struct {
		Format string `json:"format"`
		Spans  []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatalf("raw trace not JSON: %v", err)
	}
	if rt.Format != "cpr-trace-v1" || len(rt.Spans) == 0 {
		t.Fatalf("raw trace = format %q, %d spans; want cpr-trace-v1 with spans", rt.Format, len(rt.Spans))
	}

	cached, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("cached submit: %v", err)
	}
	if !cached.Cached {
		t.Fatalf("second submission not cache-served: %+v", cached)
	}
	var se *client.StatusError
	if _, err := c.Trace(ctx, cached.ID, client.TraceChrome); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("trace of cached job: err = %v, want 404", err)
	}
	if _, err := c.Trace(ctx, "nope", client.TraceChrome); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("trace of unknown job: err = %v, want 404", err)
	}
	if _, err := c.Trace(ctx, job.ID, client.TraceFormat("xml")); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Errorf("trace with bad format: err = %v, want 400", err)
	}
}

// TestTraceDisabledAnswers404 covers the TraceJobs=false daemon
// configuration: executed jobs exist but carry no trace.
func TestTraceDisabledAnswers404(t *testing.T) {
	_, c, _ := newMetricsServer(t, jobs.Config{MaxConcurrent: 2})
	ctx := context.Background()

	job, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var se *client.StatusError
	if _, err := c.Trace(ctx, job.ID, client.TraceChrome); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("trace with tracing disabled: err = %v, want 404", err)
	}
}

// TestRejectedSubmissionCounters drives both rejection paths and checks
// they surface in /v1/stats and /metrics.
func TestRejectedSubmissionCounters(t *testing.T) {
	release := make(chan struct{})
	mgr, c, _ := newMetricsServer(t, jobs.Config{
		MaxConcurrent: 1,
		QueueCap:      1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			<-release
			return &core.RunResult{}, nil
		},
	})
	ctx := context.Background()

	specN := func(seed int64) client.Spec {
		s := smallSpec
		s.Seed = seed
		return s
	}
	first, err := c.SubmitSpec(ctx, specN(201), nil)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
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
	if _, err := c.SubmitSpec(ctx, specN(202), nil); err != nil {
		t.Fatalf("second (fills queue): %v", err)
	}
	var se *client.StatusError
	if _, err := c.SubmitSpec(ctx, specN(203), nil); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: err = %v, want 429", err)
	}

	close(release)
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := c.SubmitSpec(ctx, specN(204), nil); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: err = %v, want 503", err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.RejectedQueueFull != 1 || st.RejectedDraining != 1 {
		t.Errorf("stats rejections = full %d draining %d, want 1 and 1",
			st.RejectedQueueFull, st.RejectedDraining)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		`cprd_jobs_rejected_total{reason="queue_full"} 1`,
		`cprd_jobs_rejected_total{reason="draining"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
