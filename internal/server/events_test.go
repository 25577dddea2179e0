package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cpr/client"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/jobs"
	"cpr/internal/telemetry"
)

// newEventServer wires a manager with an event bus behind an httptest
// server, returning the Server too so tests can tune SSE knobs.
func newEventServer(t *testing.T, cfg jobs.Config) (*jobs.Manager, *client.Client, string, *Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Events == nil {
		cfg.Events = telemetry.NewEventBus(0)
	}
	mgr := jobs.New(cfg, jobs.NewExchangedResultCache(256, 0, 0, memExchange()))
	srv := New(mgr)
	srv.SetEvents(cfg.Events)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return mgr, client.New(ts.URL), ts.URL, srv
}

// TestJobEventStreamOrdering subscribes while the job is still running
// and checks the full lifecycle arrives live, in publish order, with
// strictly increasing sequence numbers and a clean close on job_done.
func TestJobEventStreamOrdering(t *testing.T) {
	release := make(chan struct{})
	_, c, _, _ := newEventServer(t, jobs.Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			telemetry.EmitterFrom(ctx).Emit("lr_iteration", map[string]any{"iter": 1, "violations": 0})
			<-release
			return &core.RunResult{}, nil
		},
	})
	ctx := context.Background()

	job, err := c.SubmitSpec(ctx, smallSpec, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	events := make(chan []client.JobEvent, 1)
	go func() {
		var got []client.JobEvent
		err := c.StreamEvents(ctx, job.ID, 0, func(ev client.JobEvent) error {
			got = append(got, ev)
			if ev.Type == "job_started" {
				close(release) // the job finishes only once the stream is live
			}
			return nil
		})
		if err != nil {
			t.Errorf("StreamEvents: %v", err)
		}
		events <- got
	}()

	var got []client.JobEvent
	select {
	case got = <-events:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after job completion")
	}

	var types []string
	var lastSeq uint64
	for _, ev := range got {
		types = append(types, ev.Type)
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence numbers not strictly increasing: %v then %v", lastSeq, ev.Seq)
		}
		lastSeq = ev.Seq
		if ev.Job != job.ID {
			t.Fatalf("event for job %q on %q's stream", ev.Job, job.ID)
		}
	}
	want := []string{"job_admitted", "job_started", "lr_iteration", "job_done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event order = %v, want %v", types, want)
	}
}

// TestJobEventStreamResume replays a finished job's stream, then
// reconnects with Last-Event-ID mid-way and checks the continuation
// picks up exactly after the resume point with no duplicates.
func TestJobEventStreamResume(t *testing.T) {
	_, c, baseURL, _ := newEventServer(t, jobs.Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			em := telemetry.EmitterFrom(ctx)
			for i := 0; i < 5; i++ {
				em.Emit("lr_iteration", map[string]any{"iter": i})
			}
			return &core.RunResult{}, nil
		},
	})
	ctx := context.Background()

	job, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var all []client.JobEvent
	if err := c.StreamEvents(ctx, job.ID, 0, func(ev client.JobEvent) error {
		all = append(all, ev)
		return nil
	}); err != nil {
		t.Fatalf("full stream: %v", err)
	}
	if len(all) < 4 {
		t.Fatalf("full stream has %d events, want >= 4", len(all))
	}

	cut := len(all) / 2
	var resumed []client.JobEvent
	if err := c.StreamEvents(ctx, job.ID, all[cut-1].Seq, func(ev client.JobEvent) error {
		resumed = append(resumed, ev)
		return nil
	}); err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	if len(resumed) != len(all)-cut {
		t.Fatalf("resumed stream has %d events, want %d", len(resumed), len(all)-cut)
	}
	for i, ev := range resumed {
		if ev.Seq != all[cut+i].Seq {
			t.Fatalf("resumed[%d].Seq = %d, want %d", i, ev.Seq, all[cut+i].Seq)
		}
	}

	// The ?after= query fallback behaves like the header.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", baseURL, job.ID, all[len(all)-2].Seq))
	if err != nil {
		t.Fatalf("GET ?after=: %v", err)
	}
	defer resp.Body.Close()
	body := make([]byte, 64<<10)
	n, _ := resp.Body.Read(body)
	frames := string(body[:n])
	if !strings.Contains(frames, fmt.Sprintf("id: %d", all[len(all)-1].Seq)) {
		t.Fatalf("?after= replay missing the last event:\n%s", frames)
	}
	if strings.Contains(frames, fmt.Sprintf("id: %d\n", all[0].Seq)) {
		t.Fatalf("?after= replay included pre-resume events:\n%s", frames)
	}
}

// TestJobEventStreamHeartbeat holds a job open and checks heartbeat
// comments flow at the configured cadence while no events arrive.
func TestJobEventStreamHeartbeat(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, c, baseURL, srv := newEventServer(t, jobs.Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			<-release
			return &core.RunResult{}, nil
		},
	})
	srv.SetEventHeartbeat(20 * time.Millisecond)
	ctx := context.Background()

	job, err := c.SubmitSpec(ctx, smallSpec, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	resp, err := http.Get(baseURL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	beats := 0
	for sc.Scan() && beats < 3 {
		if strings.HasPrefix(sc.Text(), ": hb") {
			beats++
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if beats < 3 {
		t.Fatalf("saw %d heartbeats in 5s at 20ms cadence, want >= 3", beats)
	}
}

// TestJobEventStreamSlowConsumerDrops stalls an SSE reader while the job
// floods the bus and checks events are dropped (and counted) instead of
// the publisher blocking — the reader must never slow the solver.
func TestJobEventStreamSlowConsumerDrops(t *testing.T) {
	started := make(chan struct{})
	flood := make(chan struct{})
	release := make(chan struct{})
	mgr, c, baseURL, _ := newEventServer(t, jobs.Config{
		MaxConcurrent: 1,
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			close(started)
			<-flood
			em := telemetry.EmitterFrom(ctx)
			// Far more than the subscriber buffer (256) plus what socket
			// buffers can absorb: each event carries a ~1KiB payload.
			pad := strings.Repeat("x", 1024)
			for i := 0; i < 5000; i++ {
				em.Emit("lr_iteration", map[string]any{"iter": i, "pad": pad})
			}
			<-release
			return &core.RunResult{}, nil
		},
	})
	ctx := context.Background()

	job, err := c.SubmitSpec(ctx, smallSpec, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started

	// Open the stream but never read the body: the subscriber channel
	// fills once the TCP and handler buffers are full.
	resp, err := http.Get(baseURL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	close(flood)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := mgr.Stats(); st.EventsDropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no events dropped: a stalled reader back-pressured the bus")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)

	// The drop counter is also exported on /metrics.
	mresp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	var metrics strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		metrics.WriteString(sc.Text() + "\n")
	}
	if !strings.Contains(metrics.String(), "cpr_events_dropped_total") {
		t.Fatal("/metrics missing cpr_events_dropped_total")
	}
	for _, line := range strings.Split(metrics.String(), "\n") {
		if strings.HasPrefix(line, "cpr_events_dropped_total") && strings.HasSuffix(line, " 0") {
			t.Fatalf("cpr_events_dropped_total still zero: %s", line)
		}
	}
}

// TestJobEventStream404s mirrors the trace endpoint's not-found
// behavior: unknown jobs, disabled streaming, and cached jobs all 404
// with a reason.
func TestJobEventStream404s(t *testing.T) {
	run := func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
		return &core.RunResult{}, nil
	}
	_, c, _, _ := newEventServer(t, jobs.Config{MaxConcurrent: 1, Run: run})
	ctx := context.Background()

	wantStatus := func(err error, frag string) {
		t.Helper()
		var se *client.StatusError
		if err == nil || !asStatusError(err, &se) || se.Code != http.StatusNotFound {
			t.Fatalf("err = %v, want 404", err)
		}
		if !strings.Contains(se.Message, frag) {
			t.Fatalf("404 message %q missing %q", se.Message, frag)
		}
	}

	wantStatus(c.StreamEvents(ctx, "nope", 0, func(client.JobEvent) error { return nil }), "unknown job")

	// A cache-served job has no event stream.
	if _, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	cached, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("cached submit: %v", err)
	}
	if !cached.Cached {
		t.Fatalf("second submission not cached: %+v", cached)
	}
	wantStatus(c.StreamEvents(ctx, cached.ID, 0, func(client.JobEvent) error { return nil }), "served from cache")

	// A server without a bus 404s every stream.
	mgr2 := jobs.New(jobs.Config{MaxConcurrent: 1, Run: run}, jobs.NewExchangedResultCache(16, 0, 0, memExchange()))
	ts2 := httptest.NewServer(New(mgr2).Handler())
	t.Cleanup(ts2.Close)
	c2 := client.New(ts2.URL)
	job2, err := c2.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("submit (no bus): %v", err)
	}
	wantStatus(c2.StreamEvents(ctx, job2.ID, 0, func(client.JobEvent) error { return nil }), "streaming disabled")
}

// TestDebugEventsEndpoint checks the flight recorder answers with the
// ring after a job ran with no tracing enabled, and 404s without a bus.
func TestDebugEventsEndpoint(t *testing.T) {
	_, c, _, _ := newEventServer(t, jobs.Config{
		MaxConcurrent: 1,
		// TraceJobs deliberately left false: the recorder must not depend
		// on tracing.
		Run: func(ctx context.Context, d *design.Design, o core.Options) (*core.RunResult, error) {
			return &core.RunResult{}, nil
		},
	})
	ctx := context.Background()
	if _, err := c.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	raw, err := c.DebugEvents(ctx)
	if err != nil {
		t.Fatalf("DebugEvents: %v", err)
	}
	dump := string(raw)
	if !strings.Contains(dump, `"format": "cpr-events-v1"`) {
		t.Fatalf("dump missing envelope:\n%s", dump)
	}
	for _, typ := range []string{"job_admitted", "job_started", "job_done"} {
		if !strings.Contains(dump, typ) {
			t.Fatalf("dump missing %s event:\n%s", typ, dump)
		}
	}

	mgr2 := jobs.New(jobs.Config{MaxConcurrent: 1}, jobs.NewExchangedResultCache(16, 0, 0, memExchange()))
	ts2 := httptest.NewServer(New(mgr2).Handler())
	t.Cleanup(ts2.Close)
	if _, err := client.New(ts2.URL).DebugEvents(ctx); err == nil {
		t.Fatal("DebugEvents succeeded with no recorder configured")
	}
}

// asStatusError unwraps err into a *client.StatusError.
func asStatusError(err error, target **client.StatusError) bool {
	se, ok := err.(*client.StatusError)
	if ok {
		*target = se
	}
	return ok
}
