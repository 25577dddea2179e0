// Package client is a small Go client for the cprd daemon's HTTP/JSON
// API (see internal/server). It submits designs or synthetic-circuit
// specs, polls jobs to completion, and reads the daemon's stats.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cpr/internal/httpapi"
)

// Re-exported wire types, so callers never import internal packages.
type (
	// SubmitRequest is the body of POST /v1/jobs.
	SubmitRequest = httpapi.SubmitRequest
	// Spec generates a synthetic circuit server-side.
	Spec = httpapi.Spec
	// Options tunes the optimization flow.
	Options = httpapi.Options
	// Job is a job snapshot as returned by the daemon.
	Job = httpapi.Job
	// Result is the completed-run payload inside a Job.
	Result = httpapi.Result
	// IncrementalSummary reports panel reuse inside a Result.
	IncrementalSummary = httpapi.IncrementalSummary
	// Stats is the body of GET /v1/stats.
	Stats = httpapi.Stats
	// Health is the body of GET /v1/healthz.
	Health = httpapi.Health
)

// StatusError reports a non-2xx daemon response.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cprd: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// Client talks to one cprd daemon.
type Client struct {
	baseURL string
	http    *http.Client
}

// New creates a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). The default HTTP client has no timeout so
// Wait-style calls can block; bound them with the context instead, or
// install a custom client with SetHTTPClient.
func New(baseURL string) *Client {
	return &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		http:    &http.Client{},
	}
}

// SetHTTPClient replaces the underlying HTTP client.
func (c *Client) SetHTTPClient(h *http.Client) { c.http = h }

// Submit posts one request and returns the daemon's job snapshot. With
// req.Wait set the call blocks until the job is terminal (or ctx fires).
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", &req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// SubmitDesign submits an inline cpr-design document.
func (c *Client) SubmitDesign(ctx context.Context, designText string, opts *Options) (*Job, error) {
	return c.Submit(ctx, SubmitRequest{Design: designText, Options: opts})
}

// SubmitSpec submits a synthetic-circuit spec for server-side generation.
func (c *Client) SubmitSpec(ctx context.Context, spec Spec, opts *Options) (*Job, error) {
	return c.Submit(ctx, SubmitRequest{Spec: &spec, Options: opts})
}

// RerunMode values for Options.RerunMode, selecting the incremental
// contract of a submission with a BaseJob.
const (
	// RerunStrict (the default, also selected by an empty RerunMode)
	// splices only provably unaffected work: the result is byte-identical
	// to a cold run of the same design, the baseline changes wall clock
	// only.
	RerunStrict = "strict"
	// RerunEcoFast additionally warm-starts surviving nets of dirtied
	// regions from the base's routes. Results are checked DRC-clean only:
	// route bytes and routed nets may differ from a cold run, so eco-fast
	// results are never cached or shared.
	RerunEcoFast = "eco-fast"
)

// SubmitIncremental submits an edited design to rerun against a finished
// base job: unchanged panels are spliced from the base's artifacts and
// only the dirtied ones are recomputed. The result is byte-identical to
// a cold submission of the same design.
func (c *Client) SubmitIncremental(ctx context.Context, designText, baseJobID string, opts *Options) (*Job, error) {
	return c.Submit(ctx, SubmitRequest{Design: designText, BaseJob: baseJobID, Options: opts})
}

// SubmitIncrementalMode is SubmitIncremental with an explicit rerun mode
// (RerunStrict or RerunEcoFast), overriding any mode already in opts.
func (c *Client) SubmitIncrementalMode(ctx context.Context, designText, baseJobID, mode string, opts *Options) (*Job, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.RerunMode = mode
	return c.Submit(ctx, SubmitRequest{Design: designText, BaseJob: baseJobID, Options: &o})
}

// Job fetches one job by ID.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait polls a job until it reaches a terminal state, checking every
// poll interval (default 50ms when poll <= 0).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.State == "done" || job.State == "failed" {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Stats fetches the daemon's queue/cache/latency counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health checks liveness; it returns the health body on 200 and an
// error otherwise.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// TraceFormat selects the encoding of a job trace.
type TraceFormat string

const (
	// TraceChrome is Chrome trace_event JSON, loadable in chrome://tracing
	// or Perfetto (the daemon's default).
	TraceChrome TraceFormat = "chrome"
	// TraceJSON is the raw span-record export.
	TraceJSON TraceFormat = "json"
)

// Trace fetches a job's span trace as raw bytes in the given format
// (empty defaults to TraceChrome). The daemon answers 404 for jobs that
// never ran (cache hits) or when tracing is disabled.
func (c *Client) Trace(ctx context.Context, id string, format TraceFormat) ([]byte, error) {
	path := "/v1/jobs/" + id + "/trace"
	if format != "" {
		path += "?format=" + string(format)
	}
	return c.raw(ctx, path)
}

// Metrics fetches the daemon's /metrics endpoint: Prometheus text
// exposition of the operational metrics registry (empty when the daemon
// runs without one).
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.raw(ctx, "/metrics")
}

// raw GETs a path and returns the body bytes, mapping non-2xx responses
// to StatusError like do.
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("cprd client: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cprd client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, fmt.Errorf("cprd client: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr httpapi.Error
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return nil, &StatusError{Code: resp.StatusCode, Message: apiErr.Error}
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return data, nil
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("cprd client: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return fmt.Errorf("cprd client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("cprd client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return fmt.Errorf("cprd client: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr httpapi.Error
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return &StatusError{Code: resp.StatusCode, Message: apiErr.Error}
		}
		return &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cprd client: decoding response: %w", err)
	}
	return nil
}
