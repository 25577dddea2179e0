package exchange

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"cpr/internal/blockstore"
	"cpr/internal/telemetry"
)

// Default tuning for the HTTP fetcher. Fetches sit on the job hot path
// only when the local store is cold, and the fallback (recompute) is
// always available, so the budget per peer is small.
const (
	DefaultPeerTimeout = 2 * time.Second
	defaultBackoffBase = 500 * time.Millisecond
	defaultBackoffMax  = 30 * time.Second
)

// HTTPOptions tunes NewHTTPFetcher.
type HTTPOptions struct {
	// Timeout bounds each single-peer request (default DefaultPeerTimeout).
	Timeout time.Duration
	// BackoffBase is the penalty after a peer's first transport failure;
	// it doubles per consecutive failure up to BackoffMax. A clean
	// response (200 or 404) resets the penalty.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Registry records per-peer fetch latency
	// (cpr_peer_fetch_seconds{peer}) and transport errors
	// (cpr_peer_errors_total{peer}); nil gets a private registry. Health
	// reads its fetch and error counts from these instruments.
	Registry *telemetry.Registry
}

// peerState tracks one peer's health for backoff and observability.
type peerState struct {
	base     string // normalized base URL, no trailing slash
	failures int
	until    time.Time // in backoff until this instant
	lastErr  string

	hist   *telemetry.Histogram // per-peer latency; its count is the attempts
	errCtr *telemetry.Counter   // per-peer transport errors
}

// PeerHealth is one peer's observable state, surfaced in /v1/stats.
type PeerHealth struct {
	Peer                string `json:"peer"`
	Fetches             int64  `json:"fetches"`
	Errors              int64  `json:"errors"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	InBackoff           bool   `json:"in_backoff"`
	LastError           string `json:"last_error,omitempty"`
}

// HTTPFetcher resolves blocks from a static list of peer daemons over
// cprd's GET /v1/blocks/{key} endpoint. Peers are tried in order; a
// peer that fails at the transport level (refused, timeout, 5xx) is
// skipped for an exponentially growing window so one dead peer cannot
// slow every cold lookup.
//
// Each attempt opens a "peer_fetch" span under the caller's current
// span and sends the span's propagation context in the TraceHeader; a
// successful response's SpanHeader is adopted as a remote child span,
// stitching the serving node's work into the requester's trace
// (DESIGN.md §4j).
type HTTPFetcher struct {
	client  *http.Client
	timeout time.Duration
	base    time.Duration
	max     time.Duration
	now     func() time.Time // injectable for tests

	mu    sync.Mutex
	peers []*peerState
}

// NewHTTPFetcher builds a fetcher over peer base URLs (for example
// "http://nodeA:8080"). Empty strings are dropped; a scheme-less peer
// gets "http://".
func NewHTTPFetcher(peers []string, opts HTTPOptions) *HTTPFetcher {
	f := &HTTPFetcher{
		client:  opts.Client,
		timeout: opts.Timeout,
		base:    opts.BackoffBase,
		max:     opts.BackoffMax,
		now:     time.Now,
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if f.timeout <= 0 {
		f.timeout = DefaultPeerTimeout
	}
	if f.base <= 0 {
		f.base = defaultBackoffBase
	}
	if f.max <= 0 {
		f.max = defaultBackoffMax
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		base := strings.TrimRight(p, "/")
		f.peers = append(f.peers, &peerState{
			base: base,
			hist: reg.Histogram("cpr_peer_fetch_seconds",
				"Block fetch latency per peer.", telemetry.DefSecondsBuckets,
				telemetry.L("peer", base)),
			errCtr: reg.Counter("cpr_peer_errors_total",
				"Transport-level block fetch failures per peer.",
				telemetry.L("peer", base)),
		})
	}
	return f
}

// Health snapshots every peer's fetch/error counters and backoff state.
func (f *HTTPFetcher) Health() []PeerHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]PeerHealth, 0, len(f.peers))
	now := f.now()
	for _, p := range f.peers {
		out = append(out, PeerHealth{
			Peer:                p.base,
			Fetches:             int64(p.hist.Count()),
			Errors:              int64(p.errCtr.Value()),
			ConsecutiveFailures: p.failures,
			InBackoff:           p.failures > 0 && now.Before(p.until),
			LastError:           p.lastErr,
		})
	}
	return out
}

// Fetch tries each healthy peer in order and returns the first block
// found. Every peer answering 404 (or being skipped/unreachable) is a
// clean miss: ErrNotFound.
func (f *HTTPFetcher) Fetch(ctx context.Context, key string) ([]byte, error) {
	if !blockstore.ValidKey(key) {
		return nil, fmt.Errorf("exchange: malformed key %q", key)
	}
	for _, p := range f.peers {
		if f.inBackoff(p) {
			continue
		}
		data, err := f.fetchOne(ctx, p, key)
		switch {
		case err == nil:
			f.markOK(p)
			return data, nil
		case err == blockstore.ErrNotFound:
			f.markOK(p) // the peer is healthy, it just lacks the block
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			f.markFailed(p, err)
		}
	}
	return nil, ErrNotFound
}

// fetchOne performs one GET against one peer with the per-peer timeout,
// recording latency, opening a traced span, and propagating/adopting
// trace context headers.
func (f *HTTPFetcher) fetchOne(ctx context.Context, p *peerState, key string) ([]byte, error) {
	_, sp := telemetry.StartSpan(ctx, "peer_fetch")
	sp.SetAttr("peer", p.base)
	sp.SetAttr("key", key)
	defer sp.End()

	t0 := time.Now()
	data, err := f.doFetch(ctx, p.base, key, sp)
	p.hist.Observe(time.Since(t0).Seconds())
	switch {
	case err == nil:
		sp.SetAttr("outcome", "hit")
	case err == blockstore.ErrNotFound:
		sp.SetAttr("outcome", "not_found")
	default:
		sp.SetAttr("outcome", "error")
		sp.SetAttr("error", err.Error())
	}
	return data, err
}

// doFetch is the raw single-peer HTTP exchange.
func (f *HTTPFetcher) doFetch(ctx context.Context, base, key string, sp *telemetry.Span) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+BlockPath+key, nil)
	if err != nil {
		return nil, err
	}
	if sc := sp.SpanContext(); sc.Valid() {
		req.Header.Set(telemetry.TraceHeader, sc.String())
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if rs, ok := telemetry.DecodeRemoteSpan(resp.Header.Get(telemetry.SpanHeader)); ok {
			sp.AdoptRemote(rs)
		}
		return io.ReadAll(resp.Body)
	case http.StatusNotFound:
		return nil, blockstore.ErrNotFound
	default:
		return nil, fmt.Errorf("exchange: peer %s: status %d", base, resp.StatusCode)
	}
}

// inBackoff reports whether the peer is still serving a failure penalty.
func (f *HTTPFetcher) inBackoff(p *peerState) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return p.failures > 0 && f.now().Before(p.until)
}

// markOK clears a peer's backoff after any clean response.
func (f *HTTPFetcher) markOK(p *peerState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p.failures = 0
	p.lastErr = ""
}

// markFailed records a transport failure and extends the peer's penalty
// window exponentially (base << failures, capped at max).
func (f *HTTPFetcher) markFailed(p *peerState, err error) {
	p.errCtr.Inc()
	f.mu.Lock()
	defer f.mu.Unlock()
	p.failures++
	if err != nil {
		p.lastErr = err.Error()
	}
	d := f.base << (p.failures - 1)
	if d > f.max || d <= 0 {
		d = f.max
	}
	p.until = f.now().Add(d)
}
