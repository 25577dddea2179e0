// Package server implements the cprd HTTP/JSON API on top of the jobs
// manager and the content-addressed result cache:
//
//	POST /v1/jobs             submit a design (inline or synthesized from a spec)
//	GET  /v1/jobs/{id}        job status / result / error
//	GET  /v1/jobs/{id}/trace  per-job span trace (Chrome trace_event or JSON)
//	GET  /v1/blocks/{key}     one content-addressed block this node holds (HEAD: presence)
//	GET  /v1/healthz          liveness and drain state
//	GET  /v1/stats            queue depth, cache hit rates, latency histograms, block-layer counters
//	GET  /metrics             Prometheus text exposition of the manager's registry
//
// /v1/stats and /metrics read every figure they share from one owner (a
// registry instrument, or a cache counter the registry bridges), so the
// two cannot disagree.
//
// Identical submissions are served from cache (no optimizer run) and
// identical in-flight submissions coalesce onto one job. A submission
// naming a finished base_job reruns incrementally, recomputing only the
// panels its edit dirtied (the result is byte-identical either way). A
// full queue answers 429; a draining server answers 503.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cpr/internal/blockstore"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/exchange"
	"cpr/internal/httpapi"
	"cpr/internal/jobs"
	"cpr/internal/synth"
	"cpr/internal/tech"
	"cpr/internal/telemetry"
)

// maxRequestBytes bounds a submission body (designs are text; the
// largest Table 2 circuit encodes to well under 4 MiB).
const maxRequestBytes = 32 << 20

// Server routes HTTP requests to a jobs.Manager.
type Server struct {
	mgr   *jobs.Manager
	exch  *exchange.Service
	peers []string
	// defaultRuleEngine is applied to submissions that do not name a
	// rule engine themselves. It participates in job fingerprints exactly
	// like a per-request engine, so two daemons with different defaults
	// never alias cache entries.
	defaultRuleEngine string
	// events backs GET /v1/jobs/{id}/events (SSE) and
	// GET /v1/debug/events (flight recorder); nil disables both.
	events *telemetry.EventBus
	// node names this daemon in block-serve spans and events, so a
	// stitched cross-node trace identifies which peer did the work.
	node string
	// eventHeartbeat overrides the SSE heartbeat cadence (tests).
	eventHeartbeat time.Duration
}

// New wires a server to its manager.
func New(mgr *jobs.Manager) *Server {
	return &Server{mgr: mgr}
}

// SetExchange attaches the block exchange service. The server then
// serves GET/HEAD /v1/blocks/{key} from the service's local store, or
// from the manager's in-memory cache levels when the store lacks the
// key — never by fetching from its own peers, so one cluster-wide miss
// costs each node at most one fan-out instead of a fetch storm — and
// includes blockstore and exchange counters in /v1/stats. peers is the
// configured peer list, echoed in stats for operability.
func (s *Server) SetExchange(svc *exchange.Service, peers []string) {
	s.exch = svc
	s.peers = peers
}

// SetDefaultRuleEngine sets the multi-patterning engine used when a
// submission leaves Options.RuleEngine empty. The name must already be
// validated (tech.ParseEngine); per-request engines always win.
func (s *Server) SetDefaultRuleEngine(name string) {
	s.defaultRuleEngine = name
}

// SetEvents attaches the event bus — normally the same bus the jobs
// manager publishes to — enabling GET /v1/jobs/{id}/events and
// GET /v1/debug/events.
func (s *Server) SetEvents(bus *telemetry.EventBus) {
	s.events = bus
}

// SetNode names this daemon in cross-node spans and events.
func (s *Server) SetNode(name string) {
	s.node = name
}

// SetEventHeartbeat overrides the SSE heartbeat cadence; intended for
// tests (the default is 15s).
func (s *Server) SetEventHeartbeat(d time.Duration) {
	s.eventHeartbeat = d
}

// Handler builds the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleGetTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/debug/events", s.handleDebugEvents)
	mux.HandleFunc("GET /v1/blocks/{key}", s.handleGetBlock)
	mux.HandleFunc("HEAD /v1/blocks/{key}", s.handleGetBlock)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("request body too large"))
		return
	}
	var req httpapi.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	d, err := buildDesign(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := buildOptions(req.Options, s.defaultRuleEngine)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	job, err := s.mgr.SubmitBase(d, opts, req.BaseJob)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}

	if req.Wait {
		if err := job.Wait(r.Context()); err != nil {
			// The client went away or timed out; the job keeps running.
			writeJSON(w, http.StatusAccepted, jobToWire(job.Snapshot()))
			return
		}
	}
	snap := job.Snapshot()
	status := http.StatusAccepted
	if snap.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, jobToWire(snap))
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, jobToWire(job.Snapshot()))
}

// handleGetTrace serves a finished (or running) job's span trace.
// ?format=chrome (default) renders Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto; ?format=json renders the raw span
// records. Jobs answered from cache never ran, so they have no trace.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	tr := job.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no trace for job %q (tracing disabled, or the job was served from cache)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		_ = tr.WriteChromeTrace(w, telemetry.ExportOptions{})
	case "json":
		_ = tr.WriteJSON(w, telemetry.ExportOptions{})
	default:
		w.Header().Del("Content-Type")
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want chrome, json)", format))
	}
}

// handleMetrics serves the manager's metrics registry in Prometheus text
// exposition format. The manager always has one (its own when none was
// configured), so every scrape carries the job-manager series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.mgr.Metrics().WritePrometheus(w)
}

// handleGetBlock serves one content-addressed block this node holds:
// from the local store, or else encoded from the entry a cache level
// holds in memory (over an in-memory store a level writes a block only
// when it evicts the entry). Strictly observational: a node answers
// only with what it already holds (404 otherwise, also for an entry the
// encoder rejects) and never computes or forwards on a peer's behalf.
// HEAD reports presence without the body. It runs GET's lookup, so for
// an entry only a cache level holds it pays the encode (about 5 ms for
// a design result) that decides whether the entry is servable; peers
// fetch with GET alone.
func (s *Server) handleGetBlock(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.exch == nil {
		writeError(w, http.StatusNotFound, errors.New("no block exchange configured"))
		return
	}
	if !blockstore.ValidKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed block key %q", key))
		return
	}
	if r.Method == http.MethodHead {
		ok, err := s.exch.Has(key)
		if err == nil && !ok {
			_, ok = s.mgr.Block(key)
		}
		if err != nil || !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		return
	}
	t0 := time.Now()
	data, err := s.exch.Store().Get(key)
	if errors.Is(err, blockstore.ErrNotFound) {
		if cached, ok := s.mgr.Block(key); ok {
			data, err = cached, nil
		}
	}
	switch {
	case errors.Is(err, blockstore.ErrNotFound):
		writeError(w, http.StatusNotFound, fmt.Errorf("no block for key %s", key))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	// Cross-node trace stitching (DESIGN.md §4j): record the requester's
	// trace identity in our flight recorder and describe the work we did
	// in the SpanHeader, which the requester adopts as a child of its
	// peer_fetch span. Headers must be set before the body write.
	evData := map[string]any{"key": key}
	if s.node != "" {
		evData["node"] = s.node
	}
	if sc, ok := telemetry.ParseSpanContext(r.Header.Get(telemetry.TraceHeader)); ok {
		evData["trace"] = sc.TraceID
		evData["parent_span"] = sc.SpanID
	}
	s.events.Publish("", "block_serve", evData)
	attrs := []telemetry.Attr{{Key: "key", Value: key}}
	if s.node != "" {
		attrs = append(attrs, telemetry.Attr{Key: "node", Value: s.node})
	}
	w.Header().Set(telemetry.SpanHeader, telemetry.EncodeRemoteSpan(telemetry.RemoteSpan{
		Name:       "serve_block",
		DurationNS: time.Since(t0).Nanoseconds(),
		Attrs:      attrs,
	}))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	writeJSON(w, http.StatusOK, httpapi.Health{Status: "ok", Draining: st.Draining})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := httpapi.Stats{Stats: s.mgr.Stats()}
	if s.exch != nil {
		bs := s.exch.Store().Stats()
		ex := s.exch.Stats()
		st.Blockstore = &bs
		st.Exchange = &ex
		st.Peers = s.peers
		st.PeerHealth = s.exch.PeerHealth()
	}
	writeJSON(w, http.StatusOK, st)
}

// buildDesign materializes the request's design: inline text or a
// synthesized spec, exactly one of which must be present.
func buildDesign(req *httpapi.SubmitRequest) (*design.Design, error) {
	switch {
	case req.Design != "" && req.Spec != nil:
		return nil, errors.New("request sets both design and spec; choose one")
	case req.Design != "":
		d, err := designio.Read(strings.NewReader(req.Design))
		if err != nil {
			return nil, fmt.Errorf("parsing design: %w", err)
		}
		return d, nil
	case req.Spec != nil:
		ws := req.Spec
		if ws.Circuit != "" {
			spec, err := synth.SpecByName(ws.Circuit)
			if err != nil {
				return nil, err
			}
			return synth.Generate(spec)
		}
		return synth.Generate(synth.Spec{
			Name:             ws.Name,
			Nets:             ws.Nets,
			Width:            ws.Width,
			Height:           ws.Height,
			Seed:             ws.Seed,
			BlockageFraction: ws.BlockageFraction,
		})
	default:
		return nil, errors.New("request needs a design or a spec")
	}
}

// buildOptions maps wire options onto core.Options. defaultEngine fills
// Options.RuleEngine when the request leaves it empty; it must be set
// before fingerprinting (here, not in the job runner) so the content
// address always reflects the engine the job will actually run under.
func buildOptions(wo *httpapi.Options, defaultEngine string) (core.Options, error) {
	var opts core.Options
	opts.RuleEngine = defaultEngine
	if wo == nil {
		return opts, nil
	}
	var err error
	if opts.Mode, err = core.ParseMode(wo.Mode); err != nil {
		return opts, err
	}
	if opts.Optimizer, err = core.ParseOptimizer(wo.Optimizer); err != nil {
		return opts, err
	}
	opts.Workers = wo.Workers
	opts.LR.MaxIterations = wo.LRMaxIterations
	opts.LR.Alpha = wo.LRAlpha
	if err := opts.LR.Validate(); err != nil {
		return opts, err
	}
	opts.ILP.TimeLimit = time.Duration(wo.ILPTimeLimitMS) * time.Millisecond
	opts.ILP.MaxNodes = wo.ILPMaxNodes
	opts.Router.MaxNegotiationIters = wo.MaxNegotiationIters
	if wo.RuleEngine != "" {
		engine, err := tech.ParseEngine(wo.RuleEngine)
		if err != nil {
			return opts, err
		}
		opts.RuleEngine = engine
	}
	if opts.RerunMode, err = core.ParseRerunMode(wo.RerunMode); err != nil {
		return opts, err
	}
	return opts, nil
}

// jobToWire converts a snapshot into its wire form.
func jobToWire(s jobs.Snapshot) httpapi.Job {
	wj := httpapi.Job{
		ID:          s.ID,
		Key:         s.Key,
		BaseJob:     s.BaseJobID,
		State:       s.State.String(),
		Cached:      s.Cached,
		Error:       s.Err,
		QueueWaitMS: float64(s.QueueWait) / float64(time.Millisecond),
		RunMS:       float64(s.RunTime) / float64(time.Millisecond),
	}
	if s.Result != nil {
		res := &httpapi.Result{
			Mode:    s.Result.Mode.String(),
			Metrics: s.Result.Metrics,
		}
		if po := s.Result.PinOpt; po != nil {
			res.PinOpt = &httpapi.PinOptSummary{
				Panels:    len(po.Panels),
				Pins:      po.TotalPins,
				Intervals: po.TotalIntervals,
				Conflicts: po.TotalConflicts,
				Objective: po.Objective,
				ElapsedMS: float64(po.Elapsed) / float64(time.Millisecond),
			}
		}
		if inc := s.Result.Incremental; inc != nil {
			res.Incremental = &httpapi.IncrementalSummary{
				Panels:         inc.Panels,
				Reused:         inc.Reused,
				Recomputed:     inc.Recomputed,
				Regions:        inc.Regions,
				RegionsSpliced: inc.RegionsSpliced,
				NetsSpliced:    inc.NetsSpliced,
				NetsWarm:       inc.NetsWarm,
				NetsRerouted:   inc.NetsRerouted,
			}
		}
		wj.Result = res
	}
	return wj
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpapi.Error{Error: err.Error()})
}
