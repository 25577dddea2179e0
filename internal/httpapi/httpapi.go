// Package httpapi defines the JSON wire types of the cprd HTTP API,
// shared by internal/server (the daemon) and client (the Go client) so
// the two cannot drift.
package httpapi

import (
	"cpr/internal/blockstore"
	"cpr/internal/exchange"
	"cpr/internal/jobs"
	"cpr/internal/metrics"
)

// SubmitRequest is the body of POST /v1/jobs. Exactly one of Design
// (inline cpr-design text) or Spec (a synthetic circuit to generate)
// must be set.
type SubmitRequest struct {
	// Design is a complete design in the cpr-design text format.
	Design string `json:"design,omitempty"`
	// Spec generates a deterministic synthetic circuit server-side.
	Spec *Spec `json:"spec,omitempty"`
	// Options tunes the optimization flow; nil takes the defaults
	// (ModeCPR with LR optimization).
	Options *Options `json:"options,omitempty"`
	// BaseJob names a finished job to rerun against incrementally: only
	// the panels and routing regions the edit dirtied are recomputed, the
	// rest are spliced from the base's artifacts. In the default "strict"
	// rerun mode the result is byte-identical to a cold run of the same
	// design, so the baseline affects wall clock only; see
	// Options.RerunMode for the faster "eco-fast" contract. An unknown or
	// unfinished base job is a 400.
	BaseJob string `json:"base_job,omitempty"`
	// Wait blocks the request until the job is terminal (bounded by the
	// server's job timeout and the client's request context) and
	// returns the finished job.
	Wait bool `json:"wait,omitempty"`
}

// Spec mirrors synth.Spec for the wire.
type Spec struct {
	Name             string  `json:"name,omitempty"`
	Circuit          string  `json:"circuit,omitempty"` // Table 2 preset name; overrides the numeric fields
	Nets             int     `json:"nets,omitempty"`
	Width            int     `json:"width,omitempty"`
	Height           int     `json:"height,omitempty"`
	Seed             int64   `json:"seed,omitempty"`
	BlockageFraction float64 `json:"blockage_fraction,omitempty"`
}

// Options is the wire form of the result-affecting core.Options fields
// plus the worker count (which never affects results, only wall clock).
type Options struct {
	// Mode is "cpr" (default), "nopinopt", or "sequential".
	Mode string `json:"mode,omitempty"`
	// Optimizer is "lr" (default) or "ilp".
	Optimizer string `json:"optimizer,omitempty"`
	// Workers bounds the per-job pipeline concurrency (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// LRMaxIterations overrides the LR iteration bound (0 = default 200).
	LRMaxIterations int `json:"lr_max_iterations,omitempty"`
	// LRAlpha overrides the subgradient step exponent (0 = default 0.95).
	LRAlpha float64 `json:"lr_alpha,omitempty"`
	// ILPTimeLimitMS caps the per-panel exact solver (0 = no cap).
	ILPTimeLimitMS int64 `json:"ilp_time_limit_ms,omitempty"`
	// ILPMaxNodes caps branch-and-bound nodes (0 = no cap).
	ILPMaxNodes int `json:"ilp_max_nodes,omitempty"`
	// MaxNegotiationIters overrides the router's rip-up bound.
	MaxNegotiationIters int `json:"max_negotiation_iters,omitempty"`
	// RuleEngine overrides the multi-patterning rule engine: "sadp",
	// "lele", or "tpl". Empty keeps the engine the design carries (sadp
	// when it carries none); unknown names are a 400. The engine is part
	// of the job's content address, so runs of the same design under
	// different engines never share cached results.
	RuleEngine string `json:"rule_engine,omitempty"`
	// RerunMode selects the incremental-rerun contract for submissions
	// with a base_job: "strict" (default; byte-identical to a cold run)
	// or "eco-fast" (warm-starts dirtied nets from the base's routes;
	// checked DRC-clean only, so route bytes and routed nets may differ
	// from a cold run). Without a base_job both behave identically.
	RerunMode string `json:"rerun_mode,omitempty"`
}

// PinOptSummary condenses a core.PinOptReport for the wire.
type PinOptSummary struct {
	Panels    int     `json:"panels"`
	Pins      int     `json:"pins"`
	Intervals int     `json:"intervals"`
	Conflicts int     `json:"conflicts"`
	Objective float64 `json:"objective"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// IncrementalSummary reports how much of a run was spliced from reuse
// (a base job's artifacts or the panel/route caches). Provenance only:
// in strict mode results are byte-identical however much was reused,
// and eco-fast results are checked DRC-clean only.
type IncrementalSummary struct {
	Panels     int   `json:"panels"`
	Reused     int   `json:"reused"`
	Recomputed []int `json:"recomputed,omitempty"`
	// Regions is the number of routing regions the design partitioned
	// into; RegionsSpliced of them were reused byte-identically from the
	// base run or the route cache.
	Regions        int `json:"regions,omitempty"`
	RegionsSpliced int `json:"regions_spliced,omitempty"`
	// NetsSpliced/NetsWarm/NetsRerouted break all nets down by routing
	// provenance: spliced with their region, warm-started from a base
	// route (eco-fast only), or routed from scratch.
	NetsSpliced  int `json:"nets_spliced,omitempty"`
	NetsWarm     int `json:"nets_warm,omitempty"`
	NetsRerouted int `json:"nets_rerouted,omitempty"`
}

// Result is the completed-run payload inside a Job.
type Result struct {
	Mode        string              `json:"mode"`
	Metrics     metrics.Routing     `json:"metrics"`
	PinOpt      *PinOptSummary      `json:"pinopt,omitempty"`
	Incremental *IncrementalSummary `json:"incremental,omitempty"`
}

// Job is the wire form of a job snapshot, returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type Job struct {
	ID string `json:"id"`
	// Key is the content address of the request (see cache.Key); empty
	// for uncacheable requests.
	Key string `json:"key,omitempty"`
	// BaseJob echoes the incremental baseline the job was submitted
	// against, if any.
	BaseJob string `json:"base_job,omitempty"`
	State   string `json:"state"`
	// Cached reports that the result was served from the
	// content-addressed cache without running the optimizer.
	Cached      bool    `json:"cached,omitempty"`
	Error       string  `json:"error,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	RunMS       float64 `json:"run_ms"`
	Result      *Result `json:"result,omitempty"`
}

// Stats is the body of GET /v1/stats: the job manager's view (whose
// counters and latency histograms are the instruments /metrics exports)
// plus the block layer. Peer transport errors are reported per peer in
// PeerHealth only.
type Stats struct {
	jobs.Stats
	// Blockstore snapshots the local content-addressed block store
	// backing the cache levels; absent when the server has no exchange
	// attached (cmd/cprd always attaches one).
	Blockstore *blockstore.Stats `json:"blockstore,omitempty"`
	// Exchange counts block resolutions by source (local / peer / miss);
	// absent when the server has no exchange attached.
	Exchange *exchange.Stats `json:"exchange,omitempty"`
	// Peers lists the configured peer base URLs the exchange fetches
	// from; empty for a single-node daemon.
	Peers []string `json:"peers,omitempty"`
	// PeerHealth reports per-peer fetch counts, transport errors, and
	// backoff state; absent without peers.
	PeerHealth []exchange.PeerHealth `json:"peer_health,omitempty"`
}

// JobEvent is one server-sent event on GET /v1/jobs/{id}/events; it
// mirrors telemetry.Event so client and server cannot drift.
type JobEvent struct {
	Seq          uint64         `json:"seq"`
	TimeUnixNano int64          `json:"time_unix_nano"`
	Job          string         `json:"job,omitempty"`
	Type         string         `json:"type"`
	Data         map[string]any `json:"data,omitempty"`
}

// Health is the body of GET /v1/healthz.
type Health struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
}

// Error is the uniform error body for non-2xx responses.
type Error struct {
	Error string `json:"error"`
}
