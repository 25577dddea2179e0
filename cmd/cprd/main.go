// Command cprd is the pin-access-optimization service daemon: a
// long-running HTTP/JSON server that accepts design-optimization
// requests, runs them through the CPR pipeline on a bounded job manager,
// and serves repeat submissions from a content-addressed result cache.
//
// Usage:
//
//	cprd                                  # listen on :8080
//	cprd -addr 127.0.0.1:9090 -max-jobs 4 -queue-cap 128
//	cprd -job-timeout 2m -cache-cap 4096 -workers 0
//	cprd -blockstore-dir /var/lib/cprd -peers http://node-a:8080,http://node-b:8080
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/trace,
// GET/HEAD /v1/blocks/{key}, GET /v1/healthz, GET /v1/stats and
// GET /metrics (Prometheus text). With -debug-addr a second listener
// serves net/http/pprof profiles on a private address. On SIGTERM/SIGINT
// the daemon stops accepting jobs, drains in-flight work (bounded by
// -drain-timeout, with running jobs canceled at the deadline), and exits
// cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cpr/internal/blockstore"
	"cpr/internal/cliutil"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/exchange"
	"cpr/internal/jobs"
	"cpr/internal/server"
	"cpr/internal/tech"
	"cpr/internal/telemetry"
)

// splitPeers parses the comma-separated -peers value into a list of
// base URLs, dropping empty entries so trailing commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		maxJobs      = flag.Int("max-jobs", 2, "max concurrently running jobs")
		queueCap     = flag.Int("queue-cap", 64, "max queued jobs before 429 backpressure")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-job execution deadline (0 = none)")
		cacheCap     = flag.Int("cache-cap", 1024, "max whole-design results kept decoded in memory (LRU); an evicted result is still answered from the blockstore (on the in-memory store, an evicted result moves there)")
		panelCap     = flag.Int("panel-cache-cap", 16384, "max per-panel artifacts kept decoded in memory (LRU); an evicted artifact is still read from the blockstore (on the in-memory store, an evicted artifact moves there)")
		routeCap     = flag.Int("route-cache-cap", 16384, "max per-region route bundles kept decoded in memory (LRU); an evicted bundle is still read from the blockstore (on the in-memory store, an evicted bundle moves there)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
		debugAddr    = flag.String("debug-addr", "", "private listen address for net/http/pprof (empty = disabled)")
		traceJobs    = flag.Bool("trace-jobs", true, "record a span trace per executed job (GET /v1/jobs/{id}/trace)")
		eventRing    = flag.Int("event-ring", telemetry.DefaultEventRing, "flight-recorder ring size: recent structured events served on GET /v1/debug/events and streamed on GET /v1/jobs/{id}/events (0 = disabled)")
		crashDump    = flag.String("crash-dump", "cprd-crash-events.json", "file the flight recorder is flushed to when a job panics (empty = disabled)")
		nodeName     = flag.String("node-name", "", "name identifying this daemon in cross-node traces and events (default: the listen address)")
		peersFlag    = flag.String("peers", "", "comma-separated peer daemon base URLs to resolve cache misses from (e.g. http://node-a:8080,http://node-b:8080)")
		storeDir     = flag.String("blockstore-dir", "", "directory for the persistent artifact blockstore (empty = in-memory)")
		storeMax     = flag.Int64("blockstore-max-bytes", 256<<20, "blockstore size bound before LRU garbage collection (0 = unbounded)")
		peerTimeout  = flag.Duration("peer-timeout", exchange.DefaultPeerTimeout, "per-peer block fetch deadline")
		workers      = cliutil.Workers()
		ruleEngine   = cliutil.RuleEngine()
	)
	flag.Parse()

	// The daemon-level engine default participates in job fingerprints
	// (applied in the server before submission), so validate it up front.
	defaultEngine := ""
	if *ruleEngine != "" {
		var err error
		if defaultEngine, err = tech.ParseEngine(*ruleEngine); err != nil {
			log.Fatalf("cprd: %v", err)
		}
	}

	registry := telemetry.NewRegistry()

	// The result cache always sits on a content-addressed blockstore:
	// disk-backed (surviving restarts, every entry written at once) when
	// -blockstore-dir is set, in-memory otherwise (an entry written only
	// when its cache level evicts it). With -peers, misses additionally
	// fan out to peer daemons over HTTP before falling back to recompute.
	var store blockstore.Store
	storeDesc := "mem"
	if *storeDir != "" {
		storeDesc = *storeDir
		disk, err := blockstore.OpenDisk(*storeDir, blockstore.DiskOptions{MaxBytes: *storeMax})
		if err != nil {
			log.Fatalf("cprd: open blockstore %s: %v", *storeDir, err)
		}
		store = disk
	} else {
		store = blockstore.NewMem(*storeMax)
	}
	peers := splitPeers(*peersFlag)
	var fetcher exchange.Fetcher
	if len(peers) > 0 {
		fetcher = exchange.NewHTTPFetcher(peers, exchange.HTTPOptions{Timeout: *peerTimeout, Registry: registry})
	}
	exch := exchange.New(store, fetcher, registry)
	resultCache := jobs.NewExchangedResultCache(*cacheCap, *panelCap, *routeCap, exch)

	// The event bus is the flight recorder and the SSE stream source. It
	// is on by default and independent of -trace-jobs: post-mortems via
	// GET /v1/debug/events must not depend on tracing having been enabled.
	var events *telemetry.EventBus
	if *eventRing > 0 {
		events = telemetry.NewEventBus(*eventRing)
	}
	mgr := jobs.New(jobs.Config{
		MaxConcurrent: *maxJobs,
		QueueCap:      *queueCap,
		JobTimeout:    *jobTimeout,
		Metrics:       registry,
		TraceJobs:     *traceJobs,
		Events:        events,
		CrashDump:     *crashDump,
		Run: func(ctx context.Context, d *design.Design, opts core.Options) (*core.RunResult, error) {
			if opts.Workers == 0 {
				opts.Workers = *workers
			}
			return core.RunContext(ctx, d, opts)
		},
		Rerun: func(ctx context.Context, prev *core.RunResult, d *design.Design, opts core.Options) (*core.RunResult, error) {
			if opts.Workers == 0 {
				opts.Workers = *workers
			}
			return core.RerunContext(ctx, prev, d, opts)
		},
	}, resultCache)

	apiSrv := server.New(mgr)
	apiSrv.SetExchange(exch, peers)
	apiSrv.SetEvents(events)
	if *nodeName != "" {
		apiSrv.SetNode(*nodeName)
	} else {
		apiSrv.SetNode(*addr)
	}
	if defaultEngine != "" {
		apiSrv.SetDefaultRuleEngine(defaultEngine)
	}
	srv := &http.Server{Addr: *addr, Handler: apiSrv.Handler()}

	// The pprof listener is separate from the API address so profiling
	// endpoints can stay on a private interface.
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("cprd: pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				log.Printf("cprd: pprof listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("cprd: listening on %s (max-jobs=%d queue-cap=%d job-timeout=%v cache-cap=%d blockstore=%s peers=%d)",
			*addr, *maxJobs, *queueCap, *jobTimeout, *cacheCap, storeDesc, len(peers))
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		log.Printf("cprd: received %v, draining (timeout %v)", sig, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("cprd: server error: %v", err)
	}

	// Drain first so /v1/jobs rejects with 503 while status endpoints
	// keep answering, then close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		log.Printf("cprd: drain deadline hit, canceled in-flight jobs: %v", err)
	} else {
		log.Printf("cprd: drained cleanly")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("cprd: http shutdown: %v", err)
	}
	log.Printf("cprd: exit")
}
