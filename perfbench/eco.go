package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"cpr/client"
	"cpr/internal/blockstore"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/exchange"
	"cpr/internal/grid"
	"cpr/internal/jobs"
	"cpr/internal/pipeline"
	"cpr/internal/server"
	"cpr/internal/synth"
	"cpr/internal/telemetry"
	"cpr/internal/verify"
)

// cprd-strict and cprd-eco settings. Two closed-loop clients each hold
// one connection; the daemon runs at most ecoRunningJobs jobs at once,
// so running jobs times job workers stays within the processor count.
const (
	ecoClients     = 2
	ecoRunningJobs = 2
	// ecoTiles and ecoGap shape each session's design: three tiles far
	// enough apart to route as independent regions, so a one-pin edit
	// dirties one region and a strict rerun splices the other two.
	ecoTiles = 3
	ecoGap   = 300
	// ecoTileNets is each tile's net count (120 grid cells per net, the
	// flow-cold density); a cold submit of the whole design took
	// 0.8-1.1 s on a 2-core VM.
	ecoTileNets = 100
	// ecoHitsPerSession hits run beside each session's jobs, so a run
	// has well over the 200 hits a p95 needs.
	ecoHitsPerSession = 16
	// ecoHitWindow bounds how many recent sessions hits draw designs
	// from; all of them fit the design cache's in-memory tier.
	ecoHitWindow = 4
	// ecoMinSessions sessions give a run at least 200 hits.
	ecoMinSessions = 14
	// ecoNominalSessionSeconds sizes the op sequence from -seconds: one
	// session took about this long on a 2-core VM.
	ecoNominalSessionSeconds = 1.1
)

// reqKind is a daemon request kind.
type reqKind int

const (
	kindCold reqKind = iota
	kindStrict
	kindEcoFast
	kindHit
	// kindSync is no request: the client waits for every client to
	// reach the session.
	kindSync
)

var kindNames = [...]string{"cold", "eco", "ecofast", "hit", "sync"}

// ecoStep is one request of a client's sequence.
type ecoStep struct {
	kind    reqKind
	session int // index into the run's sessions
	variant int // which of the session's designs the request carries
}

// The designs of a session: the base design and two one-pin edits of it,
// one rerun in strict mode and one in eco-fast mode. They differ so
// that the eco-fast rerun's dirty region is not in the route cache and
// warm-starts its nets instead of splicing the strict rerun's routes.
const (
	variantBase = iota
	variantStrict
	variantEcoFast
	variants
)

// ecoSession is one design and its one-pin edits.
type ecoSession struct {
	spec     synth.Spec
	editSeed int64

	// Filled by generation, per variant: the design as the daemon parses
	// it and its request text.
	designs [variants]*design.Design
	texts   [variants]string
}

// ecoClientPlan is one client's fixed op sequence over the sessions the
// clients of a run share.
type ecoClientPlan struct {
	sessions []*ecoSession
	steps    []ecoStep
}

// ecoPlan returns the op sequence of every client and the warm-up
// session. The clients take turns. In session s, client s mod 2 submits
// a fresh design cold and reruns a one-pin edit of it against the cold
// job in strict mode (with ecoFast, then another edit in eco-fast mode),
// while the other client resubmits ecoHitsPerSession designs from the
// last ecoHitWindow sessions (base designs and strict edits; eco-fast
// results are never cached) as cache hits. Both clients start each
// session together, so one job runs at a time, the hits run beside it,
// and the requests overlap the same way in every run.
//
// The sessions are a fixed pool: session i always has tile seed
// ecoPoolSeed(i) and the same edits. The workload seed orders the
// sessions and draws the hits. It does not redraw the designs: cold,
// strict and eco-fast latencies move by a sixth to a quarter between
// draws, which would swamp the bounds.
func ecoPlan(seed int64, seconds int, ecoFast bool) (plans []*ecoClientPlan, warm *ecoSession) {
	session := func(name string, tileSeed int64) *ecoSession {
		return &ecoSession{
			spec:     synth.Spec{Name: name, Nets: ecoTileNets, Width: ecoTileNets * 3 / 4, Height: 160, Seed: tileSeed},
			editSeed: 7919 * tileSeed,
		}
	}
	warm = session("eco-warm", 0)
	rng := rand.New(rand.NewSource(seed))
	var sessions []*ecoSession
	for _, i := range rng.Perm(max(ecoMinSessions, int(math.Round(float64(seconds)/ecoNominalSessionSeconds)))) {
		sessions = append(sessions, session(fmt.Sprintf("eco-s%d", i), ecoPoolSeed(i)))
	}
	for c := 0; c < ecoClients; c++ {
		plans = append(plans, &ecoClientPlan{sessions: sessions})
	}
	for s := range sessions {
		owner := plans[s%ecoClients]
		for _, p := range plans {
			p.steps = append(p.steps, ecoStep{kind: kindSync, session: s})
		}
		owner.steps = append(owner.steps, ecoStep{kind: kindCold, session: s}, ecoStep{kind: kindStrict, session: s, variant: variantStrict})
		if ecoFast {
			owner.steps = append(owner.steps, ecoStep{kind: kindEcoFast, session: s, variant: variantEcoFast})
		}
		if s == 0 {
			continue // nothing is finished yet
		}
		for _, p := range plans {
			if p == owner {
				continue
			}
			for h := 0; h < ecoHitsPerSession; h++ {
				from := max(0, s-ecoHitWindow)
				p.steps = append(p.steps, ecoStep{kind: kindHit, session: from + rng.Intn(s-from), variant: variantBase + rng.Intn(2)})
			}
		}
	}
	return plans, warm
}

// ecoPoolSeed is the tile generator seed of session i of the fixed pool.
// Tiles take seeds Seed, Seed+1, ..., so sessions sit ecoTiles apart.
func ecoPoolSeed(i int) int64 { return int64(1000 + ecoTiles*i) }

// generate builds the session's designs. Each edit shifts one pin by
// one track unit in x: the pin picked by editSeed (or the next movable
// one), and for the eco-fast edit the pin half the design away. Every
// design is written to request text and read back, so the checks run
// on exactly what the daemon parses.
func (s *ecoSession) generate() error {
	d, err := synth.GenerateMultiRegion(s.spec, ecoTiles, ecoGap)
	if err != nil {
		return err
	}
	if s.texts[variantBase], s.designs[variantBase], err = roundTrip(d); err != nil {
		return err
	}
	base := s.designs[variantBase]
	for v := variantStrict; v < variants; v++ {
		e := *base
		e.Name = fmt.Sprintf("%s-e%d", base.Name, v)
		e.Pins = append([]design.Pin(nil), base.Pins...)
		start := int(s.editSeed%int64(len(e.Pins))) + (v-variantStrict)*len(e.Pins)/2
		moved := false
		for i := 0; i < len(e.Pins) && !moved; i++ {
			p := &e.Pins[(start+i)%len(e.Pins)]
			p.Shape.X0++
			p.Shape.X1++
			if moved = p.Shape.X1 < e.Width && e.Validate() == nil; !moved {
				p.Shape.X0--
				p.Shape.X1--
			}
		}
		if !moved {
			return fmt.Errorf("%s: no movable pin", d.Name)
		}
		if s.texts[v], s.designs[v], err = roundTrip(&e); err != nil {
			return err
		}
	}
	return nil
}

func roundTrip(d *design.Design) (string, *design.Design, error) {
	var b strings.Builder
	if err := designio.Write(&b, d); err != nil {
		return "", nil, err
	}
	back, err := designio.Read(strings.NewReader(b.String()))
	return b.String(), back, err
}

// daemon is an in-process cprd wired the way cmd/cprd wires it: an
// in-memory blockstore under the exchanged result cache, the event bus,
// per-job traces and the shipped cache and queue sizes, served over
// HTTP on a loopback port.
type daemon struct {
	mgr    *jobs.Manager
	srv    *http.Server
	url    string
	served chan error
}

// ecoJobWorkers is the Workers setting of the daemon's jobs.
func ecoJobWorkers(cfg runConfig) int { return max(1, cfg.workers/ecoRunningJobs) }

func startDaemon(jobWorkers int) (*daemon, error) {
	registry := telemetry.NewRegistry()
	exch := exchange.New(blockstore.NewMem(256<<20), nil, registry)
	events := telemetry.NewEventBus(telemetry.DefaultEventRing)
	withWorkers := func(opts core.Options) core.Options {
		if opts.Workers == 0 {
			opts.Workers = jobWorkers
		}
		return opts
	}
	mgr := jobs.New(jobs.Config{
		MaxConcurrent: ecoRunningJobs,
		QueueCap:      64,
		JobTimeout:    5 * time.Minute,
		Metrics:       registry,
		TraceJobs:     true,
		Events:        events,
		Run: func(ctx context.Context, d *design.Design, opts core.Options) (*core.RunResult, error) {
			return core.RunContext(ctx, d, withWorkers(opts))
		},
		Rerun: func(ctx context.Context, prev *core.RunResult, d *design.Design, opts core.Options) (*core.RunResult, error) {
			return core.RerunContext(ctx, prev, d, withWorkers(opts))
		},
	}, jobs.NewExchangedResultCache(1024, 16384, 16384, exch))
	api := server.New(mgr)
	api.SetExchange(exch, nil)
	api.SetEvents(events)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Drain(context.Background()) // no job was submitted
		return nil, err
	}
	api.SetNode(ln.Addr().String())
	d := &daemon{mgr: mgr, srv: &http.Server{Handler: api.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the job manager, shuts the HTTP server down and waits for
// its serve loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.mgr.Drain(ctx)    // a drain past the deadline cancels the jobs; nothing is left to report
	_ = d.srv.Shutdown(ctx) // the listener is closed either way, so Serve returns
	<-d.served
}

// newClient returns a cprd client holding at most one connection.
func newClient(url string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c := client.New(url)
	c.SetHTTPClient(&http.Client{Transport: tr})
	return c, tr
}

// ecoEnv is a set-up daemon run: the generated sessions and a running
// daemon.
type ecoEnv struct {
	plans []*ecoClientPlan
	d     *daemon
}

func ecoSetup(cfg runConfig, ecoFast bool) (*ecoEnv, error) {
	plans, warm := ecoPlan(cfg.seed, cfg.seconds, ecoFast)
	for _, s := range append([]*ecoSession{warm}, plans[0].sessions...) {
		if err := s.generate(); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(ecoJobWorkers(cfg))
	if err != nil {
		return nil, err
	}
	env := &ecoEnv{plans: plans, d: d}
	c, tr := newClient(d.url)
	defer tr.CloseIdleConnections()
	warmPlan := &ecoClientPlan{sessions: []*ecoSession{warm}, steps: []ecoStep{
		{kind: kindCold}, {kind: kindStrict, variant: variantStrict}, {kind: kindHit},
	}}
	if ecoFast {
		warmPlan.steps = append(warmPlan.steps, ecoStep{kind: kindEcoFast, variant: variantEcoFast})
	}
	for _, res := range runClient(c, warmPlan, nil, nil) {
		if res.err == nil {
			res.err = wireOK(res)
		}
		if res.err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up %s: %w", kindNames[res.step.kind], res.err)
		}
	}
	return env, nil
}

// ecoResult is one completed request.
type ecoResult struct {
	step ecoStep
	sess *ecoSession
	lat  time.Duration
	job  *client.Job
	err  error
}

// runClient runs one client's steps in a closed loop, timing each
// submit to its response. A sync step waits at together until every
// client has reached it. hooks, when non-nil, makes the layer calls of
// a traced run around each request, off the request's clock.
func runClient(c *client.Client, p *ecoClientPlan, together *barrier, hooks *ecoHooks) []ecoResult {
	var jobIDs = make(map[int]string) // session -> cold job id
	out := make([]ecoResult, 0, len(p.steps))
	for _, st := range p.steps {
		if st.kind == kindSync {
			together.wait()
			continue
		}
		s := p.sessions[st.session]
		req := client.SubmitRequest{Design: s.texts[st.variant], Wait: true}
		switch st.kind {
		case kindStrict:
			req.BaseJob, req.Options = jobIDs[st.session], &client.Options{RerunMode: client.RerunStrict}
		case kindEcoFast:
			req.BaseJob, req.Options = jobIDs[st.session], &client.Options{RerunMode: client.RerunEcoFast}
		}
		hooks.beforeRequest(req)
		sent := time.Now()
		job, err := c.Submit(context.Background(), req)
		res := ecoResult{step: st, sess: s, lat: time.Since(sent), job: job, err: err}
		if err == nil && st.kind == kindCold {
			jobIDs[st.session] = job.ID
		}
		hooks.afterRequest(res)
		out = append(out, res)
	}
	return out
}

// barrier holds each caller of wait until n callers have arrived, then
// releases them all and resets. A nil barrier never waits.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, here int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.here++; b.here == b.n {
		b.here, b.round = 0, b.round+1
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

// wireOK checks what the response alone shows: the job finished, and a
// hit was answered from the cache while every other kind ran.
func wireOK(res ecoResult) error {
	j := res.job
	switch {
	case j.State != "done" || j.Result == nil:
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	case (res.step.kind == kindHit) != j.Cached:
		return fmt.Errorf("%s request %s answered with cached=%t", kindNames[res.step.kind], j.ID, j.Cached)
	}
	return nil
}

// ecoPassResult is one timed pass of the clients over a daemon.
type ecoPassResult struct {
	clock   *opClock
	results []ecoResult
}

// runEcoPass runs every client's sequence concurrently against the
// daemon and measures the pass.
func runEcoPass(env *ecoEnv, hooks *ecoHooks) *ecoPassResult {
	per := make([][]ecoResult, len(env.plans))
	together := newBarrier(len(env.plans))
	out := &ecoPassResult{clock: &opClock{heap: true}}
	runtime.GC()
	out.clock.time(func() {
		var wg sync.WaitGroup
		for i, p := range env.plans {
			c, tr := newClient(env.d.url)
			wg.Add(1)
			go func(i int, p *ecoClientPlan) {
				defer wg.Done()
				defer tr.CloseIdleConnections()
				per[i] = runClient(c, p, together, hooks)
			}(i, p)
		}
		wg.Wait()
	})
	for _, rs := range per {
		out.results = append(out.results, rs...)
	}
	return out
}

// ecoChecker checks cprd-eco outputs off the clock against cold runs it
// computes in-process, caching one per edited design.
type ecoChecker struct {
	d       *daemon
	workers int
	// refs holds the cold run of each edited design, by design name.
	refs map[string]*core.RunResult
}

func (k *ecoChecker) reference(d *design.Design) (*core.RunResult, error) {
	if ref, ok := k.refs[d.Name]; ok {
		return ref, nil
	}
	ref, err := core.Run(d, core.Options{Workers: k.workers})
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", d.Name, err)
	}
	k.refs[d.Name] = ref
	return ref, nil
}

// serverResult is the daemon's in-process result of a finished job.
func (k *ecoChecker) serverResult(id string) (*core.RunResult, error) {
	job, ok := k.d.mgr.Get(id)
	if !ok {
		return nil, fmt.Errorf("job %s not retained", id)
	}
	res := job.Snapshot().Result
	if res == nil || res.Router == nil {
		return nil, fmt.Errorf("job %s has no routing result", id)
	}
	return res, nil
}

// check checks every result of a pass:
//   - a cold result verifies clean;
//   - a strict rerun equals the cold run of its design in every
//     ZeroTimes metric;
//   - an eco-fast rerun verifies clean and is objective-equal to it;
//   - a hit equals the cold run of its design in every ZeroTimes metric
//     (the cold submit's, or the in-process cold run of an edit).
func (k *ecoChecker) check(pass *ecoPassResult) []error {
	errs := make([]error, len(pass.results))
	coldMetrics := make(map[*ecoSession]client.Result)
	for i, res := range pass.results {
		errs[i] = res.err
		if errs[i] == nil {
			errs[i] = wireOK(res)
		}
		if errs[i] == nil && res.step.kind == kindCold {
			coldMetrics[res.sess] = *res.job.Result
			errs[i] = k.checkCold(res)
		}
	}
	for i, res := range pass.results {
		if errs[i] != nil || res.step.kind == kindCold {
			continue
		}
		errs[i] = k.checkRerun(res, coldMetrics)
	}
	return errs
}

func (k *ecoChecker) checkCold(res ecoResult) error {
	got, err := k.serverResult(res.job.ID)
	if err != nil {
		return err
	}
	d := res.sess.designs[variantBase]
	if rep := verify.Check(d, grid.New(d), got.Router); !rep.Ok() {
		return fmt.Errorf("cold %s: %d verify errors, first: %s", d.Name, len(rep.Errors), rep.Errors[0])
	}
	return nil
}

func (k *ecoChecker) checkRerun(res ecoResult, coldMetrics map[*ecoSession]client.Result) error {
	d := res.sess.designs[res.step.variant]
	if res.step.variant == variantBase {
		cold, ok := coldMetrics[res.sess]
		if !ok {
			return fmt.Errorf("hit on %s has no cold result to match", d.Name)
		}
		return sameMetrics("hit", res.job.Result, &cold)
	}
	ref, err := k.reference(d)
	if err != nil {
		return err
	}
	if res.step.kind != kindEcoFast {
		return sameMetrics(kindNames[res.step.kind], res.job.Result, &client.Result{Metrics: ref.Metrics})
	}
	got, err := k.serverResult(res.job.ID)
	if err != nil {
		return err
	}
	if rep := verify.Check(d, grid.New(d), got.Router); !rep.Ok() {
		return fmt.Errorf("eco-fast %s: %d verify errors, first: %s", d.Name, len(rep.Errors), rep.Errors[0])
	}
	if err := verify.ObjectiveEqual(d, got.Router, ref.Router); err != nil {
		return fmt.Errorf("eco-fast %s against its cold run: %w", d.Name, err)
	}
	return nil
}

func sameMetrics(kind string, got, want *client.Result) error {
	if g, w := got.Metrics.ZeroTimes(), want.Metrics.ZeroTimes(); g != w {
		return fmt.Errorf("%s of %s: metrics %+v, cold run %+v", kind, w.Circuit, g, w)
	}
	return nil
}

// tallyPass counts a pass's results into r and returns the per-kind
// latencies in ms.
func tallyPass(r *report, pass *ecoPassResult, errs []error) map[reqKind][]float64 {
	lat := make(map[reqKind][]float64)
	for i, res := range pass.results {
		r.attempt(errs[i])
		if errs[i] == nil {
			lat[res.step.kind] = append(lat[res.step.kind], ms(res.lat))
		}
	}
	return lat
}

func runEco(cfg runConfig, ecoFast bool) (*report, error) {
	r := newReport()
	env, err := timeSetups(r, func() (*ecoEnv, error) { return ecoSetup(cfg, ecoFast) }, func(e *ecoEnv) { e.d.stop() })
	if err != nil {
		return nil, err
	}
	pass := runEcoPass(env, nil)
	n := len(pass.results)
	r.setThroughput(pass.clock, n)
	checker := &ecoChecker{d: env.d, workers: cfg.workers, refs: map[string]*core.RunResult{}}
	errs := checker.check(pass)
	env.d.stop()

	lat := tallyPass(r, pass, errs)
	for kind, name := range map[reqKind]string{kindCold: "cold_p50_ms", kindStrict: "eco_p50_ms", kindEcoFast: "ecofast_p50_ms", kindHit: "hit_p50_ms"} {
		if kind == kindEcoFast && !ecoFast {
			continue
		}
		if err := setPercentile(r, name, lat[kind], 50); err != nil {
			return nil, err
		}
	}
	if err := setPercentile(r, "hit_p95_ms", lat[kindHit], 95); err != nil {
		return nil, err
	}
	var routed, nets, pins int
	var objective float64
	for i, res := range pass.results {
		if errs[i] != nil || res.step.kind == kindHit {
			continue
		}
		m := res.job.Result
		routed += m.Metrics.RoutedNets
		nets += m.Metrics.TotalNets
		objective += m.PinOpt.Objective
		pins += m.PinOpt.Pins
	}
	r.set("routed_pct", 100*float64(routed)/float64(max(1, nets)), "%", n)
	r.set("objective_per_pin", objective/float64(max(1, pins)), "obj/pin", n)
	r.setOK()
	r.close()
	return r, nil
}

func setPercentile(r *report, name string, xs []float64, p float64) error {
	v, n, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, v, "ms", n)
	return nil
}

// ecoHooks makes the layer calls of a traced cprd-eco pass: before each
// request it parses and hashes the request's design the way the daemon
// does; after each computed request it encodes and decodes the job's
// result and its keyed artifacts with the codecs the blockstore path
// uses. The calls run on the client's goroutine, off the request clock.
type ecoHooks struct {
	d  *daemon
	tr *tracer

	mu sync.Mutex
	// Counts per request, per computed job, and per request kind.
	requests, computed *tally
	kinds              map[reqKind]*tally
	reuse              reuseTally
	err                error
}

// reuseTally sums the incremental stats of reruns.
type reuseTally struct {
	panels, reused, regions, spliced int
	ecoFastNets, warm                int
}

func newEcoHooks(d *daemon) *ecoHooks {
	h := &ecoHooks{d: d, tr: newTracer(), requests: newTally(), computed: newTally(), kinds: map[reqKind]*tally{}}
	for _, k := range []reqKind{kindCold, kindStrict, kindEcoFast} {
		h.kinds[k] = newTally()
	}
	return h
}

func (h *ecoHooks) fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err == nil {
		h.err = err
	}
}

func (h *ecoHooks) beforeRequest(req client.SubmitRequest) {
	if h == nil {
		return
	}
	var d *design.Design
	var err error
	h.tr.call("designio.parse", -1, func() { d, err = designio.Read(strings.NewReader(req.Design)) })
	if err == nil {
		h.tr.call("designio.hash", -1, func() { _, err = designio.Hash(d) })
	}
	if err != nil {
		h.fail(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.requests.ops++
	h.requests.add("designio.request_kb", float64(len(req.Design))/1024, "KB")
}

func (h *ecoHooks) afterRequest(res ecoResult) {
	if h == nil || res.err != nil {
		return
	}
	j := res.job
	kind := res.step.kind
	h.mu.Lock()
	h.requests.add("http.overhead_ms", ms(res.lat)-j.QueueWaitMS-j.RunMS, "ms")
	if k := h.kinds[kind]; k != nil {
		k.ops++
		k.add("jobs.queue_wait_ms."+kindNames[kind], j.QueueWaitMS, "ms")
		k.add("jobs.run_ms."+kindNames[kind], j.RunMS, "ms")
	}
	if inc := j.Result.Incremental; inc != nil && (kind == kindStrict || kind == kindEcoFast) {
		h.reuse.panels += inc.Panels
		h.reuse.reused += inc.Reused
		h.reuse.regions += inc.Regions
		h.reuse.spliced += inc.RegionsSpliced
		if kind == kindEcoFast {
			h.reuse.ecoFastNets += j.Result.Metrics.TotalNets
			h.reuse.warm += inc.NetsWarm
		}
	}
	h.mu.Unlock()
	if kind != kindHit {
		if err := h.codecs(j.ID); err != nil {
			h.fail(err)
		}
	}
}

// codecs round-trips a finished job's result and keyed artifacts
// through their wire codecs.
func (h *ecoHooks) codecs(id string) error {
	job, ok := h.d.mgr.Get(id)
	if !ok {
		return fmt.Errorf("job %s not retained", id)
	}
	res := job.Snapshot().Result
	var blob []byte
	var err error
	h.tr.call("codec.result_encode", -1, func() { blob, err = core.EncodeResult(res) })
	if err != nil {
		return fmt.Errorf("encode result of %s: %w", id, err)
	}
	h.tr.call("codec.result_decode", -1, func() { _, err = core.DecodeResult(blob) })
	if err != nil {
		return fmt.Errorf("decode result of %s: %w", id, err)
	}
	var panels, routes [][]byte
	h.tr.call("codec.artifact_encode", -1, func() {
		for _, a := range res.Artifacts.Panels {
			if a.Key != "" && err == nil {
				var b []byte
				b, err = pipeline.MarshalPanelArtifact(a)
				panels = append(panels, b)
			}
		}
		for _, a := range res.Artifacts.Routes {
			if a.Key != "" && err == nil {
				var b []byte
				b, err = pipeline.MarshalRouteArtifact(a)
				routes = append(routes, b)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("encode artifacts of %s: %w", id, err)
	}
	h.tr.call("codec.artifact_decode", -1, func() {
		for _, b := range panels {
			if _, err = pipeline.UnmarshalPanelArtifact(b); err != nil {
				return
			}
		}
		for _, b := range routes {
			if _, err = pipeline.UnmarshalRouteArtifact(b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("decode artifacts of %s: %w", id, err)
	}
	h.mu.Lock()
	h.computed.ops++
	h.computed.add("codec.result_kb", float64(len(blob))/1024, "KB")
	h.mu.Unlock()
	return nil
}

func traceEco(cfg runConfig, ecoFast bool) (*report, error) {
	r := newReport()
	checker := func(d *daemon) *ecoChecker {
		return &ecoChecker{d: d, workers: cfg.workers, refs: map[string]*core.RunResult{}}
	}

	// The untraced pass gives the reference op time and the Go runtime
	// metrics; the traced pass, over a fresh daemon, the layer metrics.
	env, err := ecoSetup(cfg, ecoFast)
	if err != nil {
		return nil, err
	}
	plain := runEcoPass(env, nil)
	k := checker(env.d)
	tallyPass(r, plain, k.check(plain))
	env.d.stop()

	env2, err := ecoSetup(cfg, ecoFast)
	if err != nil {
		return nil, err
	}
	hooks := newEcoHooks(env2.d)
	c, ctr := newClient(env2.d.url)
	before, err := c.Stats(context.Background())
	if err != nil {
		env2.d.stop()
		return nil, err
	}
	traced := runEcoPass(env2, hooks)
	after, err := c.Stats(context.Background())
	ctr.CloseIdleConnections()
	k2 := checker(env2.d)
	k2.refs = k.refs
	tallyPass(r, traced, k2.check(traced))
	env2.d.stop()
	if err != nil {
		return nil, err
	}
	if hooks.err != nil {
		return nil, hooks.err
	}

	ops := len(plain.results)
	r.setRuntime(plain.clock.mem, ops)
	r.set("telemetry.overhead_pct", 100*(traced.clock.wall.Seconds()-plain.clock.wall.Seconds())/plain.clock.wall.Seconds(), "%", ops)
	// The daemon's computed jobs run the flow's layers out of the
	// benchmark's reach; each session's cold submit is made again
	// in-process, as a core.Run call with the jobs' settings and as layer
	// calls, for the per-layer numbers of grid, router, pin access and
	// core.
	var colds []*design.Design
	for _, s := range env2.plans[0].sessions {
		colds = append(colds, s.designs[variantBase])
	}
	traceOps(r, newTracer(), flowBatch(colds, ecoJobWorkers(cfg)), flowSpans...)

	hooks.requests.report(r, hooks.tr, "designio.parse", "designio.hash")
	hooks.computed.report(r, hooks.tr, "codec.result_encode", "codec.result_decode", "codec.artifact_encode", "codec.artifact_decode")
	for _, k := range hooks.kinds {
		if k.ops > 0 {
			k.report(r, nil)
		}
	}

	hitPct := func(hits, misses int64) float64 { return 100 * float64(hits) / float64(max(1, hits+misses)) }
	r.set("cache.design_hit_pct", hitPct(after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses), "%", ops)
	r.set("cache.panel_hit_pct", hitPct(after.PanelCache.Hits-before.PanelCache.Hits, after.PanelCache.Misses-before.PanelCache.Misses), "%", ops)
	r.set("cache.route_hit_pct", hitPct(after.RouteCache.Hits-before.RouteCache.Hits, after.RouteCache.Misses-before.RouteCache.Misses), "%", ops)
	if after.Blockstore == nil || after.Exchange == nil {
		return nil, errors.New("daemon stats carry no blockstore or exchange section")
	}
	r.set("blockstore.puts", float64(after.Blockstore.Puts-before.Blockstore.Puts), "count", ops)
	r.set("blockstore.put_mb", float64(after.Blockstore.Bytes-before.Blockstore.Bytes)/(1<<20), "MB", ops)
	ex := after.Exchange
	exLocal, exAll := ex.Local-before.Exchange.Local, ex.Local+ex.Peer+ex.Miss-before.Exchange.Local-before.Exchange.Peer-before.Exchange.Miss
	r.set("exchange.local_hit_pct", 100*float64(exLocal)/float64(max(1, exAll)), "%", ops)

	rr, reruns := hooks.reuse, hooks.kinds[kindStrict].ops+hooks.kinds[kindEcoFast].ops
	r.set("pipeline.panels_reused_pct", 100*float64(rr.reused)/float64(max(1, rr.panels)), "%", reruns)
	r.set("pipeline.regions_spliced_pct", 100*float64(rr.spliced)/float64(max(1, rr.regions)), "%", reruns)
	if ecoFast {
		r.set("pipeline.nets_warm_pct", 100*float64(rr.warm)/float64(max(1, rr.ecoFastNets)), "%", hooks.kinds[kindEcoFast].ops)
	}
	r.close()
	return r, nil
}
