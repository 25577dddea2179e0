package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpr/client"
	"cpr/internal/blockstore"
	"cpr/internal/cache"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/exchange"
	"cpr/internal/jobs"
	"cpr/internal/pipeline"
	"cpr/internal/synth"
	"cpr/internal/telemetry"
)

// clusterNode is one cprd daemon wired the way cmd/cprd wires it: a
// block-backed result cache over a local store, optionally fetching
// misses from peer daemons, serving /v1/blocks from the local store.
type clusterNode struct {
	mgr    *jobs.Manager
	cache  *jobs.ResultCache
	exch   *exchange.Service
	client *client.Client
	url    string
	close  func()
}

// newClusterNode starts a node on an httptest listener. store survives
// the node when the caller owns it (the restart test reuses a disk
// store across two node lifetimes).
func newClusterNode(t *testing.T, store blockstore.Store, peers []string) *clusterNode {
	return newObservedClusterNode(t, store, peers, "")
}

// newObservedClusterNode is newClusterNode with the full observability
// stack cmd/cprd wires when node != "": per-job tracing, an event bus,
// per-peer fetch metrics, and a node name for cross-node attribution.
func newObservedClusterNode(t *testing.T, store blockstore.Store, peers []string, node string) *clusterNode {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := jobs.Config{MaxConcurrent: 2, Metrics: reg}
	hopts := exchange.HTTPOptions{Timeout: 5 * time.Second}
	if node != "" {
		cfg.TraceJobs = true
		cfg.Events = telemetry.NewEventBus(0)
		hopts.Registry = reg
	}
	var fetcher exchange.Fetcher
	if len(peers) > 0 {
		fetcher = exchange.NewHTTPFetcher(peers, hopts)
	}
	exch := exchange.New(store, fetcher, reg)
	rc := jobs.NewExchangedResultCache(64, 256, 256, exch)
	mgr := jobs.New(cfg, rc)
	srv := New(mgr)
	srv.SetExchange(exch, peers)
	if node != "" {
		srv.SetEvents(cfg.Events)
		srv.SetNode(node)
	}
	ts := httptest.NewServer(srv.Handler())
	n := &clusterNode{mgr: mgr, cache: rc, exch: exch, client: client.New(ts.URL), url: ts.URL, close: ts.Close}
	t.Cleanup(ts.Close)
	return n
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

// stripTiming zeroes the wall-clock fields of a wire result in place:
// two independent computes of the same design agree on everything else.
func stripTiming(r *client.Result) {
	r.Metrics.CPUSeconds = 0
	r.Metrics.OptimizeSeconds = 0
	r.Metrics.RouteSeconds = 0
	r.Metrics.VerifySeconds = 0
	if r.PinOpt != nil {
		r.PinOpt.ElapsedMS = 0
	}
}

// TestTwoNodeClusterResolvesBlocksFromPeer is the cluster contract
// end-to-end: node A computes a result cold; node B, configured with A
// as a peer, serves the identical submission from A's blocks without
// running the optimizer, and its exchange counters attribute the blocks
// to the peer. Both nodes run on memory stores, so B writes no block: it
// keeps the fetched values decoded in its typed cache tier and serves
// them to peers from there.
func TestTwoNodeClusterResolvesBlocksFromPeer(t *testing.T) {
	ctx := context.Background()
	nodeA := newClusterNode(t, blockstore.NewMem(0), nil)
	nodeB := newClusterNode(t, blockstore.NewMem(0), []string{nodeA.url})

	first, err := nodeA.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("node A submit: %v", err)
	}
	if first.State != "done" || first.Cached {
		t.Fatalf("node A job = %+v, want done uncached", first)
	}

	second, err := nodeB.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("node B submit: %v", err)
	}
	if second.State != "done" || !second.Cached {
		t.Fatalf("node B job = %+v, want served from peer blocks without running", second)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatalf("peer-resolved result differs:\n A %+v\n B %+v", first.Result, second.Result)
	}

	exSt := nodeB.exch.Stats()
	if exSt.Peer == 0 {
		t.Fatalf("node B exchange stats = %+v, want peer resolutions > 0", exSt)
	}
	if h := nodeB.exch.PeerHealth(); len(h) != 1 || h[0].Errors != 0 {
		t.Fatalf("node B peer health = %+v, want one peer with no errors", h)
	}

	// The wire surfaces the same attribution: /v1/stats carries the
	// exchange counters and peer list, /metrics the labeled series.
	st, err := nodeB.client.Stats(ctx)
	if err != nil {
		t.Fatalf("node B stats: %v", err)
	}
	if st.Exchange == nil || st.Exchange.Peer == 0 {
		t.Fatalf("wire stats exchange = %+v, want peer > 0", st.Exchange)
	}
	if st.Blockstore == nil || st.Blockstore.Blocks != 0 || st.Blockstore.Bytes != 0 {
		t.Fatalf("wire stats blockstore = %+v, want no block (the typed tier holds the fetched values)", st.Blockstore)
	}
	// B still serves the fetched result's block, encoded from its typed
	// tier, with A's bytes.
	statusA, bodyA := fetchBlock(t, http.MethodGet, nodeA.url, first.Key)
	statusB, bodyB := fetchBlock(t, http.MethodGet, nodeB.url, second.Key)
	if statusA != http.StatusOK || statusB != http.StatusOK || second.Key != first.Key || !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("GET result block: A %d (%d bytes), B %d (%d bytes) for keys %s / %s, want equal 200 bodies",
			statusA, len(bodyA), statusB, len(bodyB), first.Key, second.Key)
	}
	if len(st.Peers) != 1 || st.Peers[0] != nodeA.url {
		t.Fatalf("wire stats peers = %v, want [%s]", st.Peers, nodeA.url)
	}
	mtx := scrapeMetrics(t, nodeB.url)
	if !strings.Contains(mtx, `cpr_blocks_total{source="peer"}`) {
		t.Fatalf("node B /metrics missing peer-sourced block counter:\n%s", mtx)
	}

	// Node A must not have fetched anything in return: serving blocks is
	// strictly observational.
	if aSt := nodeA.exch.Stats(); aSt.Peer != 0 {
		t.Fatalf("node A exchange stats = %+v, want no peer fetches", aSt)
	}

	// Node B re-serves the block-resolved result from its own typed tier
	// now: a third submission must not touch the peer again.
	peerBefore := nodeB.exch.Stats().Peer
	third, err := nodeB.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("node B resubmit: %v", err)
	}
	if !third.Cached {
		t.Fatalf("node B resubmit = %+v, want cached", third)
	}
	if after := nodeB.exch.Stats().Peer; after != peerBefore {
		t.Fatalf("resubmission refetched from peer: %d -> %d", peerBefore, after)
	}
}

// TestClusterPeerDownFallsBackToCompute proves the exchange is strictly
// an accelerator: with its only peer unreachable, a node still computes
// the result itself, identically.
func TestClusterPeerDownFallsBackToCompute(t *testing.T) {
	ctx := context.Background()
	nodeA := newClusterNode(t, blockstore.NewMem(0), nil)
	ref, err := nodeA.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}

	// 127.0.0.1:1 refuses connections immediately.
	nodeB := newClusterNode(t, blockstore.NewMem(0), []string{"http://127.0.0.1:1"})
	got, err := nodeB.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("node B submit: %v", err)
	}
	if got.State != "done" || got.Cached {
		t.Fatalf("node B job = %+v, want computed locally", got)
	}
	stripTiming(ref.Result)
	stripTiming(got.Result)
	if !reflect.DeepEqual(ref.Result, got.Result) {
		t.Fatalf("fallback result differs:\n ref %+v\n got %+v", ref.Result, got.Result)
	}
	if exSt := nodeB.exch.Stats(); exSt.Peer != 0 || exSt.Miss == 0 {
		t.Fatalf("node B exchange stats = %+v, want misses and no peer hits", exSt)
	}
	// The refused connection is a transport error, reported per peer.
	st, err := nodeB.client.Stats(ctx)
	if err != nil {
		t.Fatalf("node B stats: %v", err)
	}
	if len(st.PeerHealth) != 1 || st.PeerHealth[0].Errors < 1 {
		t.Fatalf("node B peer_health = %+v, want the refused peer with errors >= 1", st.PeerHealth)
	}
}

// TestDiskBlockstoreSurvivesRestart kills a node and starts a fresh one
// on the same blockstore directory: the new node serves the old node's
// result without recompute, even though every in-memory cache level
// started empty.
func TestDiskBlockstoreSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	store, err := blockstore.OpenDisk(dir, blockstore.DiskOptions{})
	if err != nil {
		t.Fatalf("open blockstore: %v", err)
	}
	nodeA := newClusterNode(t, store, nil)
	first, err := nodeA.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("submit before restart: %v", err)
	}
	if first.Cached {
		t.Fatalf("first run = %+v, want computed", first)
	}
	nodeA.close()

	reopened, err := blockstore.OpenDisk(dir, blockstore.DiskOptions{})
	if err != nil {
		t.Fatalf("reopen blockstore: %v", err)
	}
	nodeB := newClusterNode(t, reopened, nil)
	second, err := nodeB.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if second.State != "done" || !second.Cached {
		t.Fatalf("post-restart job = %+v, want served from disk blocks", second)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatalf("post-restart result differs:\n before %+v\n after  %+v", first.Result, second.Result)
	}
	st, err := nodeB.client.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Stages["run"].Count != 0 {
		t.Fatalf("run stage count = %d, want 0 (no recompute after restart)", st.Stages["run"].Count)
	}
	if st.Exchange == nil || st.Exchange.Local == 0 {
		t.Fatalf("exchange stats = %+v, want local resolutions > 0", st.Exchange)
	}
}

// TestBlocksEndpointServesLocalOnly pins the anti-storm contract at the
// HTTP surface: a node answers /v1/blocks for blocks it holds, 404s
// blocks it does not — without consulting its own peers — and rejects
// malformed keys before touching the store.
func TestBlocksEndpointServesLocalOnly(t *testing.T) {
	nodeA := newClusterNode(t, blockstore.NewMem(0), nil)
	// nodeB peers with A and holds nothing: a block request to B must
	// not be forwarded to A.
	nodeB := newClusterNode(t, blockstore.NewMem(0), []string{nodeA.url})

	key := strings.Repeat("ab", 32)
	if err := nodeA.exch.Put(key, []byte("payload")); err != nil {
		t.Fatalf("put: %v", err)
	}

	resp, err := http.Get(nodeA.url + exchange.BlockPath + key)
	if err != nil {
		t.Fatalf("GET block: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "payload" {
		t.Fatalf("GET block = %d %q, want 200 payload", resp.StatusCode, body)
	}

	resp, err = http.Head(nodeA.url + exchange.BlockPath + key)
	if err != nil {
		t.Fatalf("HEAD block: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD block = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(nodeB.url + exchange.BlockPath + key)
	if err != nil {
		t.Fatalf("GET block from B: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent block = %d, want 404 (no transitive fetch)", resp.StatusCode)
	}
	if exSt := nodeB.exch.Stats(); exSt.Peer != 0 {
		t.Fatalf("serving /v1/blocks triggered a peer fetch: %+v", exSt)
	}

	resp, err = http.Get(nodeA.url + exchange.BlockPath + "not-a-key")
	if err != nil {
		t.Fatalf("GET malformed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET malformed key = %d, want 400", resp.StatusCode)
	}
}

// fetchBlock requests one block with method (GET or HEAD) and returns
// the status and body.
func fetchBlock(t *testing.T, method, url, key string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url+exchange.BlockPath+key, nil)
	if err != nil {
		t.Fatalf("%s block: %v", method, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s block: %v", method, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s block body: %v", method, err)
	}
	return resp.StatusCode, body
}

// TestBlocksEndpointServesTypedTier: over an in-memory blockstore the
// cache levels write no block until they evict an entry, so the block
// endpoint answers GET and HEAD from the typed tier, with bytes that
// encode the entry. A keyless entry, which the encoder rejects, is
// absent to both.
func TestBlocksEndpointServesTypedTier(t *testing.T) {
	ctx := context.Background()
	node := newClusterNode(t, blockstore.NewMem(0), nil)
	wire, err := node.client.Submit(ctx, client.SubmitRequest{Spec: &smallSpec, Wait: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if wire.State != "done" || wire.Key == "" {
		t.Fatalf("job = %+v, want a done, keyed job", wire)
	}
	if st := node.exch.Store().Stats(); st.Puts != 0 || st.Blocks != 0 {
		t.Fatalf("blockstore = %+v, want no block while the typed tier holds every entry", st)
	}
	job, ok := node.mgr.Get(wire.ID)
	if !ok {
		t.Fatalf("job %s not retained", wire.ID)
	}
	res := job.Snapshot().Result
	if res.Artifacts == nil || len(res.Artifacts.Panels) == 0 || len(res.Artifacts.Routes) == 0 {
		t.Fatalf("result carries no panel or route artifacts: %+v", res.Artifacts)
	}

	want, err := core.EncodeResult(res)
	if err != nil {
		t.Fatalf("encode result: %v", err)
	}
	panel, route := res.Artifacts.Panels[0], res.Artifacts.Routes[0]
	for _, tc := range []struct {
		name, key string
		check     func(body []byte) error
	}{
		{"design", wire.Key, func(body []byte) error {
			if !bytes.Equal(body, want) {
				return fmt.Errorf("%d bytes, want the %d-byte encoding of the cached result", len(body), len(want))
			}
			_, err := core.DecodeResult(body)
			return err
		}},
		{"panel", panel.Key, func(body []byte) error {
			a, err := pipeline.UnmarshalPanelArtifact(body)
			if err == nil && a.Key != panel.Key {
				err = fmt.Errorf("decodes to key %s", a.Key)
			}
			return err
		}},
		{"route", route.Key, func(body []byte) error {
			a, err := pipeline.UnmarshalRouteArtifact(body)
			if err == nil && (a.Key != route.Key || len(a.Routes) != len(route.Routes)) {
				err = fmt.Errorf("decodes to key %s with %d routes", a.Key, len(a.Routes))
			}
			return err
		}},
	} {
		status, body := fetchBlock(t, http.MethodGet, node.url, tc.key)
		if status != http.StatusOK {
			t.Fatalf("GET %s block = %d, want 200 from the typed tier", tc.name, status)
		}
		if err := tc.check(body); err != nil {
			t.Errorf("GET %s block: %v", tc.name, err)
		}
		if status, _ := fetchBlock(t, http.MethodHead, node.url, tc.key); status != http.StatusOK {
			t.Errorf("HEAD %s block = %d, want 200", tc.name, status)
		}
	}

	// A keyless route artifact in the typed tier is never served.
	keyless := cache.RouteKey("keyless", "fp")
	node.cache.Route.Put(keyless, &pipeline.RouteArtifact{Region: 7})
	if !node.cache.Route.Contains(keyless) {
		t.Fatal("test setup: the keyless entry is not in the typed tier")
	}
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		if status, _ := fetchBlock(t, method, node.url, keyless); status != http.StatusNotFound {
			t.Errorf("%s keyless entry = %d, want 404", method, status)
		}
	}
	// Serving read the typed tier without counting lookups.
	if st := node.cache.Design.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("design level = %+v, want only the submission's miss", st)
	}
	if st := node.exch.Store().Stats(); st.Puts != 0 {
		t.Errorf("serving blocks wrote %d blocks to the store", st.Puts)
	}
}

// TestClusterStitchedTrace is the cross-node tracing contract: when node
// B resolves panel blocks from peer A during a traced run, B's trace
// contains the peer_fetch spans with A's serve_block work adopted as
// remote child spans, and A's flight recorder attributes the serves to
// B's trace id — one stitched trace across both nodes.
func TestClusterStitchedTrace(t *testing.T) {
	ctx := context.Background()
	nodeA := newObservedClusterNode(t, blockstore.NewMem(0), nil, "node-a")
	nodeB := newObservedClusterNode(t, blockstore.NewMem(0), []string{nodeA.url}, "node-b")

	d, err := synth.Generate(synth.Spec{Name: "stitch", Nets: 40, Width: 100, Height: 40, Seed: 9})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var sb strings.Builder
	if err := designio.Write(&sb, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := nodeA.client.Submit(ctx, client.SubmitRequest{Design: sb.String(), Wait: true}); err != nil {
		t.Fatalf("node A submit: %v", err)
	}

	// One moved pin changes the design-level key (so B really runs) while
	// leaving most panel keys equal to A's — B's panel-cache misses
	// resolve from A's blocks mid-run, under B's job trace.
	edited := *d
	edited.Pins = append([]design.Pin(nil), d.Pins...)
	edited.Pins[0].Shape.X0++
	edited.Pins[0].Shape.X1++
	if err := edited.Validate(); err != nil {
		t.Fatalf("edit invalid: %v", err)
	}
	var eb strings.Builder
	if err := designio.Write(&eb, &edited); err != nil {
		t.Fatalf("write edited: %v", err)
	}
	job, err := nodeB.client.Submit(ctx, client.SubmitRequest{Design: eb.String(), Wait: true})
	if err != nil {
		t.Fatalf("node B submit: %v", err)
	}
	if job.State != "done" || job.Cached {
		t.Fatalf("node B job = %+v, want a real (uncached) run", job)
	}
	if nodeB.exch.Stats().Peer == 0 {
		t.Fatal("node B resolved nothing from its peer; the stitched-trace scenario did not occur")
	}

	raw, err := nodeB.client.Trace(ctx, job.ID, client.TraceJSON)
	if err != nil {
		t.Fatalf("node B trace: %v", err)
	}
	var trace struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Attrs  []struct {
				Key   string `json:"key"`
				Value any    `json:"value"`
			} `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if trace.TraceID == "" {
		t.Fatal("node B trace has no trace id")
	}

	// The peer hop must appear as peer_fetch -> serve_block (remote),
	// parent-linked, with the serving node's name on the remote span.
	fetchIDs := map[int]bool{}
	for _, sp := range trace.Spans {
		if sp.Name == "peer_fetch" {
			fetchIDs[sp.ID] = true
		}
	}
	if len(fetchIDs) == 0 {
		t.Fatal("trace has no peer_fetch spans")
	}
	stitched := 0
	for _, sp := range trace.Spans {
		if sp.Name != "serve_block" || !fetchIDs[sp.Parent] {
			continue
		}
		var remote, named bool
		for _, a := range sp.Attrs {
			remote = remote || (a.Key == "remote" && a.Value == true)
			named = named || (a.Key == "node" && a.Value == "node-a")
		}
		if !remote {
			t.Fatalf("serve_block span %d not marked remote: %+v", sp.ID, sp.Attrs)
		}
		if !named {
			t.Fatalf("serve_block span %d missing serving node name: %+v", sp.ID, sp.Attrs)
		}
		stitched++
	}
	if stitched == 0 {
		t.Fatal("no serve_block span parent-linked under a peer_fetch span")
	}

	// Node A saw the same trace id: its flight recorder's block_serve
	// events carry B's propagated span context.
	resp, err := http.Get(nodeA.url + "/v1/debug/events")
	if err != nil {
		t.Fatalf("node A debug events: %v", err)
	}
	defer resp.Body.Close()
	var dump struct {
		Events []struct {
			Type string         `json:"type"`
			Data map[string]any `json:"data"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode node A dump: %v", err)
	}
	serves, propagated := 0, 0
	for _, ev := range dump.Events {
		if ev.Type != "block_serve" {
			continue
		}
		serves++
		if tid, _ := ev.Data["trace"].(string); tid == trace.TraceID {
			propagated++
		}
		if node, _ := ev.Data["node"].(string); node != "node-a" {
			t.Fatalf("block_serve event missing node name: %+v", ev.Data)
		}
	}
	if serves == 0 {
		t.Fatal("node A recorded no block_serve events")
	}
	if propagated == 0 {
		t.Fatalf("none of node A's %d block_serve events carry node B's trace id %s", serves, trace.TraceID)
	}
}
