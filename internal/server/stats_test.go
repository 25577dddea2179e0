package server

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"cpr/client"
	"cpr/internal/blockstore"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/synth"
)

// parseSamples maps every sample line of a Prometheus text exposition,
// `name{labels}`, to its value.
func parseSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func designText(t *testing.T, d *design.Design) string {
	t.Helper()
	var b strings.Builder
	if err := designio.Write(&b, d); err != nil {
		t.Fatalf("write design: %v", err)
	}
	return b.String()
}

// TestStatsAgreeWithMetrics pins the one-owner rule for daemon
// statistics. A node wired the way cmd/cprd wires it (one registry
// shared by the manager, the exchange and the peer fetcher), with one
// peer that refuses connections, runs a cold submit, an identical
// resubmit and a strict rerun of a one-pin edit. Every figure /v1/stats
// shares with /metrics must then read the same on both surfaces.
func TestStatsAgreeWithMetrics(t *testing.T) {
	ctx := context.Background()
	const refused = "http://127.0.0.1:1"
	node := newObservedClusterNode(t, blockstore.NewMem(0), []string{refused}, "node")

	d, err := synth.Generate(synth.Spec{Name: "agree", Nets: 40, Width: 100, Height: 40, Seed: 9})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	req := client.SubmitRequest{Design: designText(t, d), Wait: true}
	cold, err := node.client.Submit(ctx, req)
	if err != nil || cold.State != "done" || cold.Cached {
		t.Fatalf("cold submit = %+v, %v; want done uncached", cold, err)
	}
	if again, err := node.client.Submit(ctx, req); err != nil || !again.Cached {
		t.Fatalf("resubmit = %+v, %v; want cached", again, err)
	}
	edited := *d
	edited.Pins = append([]design.Pin(nil), d.Pins...)
	edited.Pins[0].Shape.X0++
	edited.Pins[0].Shape.X1++
	if err := edited.Validate(); err != nil {
		t.Fatalf("edit invalid: %v", err)
	}
	rerun, err := node.client.Submit(ctx, client.SubmitRequest{
		Design:  designText(t, &edited),
		BaseJob: cold.ID,
		Options: &client.Options{RerunMode: client.RerunStrict},
		Wait:    true,
	})
	if err != nil || rerun.State != "done" || rerun.Cached {
		t.Fatalf("strict rerun = %+v, %v; want done uncached", rerun, err)
	}

	st, err := node.client.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	samples := parseSamples(t, scrapeMetrics(t, node.url))
	if st.Exchange == nil || len(st.PeerHealth) != 1 {
		t.Fatalf("stats exchange = %+v, peer_health = %+v; want both present", st.Exchange, st.PeerHealth)
	}
	peer := st.PeerHealth[0]
	onPeer := `{peer="` + refused + `"}`
	for _, c := range []struct {
		field  string
		stats  float64
		series string
	}{
		{"stage_latency.queue_wait.count", float64(st.Stages["queue_wait"].Count), "cprd_job_queue_wait_seconds_count"},
		{"stage_latency.run.count", float64(st.Stages["run"].Count), "cprd_job_run_seconds_count"},
		{"stage_latency.pinopt.count", float64(st.Stages["pinopt"].Count), `cpr_stage_seconds_count{stage="pinopt"}`},
		{"stage_latency.queue_wait.sum", st.Stages["queue_wait"].Sum, "cprd_job_queue_wait_seconds_sum"},
		{"stage_latency.run.sum", st.Stages["run"].Sum, "cprd_job_run_seconds_sum"},
		{"stage_latency.pinopt.sum", st.Stages["pinopt"].Sum, `cpr_stage_seconds_sum{stage="pinopt"}`},
		{"cache.hits", float64(st.Cache.Hits), `cprd_cache_hits_total{level="design"}`},
		{"cache.misses", float64(st.Cache.Misses), `cprd_cache_misses_total{level="design"}`},
		{"panel_cache.hits", float64(st.PanelCache.Hits), `cprd_cache_hits_total{level="panel"}`},
		{"panel_cache.misses", float64(st.PanelCache.Misses), `cprd_cache_misses_total{level="panel"}`},
		{"route_cache.hits", float64(st.RouteCache.Hits), `cprd_cache_hits_total{level="route"}`},
		{"route_cache.misses", float64(st.RouteCache.Misses), `cprd_cache_misses_total{level="route"}`},
		{"exchange.local", float64(st.Exchange.Local), `cpr_blocks_total{source="local"}`},
		{"exchange.peer", float64(st.Exchange.Peer), `cpr_blocks_total{source="peer"}`},
		{"exchange.miss", float64(st.Exchange.Miss), `cpr_blocks_total{source="miss"}`},
		{"peer_health[0].fetches", float64(peer.Fetches), "cpr_peer_fetch_seconds_count" + onPeer},
		{"peer_health[0].errors", float64(peer.Errors), "cpr_peer_errors_total" + onPeer},
	} {
		got, ok := samples[c.series]
		if !ok {
			t.Errorf("/metrics has no %s (for %s)", c.series, c.field)
			continue
		}
		if got != c.stats {
			t.Errorf("/v1/stats %s = %v, /metrics %s = %v", c.field, c.stats, c.series, got)
		}
	}

	// The traffic reached every owner, so the equalities above are not
	// between zeros: two executed jobs, one design-level hit, reused
	// panels, missed blocks, and a refused peer.
	for _, name := range []string{"queue_wait", "run", "pinopt"} {
		if n := st.Stages[name].Count; n != 2 {
			t.Errorf("stage_latency.%s.count = %d, want 2 (two executed jobs)", name, n)
		}
	}
	if st.Cache.Hits != 1 || st.PanelCache.Hits == 0 || st.Exchange.Miss == 0 {
		t.Errorf("cache hits %d, panel hits %d, exchange misses %d; want 1, > 0, > 0",
			st.Cache.Hits, st.PanelCache.Hits, st.Exchange.Miss)
	}
	if peer.Fetches < 1 || peer.Errors < 1 {
		t.Errorf("refused peer health = %+v, want fetches and errors >= 1", peer)
	}
}
