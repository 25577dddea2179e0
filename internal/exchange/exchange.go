// Package exchange resolves content-addressed blocks locally, then from
// peer daemons — the middle layer of the artifact-exchange stack
// (DESIGN.md §4g): internal/blockstore stores opaque blocks, this
// package finds them, and internal/cache decodes them into typed
// design/panel/route artifacts.
//
// The exchange is strictly observational: it never causes work on a
// peer, it only copies blocks a peer already computed. A peer that is
// missing a block answers 404 and the requesting node recomputes
// locally, so a cluster degrades to N independent daemons, never to a
// partial failure.
package exchange

import (
	"context"
	"sync"

	"cpr/internal/blockstore"
	"cpr/internal/telemetry"
)

// ErrNotFound reports a key that neither the local store nor any peer
// could supply. It aliases blockstore.ErrNotFound so errors.Is works
// across the whole stack.
var ErrNotFound = blockstore.ErrNotFound

// BlockPath is the URL prefix of the block endpoint every cprd node
// serves; fetchers append the hex key.
const BlockPath = "/v1/blocks/"

// Fetcher resolves a key from remote peers. Implementations return
// an error satisfying errors.Is(err, ErrNotFound) when no peer has the
// block, and any other error for transport-level failure.
type Fetcher interface {
	Fetch(ctx context.Context, key string) ([]byte, error)
}

// Stats counts block resolutions by outcome, read from the
// cpr_blocks_total{source} counters. Peer transport errors are counted
// per peer (PeerHealth), not here: a failed fetch is a miss.
type Stats struct {
	// Local counts keys answered from the local blockstore.
	Local int64 `json:"local"`
	// Peer counts keys fetched from a peer (and, over a durable store,
	// written back locally).
	Peer int64 `json:"peer"`
	// Miss counts keys nobody had; the caller recomputes.
	Miss int64 `json:"miss"`
}

// flight is one in-progress peer fetch shared by concurrent callers.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Service answers "give me the block for this key" by checking the
// local store first and falling back to peers. Over a durable store,
// peer-fetched blocks are written through so each block crosses the
// network once per node; over a memory store the caller's typed cache
// tier keeps the decoded value, and writing the bytes too would hold it
// twice. Concurrent requests for the same missing key are
// deduplicated into a single peer fetch.
//
// A Service with a nil Fetcher is a valid single-node configuration:
// it resolves locally or reports a miss.
type Service struct {
	store   blockstore.Store
	fetcher Fetcher

	mu      sync.Mutex
	flights map[string]*flight

	ctrLocal, ctrPeer, ctrMiss *telemetry.Counter
}

// New builds a Service over store. fetcher may be nil (no peers).
// Resolutions are counted on cpr_blocks_total{source=local|peer|miss}
// in reg, or in a private registry when reg is nil; Stats reads those
// counters either way.
func New(store blockstore.Store, fetcher Fetcher, reg *telemetry.Registry) *Service {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	const name = "cpr_blocks_total"
	const help = "Content-addressed block resolutions by source."
	return &Service{
		store:    store,
		fetcher:  fetcher,
		flights:  make(map[string]*flight),
		ctrLocal: reg.Counter(name, help, telemetry.L("source", "local")),
		ctrPeer:  reg.Counter(name, help, telemetry.L("source", "peer")),
		ctrMiss:  reg.Counter(name, help, telemetry.L("source", "miss")),
	}
}

// Store exposes the underlying blockstore (the HTTP block endpoint
// serves from it directly — peers get local blocks only, so a cluster
// cannot fan a single miss out into a fetch storm).
func (s *Service) Store() blockstore.Store { return s.store }

// Durable reports whether the local store outlives the process; the
// cache levels write blocks at Put time only when it does.
func (s *Service) Durable() bool { return s.store.Durable() }

// Put stores a block locally, making it servable to peers. Callers
// (the cache layer) must only put keyed artifacts; keyless eco-fast
// artifacts never reach a Put.
func (s *Service) Put(key string, data []byte) error {
	return s.store.Put(key, data)
}

// Has reports local presence only; it never asks peers.
func (s *Service) Has(key string) (bool, error) {
	return s.store.Has(key)
}

// GetBlock resolves key: local store, then peers (one fetch per key at
// a time; concurrent callers share the result). Over a durable store,
// peer-fetched blocks are written back to it before returning. A miss
// from everyone returns ErrNotFound.
func (s *Service) GetBlock(ctx context.Context, key string) ([]byte, error) {
	data, err := s.store.Get(key)
	switch {
	case err == nil:
		s.ctrLocal.Inc()
		return data, nil
	case err != blockstore.ErrNotFound:
		return nil, err
	}
	if s.fetcher == nil {
		s.ctrMiss.Inc()
		return nil, ErrNotFound
	}

	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.data, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	f.data, f.err = s.fetchAndStore(ctx, key)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.data, f.err
}

// fetchAndStore runs the actual peer fetch for one deduplicated key,
// under an "exchange:fetch" span with the outcome recorded as a
// block_fetch event on the job's event stream.
func (s *Service) fetchAndStore(ctx context.Context, key string) ([]byte, error) {
	ctx, sp := telemetry.StartSpan(ctx, "exchange:fetch")
	defer sp.End()
	sp.SetAttr("key", key)
	em := telemetry.EmitterFrom(ctx)
	data, err := s.fetcher.Fetch(ctx, key)
	if err != nil {
		s.ctrMiss.Inc()
		sp.SetAttr("source", "miss")
		em.Emit("block_fetch", map[string]any{"key": key, "source": "miss"})
		return nil, ErrNotFound
	}
	// Over a durable store, write through so this node serves the block
	// from now on, restarts included. A memory store gets nothing: the
	// cache level that asked keeps the decoded value, re-serves it to
	// peers from its typed tier and writes the block when it evicts the
	// entry. A failing local store only loses the write-through: the
	// fetched bytes are still returned to the caller.
	if s.store.Durable() {
		_ = s.store.Put(key, data)
	}
	s.ctrPeer.Inc()
	sp.SetAttr("source", "peer")
	em.Emit("block_fetch", map[string]any{"key": key, "source": "peer"})
	return data, nil
}

// PeerHealth reports per-peer fetch health when the configured fetcher
// tracks it (the HTTP fetcher does); nil otherwise.
func (s *Service) PeerHealth() []PeerHealth {
	h, ok := s.fetcher.(interface{ Health() []PeerHealth })
	if !ok {
		return nil
	}
	return h.Health()
}

// Stats snapshots the resolution counters.
func (s *Service) Stats() Stats {
	return Stats{
		Local: int64(s.ctrLocal.Value()),
		Peer:  int64(s.ctrPeer.Value()),
		Miss:  int64(s.ctrMiss.Value()),
	}
}
