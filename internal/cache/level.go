package cache

import "context"

// BlockSource is the slice of the exchange service a backed level needs:
// resolve a block (locally then from peers), store one, and check local
// presence. Implemented by *exchange.Service; kept as an interface here
// so the cache package depends on nothing above it.
type BlockSource interface {
	GetBlock(ctx context.Context, key string) ([]byte, error)
	Put(key string, data []byte) error
	Has(key string) (bool, error)
}

// Backed is a cache level with a typed in-memory LRU in front of a
// content-addressed block source. Get falls through memory to the
// source (which may fetch from peers and write the block through
// locally); decoded values are re-cached in memory. Put writes both
// tiers, making the value durable (disk-backed stores) and servable to
// peers.
//
// Keyless values are structurally excluded: Put drops empty keys, and
// the encoder may reject a value whose own key field is empty (eco-fast
// artifacts), in which case the value stays memory-only — never stored,
// never served.
type Backed[V any] struct {
	mem *Cache[V]
	src BlockSource
	enc func(V) ([]byte, error)
	dec func([]byte) (V, error)
	// keyOf extracts the content key a decoded value claims to be for;
	// nil skips the check (values that don't carry their key).
	keyOf func(V) string

	// storeHits counts Gets the memory tier missed but the block source
	// resolved (locally or from a peer); guarded by mem.mu.
	storeHits int64
}

// NewBacked builds a backed level. capacity bounds only the memory tier
// (<= 0 selects the default): a value it evicts still resolves from the
// block source until the store's own GC collects the block. enc/dec
// translate values to and from block bytes; keyOf may be nil (see
// Backed).
func NewBacked[V any](capacity int, src BlockSource, enc func(V) ([]byte, error),
	dec func([]byte) (V, error), keyOf func(V) string) *Backed[V] {
	return &Backed[V]{
		mem:   New[V](capacity),
		src:   src,
		enc:   enc,
		dec:   dec,
		keyOf: keyOf,
	}
}

// Get resolves key through memory, then the block source. A block that
// fails to decode — wrong codec version from a mixed-version peer, or a
// key mismatch — is treated as a miss: the caller recomputes, which is
// always correct.
func (b *Backed[V]) Get(key string) (V, bool) {
	return b.GetCtx(context.Background(), key)
}

// GetCtx is Get with a caller context, so a lookup that falls through to
// the block source carries the job's trace and event plumbing (peer
// fetch spans, block_fetch events) and honors cancellation. The plain
// Get is what core.PanelCache and core.RouteCache call when a caller has
// no context.
func (b *Backed[V]) GetCtx(ctx context.Context, key string) (V, bool) {
	if v, ok := b.mem.Get(key); ok {
		return v, true
	}
	var zero V
	if key == "" {
		return zero, false
	}
	data, err := b.src.GetBlock(ctx, key)
	if err != nil {
		return zero, false
	}
	v, err := b.dec(data)
	if err != nil {
		return zero, false
	}
	if b.keyOf != nil && b.keyOf(v) != key {
		// A peer served bytes whose decoded artifact claims a different
		// content address; do not splice it.
		return zero, false
	}
	b.mem.Put(key, v)
	b.mem.mu.Lock()
	b.storeHits++
	b.mem.mu.Unlock()
	return v, true
}

// Put stores val in memory and, when it encodes, as a block. Empty keys
// and values the encoder rejects (keyless artifacts) stay memory-only.
func (b *Backed[V]) Put(key string, val V) {
	if key == "" {
		return
	}
	b.mem.Put(key, val)
	data, err := b.enc(val)
	if err != nil {
		return
	}
	_ = b.src.Put(key, data)
}

// Contains reports presence in memory or the local block store. It
// never asks peers and never touches counters or recency: the job
// manager probes with Contains before re-warming a base job's artifacts.
func (b *Backed[V]) Contains(key string) bool {
	if b.mem.Contains(key) {
		return true
	}
	ok, err := b.src.Has(key)
	return err == nil && ok
}

// Stats snapshots the level. The memory tier counts every Get as a hit
// or a miss; Gets it missed but the block source resolved are
// reclassified as hits, so Hits+Misses still equals total lookups and
// HitRate reflects what callers observed.
func (b *Backed[V]) Stats() Stats {
	b.mem.mu.Lock()
	sh := b.storeHits
	b.mem.mu.Unlock()
	s := b.mem.Stats()
	s.Hits += sh
	s.Misses -= sh
	return s
}
