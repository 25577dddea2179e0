package cache

import "context"

// BlockSource is the slice of the exchange service a backed level needs:
// resolve a block (locally then from peers), store one, check local
// presence, and say whether stored blocks outlive the process.
// Implemented by *exchange.Service; kept as an interface here so the
// cache package depends on nothing above it.
type BlockSource interface {
	GetBlock(ctx context.Context, key string) ([]byte, error)
	Put(key string, data []byte) error
	Has(key string) (bool, error)
	Durable() bool
}

// Backed is a cache level with a typed in-memory LRU in front of a
// content-addressed block source. Get falls through memory to the
// source (which may fetch from peers and write the block through
// locally); decoded values are re-cached in memory.
//
// When a value's block is written depends on the source. Over a
// durable source (a disk store) Put writes both tiers, so the value
// survives a restart. Over an in-memory source Put keeps only the
// decoded value, and the block is written when the memory tier evicts
// the value: until then the block would be a second copy that nothing
// reads, since Block serves peers from the memory tier.
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
	// writeBack is set over a source that is not durable: blocks are
	// written at eviction instead of at Put.
	writeBack bool

	// storeHits counts Gets the memory tier missed but the block source
	// resolved (locally or from a peer); guarded by mem.mu.
	storeHits int64
}

// NewBacked builds a backed level. capacity bounds only the memory tier
// (<= 0 selects the default): a value it evicts is in the block source
// (written at Put over a durable source, at eviction otherwise) and
// resolves from there until the store's own GC collects the block.
// enc/dec translate values to and from block bytes; keyOf may be nil
// (see Backed).
func NewBacked[V any](capacity int, src BlockSource, enc func(V) ([]byte, error),
	dec func([]byte) (V, error), keyOf func(V) string) *Backed[V] {
	return &Backed[V]{
		mem:       New[V](capacity),
		src:       src,
		enc:       enc,
		dec:       dec,
		keyOf:     keyOf,
		writeBack: !src.Durable(),
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
	b.insert(key, v)
	b.mem.mu.Lock()
	b.storeHits++
	b.mem.mu.Unlock()
	return v, true
}

// Put stores val in memory and, over a durable source, as a block at
// once (see Backed). Empty keys and values the encoder rejects (keyless
// artifacts) stay memory-only.
func (b *Backed[V]) Put(key string, val V) {
	if key == "" {
		return
	}
	b.insert(key, val)
	if !b.writeBack {
		b.store(key, val)
	}
}

// insert puts val in the memory tier. Over a source that is not
// durable, every value the insert evicts is written as a block unless
// the source already holds it; the encoding runs after the memory
// tier's lock is released, while the tier still answers the value.
func (b *Backed[V]) insert(key string, val V) {
	evicted := b.mem.put(key, val, b.writeBack)
	if len(evicted) == 0 {
		return
	}
	for _, e := range evicted {
		if has, err := b.src.Has(e.key); err == nil && has {
			continue
		}
		b.store(e.key, e.val)
	}
	b.mem.release(evicted)
}

// store writes val's block under key, unless the encoder rejects val.
func (b *Backed[V]) store(key string, val V) {
	data, err := b.enc(val)
	if err != nil {
		return
	}
	_ = b.src.Put(key, data)
}

// Contains reports presence in memory or the local block store. It
// never asks peers and never touches counters or recency: core probes
// with Contains before seeding a base result's artifacts and before
// putting a run's route artifacts, so a level never re-encodes or
// re-writes a block it holds.
func (b *Backed[V]) Contains(key string) bool {
	if b.mem.Contains(key) {
		return true
	}
	ok, err := b.src.Has(key)
	return err == nil && ok
}

// Block encodes the value the memory tier holds under key, without
// touching counters or recency. A daemon's block endpoint falls back
// to it when the local store lacks the key, which over an in-memory
// store is the case for every value not yet evicted. A value the
// encoder rejects (keyless) is absent here too.
func (b *Backed[V]) Block(key string) ([]byte, bool) {
	v, ok := b.mem.peek(key)
	if !ok {
		return nil, false
	}
	data, err := b.enc(v)
	return data, err == nil
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
