// Package cache holds the content-addressed artifact levels behind the
// cprd daemon. The job manager keeps three of them (jobs.ResultCache):
//
//   - the design level stores completed optimization results under Key:
//     the SHA-256 of the design's canonical encoding combined with a
//     normalized options fingerprint, so resubmitting an identical
//     design never re-runs the optimizer;
//   - the panel level stores per-panel pipeline artifacts under PanelKey:
//     the SHA-256 of one panel's canonical input encoding (see
//     pipeline.WritePanelInputs) combined with the solver fingerprint,
//     so an edited design that misses the design level still reuses
//     every panel the edit provably cannot affect;
//   - the route level stores per-region route bundles under RouteKey.
//
// Each level is a Backed: a typed in-memory LRU of decoded values
// (Cache, bounded by entry count) in front of a content-addressed block
// source that keeps the encoded bytes for peer daemons and restarts.
// Each value is held in one form where it can be: over a durable (disk)
// source a level writes the block when it stores the value, over an
// in-memory source only when the LRU evicts the value. Both are safe
// for concurrent use, with hit/miss/eviction counters cheap enough to
// read on every /v1/stats request.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key derives the content address for one optimization request: the hex
// SHA-256 over the design's canonical-encoding hash and the normalized
// options fingerprint, separated by a newline. Clients may rely on this
// definition — the same design bytes plus the same fingerprint always map
// to the same key.
func Key(designHash, optionsFingerprint string) string {
	h := sha256.New()
	h.Write([]byte(designHash))
	h.Write([]byte{'\n'})
	h.Write([]byte(optionsFingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// PanelKey derives the content address for one panel's pipeline
// artifacts: the hex SHA-256 over a domain-separation tag, the panel's
// canonical input hash, and the solver fingerprint. The "panel\n" tag
// keeps the panel keyspace disjoint from design-level keys even if the
// two hash inputs ever collide in content.
func PanelKey(panelHash, solverFingerprint string) string {
	// One key per panel: the input is assembled and hex-encoded in stack
	// buffers (a longer input, from a warm-started ILP, spills to the
	// heap), so the key string is the one allocation.
	var in [256]byte
	b := append(in[:0], "panel\n"...)
	b = append(b, panelHash...)
	b = append(b, '\n')
	b = append(b, solverFingerprint...)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	return string(hex.AppendEncode(out[:0], sum[:]))
}

// RouteKey derives the content address for one routing region's artifact:
// the hex SHA-256 over a domain-separation tag, the region's canonical
// input hash (see pipeline.WriteRegionInputs), and the router
// fingerprint. The "route\n" tag keeps the route keyspace disjoint from
// the design and panel keyspaces even if the hash inputs ever collide in
// content.
func RouteKey(regionHash, routerFingerprint string) string {
	h := sha256.New()
	h.Write([]byte("route\n"))
	h.Write([]byte(regionHash))
	h.Write([]byte{'\n'})
	h.Write([]byte(routerFingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a bounded LRU keyed by content address.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	// leaving holds entries evicted by put(…, keep=true) until their
	// owner has written them elsewhere and calls release. Get, Contains
	// and peek still answer them, so a value is never out of sight
	// between its eviction and its write-back.
	leaving   map[string]*entry[V]
	hits      int64
	misses    int64
	evictions int64
}

type entry[V any] struct {
	key string
	val V
}

// New creates a cache holding at most capacity entries; capacity <= 0
// selects the default of 1024.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cache[V]{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		leaving: make(map[string]*entry[V]),
	}
}

// Get looks up a key, promoting it on hit. The second result reports
// whether the key was present; the hit/miss counters are updated either
// way.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	if e, ok := c.leaving[key]; ok {
		c.hits++
		return e.val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Contains reports presence without touching the counters or LRU order.
func (c *Cache[V]) Contains(key string) bool {
	_, ok := c.peek(key)
	return ok
}

// peek returns key's value without touching the counters or LRU order.
func (c *Cache[V]) peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	if e, ok := c.leaving[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores a value, replacing any existing entry and evicting the least
// recently used entry when the capacity is exceeded.
func (c *Cache[V]) Put(key string, val V) {
	c.put(key, val, false)
}

// put is Put that, with keep set, returns the entries it evicted and
// keeps answering them until release.
func (c *Cache[V]) put(key string, val V, keep bool) []*entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return nil
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	var evicted []*entry[V]
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry[V])
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.evictions++
		if keep {
			c.leaving[e.key] = e
			evicted = append(evicted, e)
		}
	}
	return evicted
}

// release stops answering entries put returned. An entry evicted again
// since (after a fresh put of its key) stays until its own release.
func (c *Cache[V]) release(evicted []*entry[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range evicted {
		if c.leaving[e.key] == e {
			delete(c.leaving, e.key)
		}
	}
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
