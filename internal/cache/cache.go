// Package cache is the content-addressed result cache behind the cprd
// daemon (ThreeLevel):
//
//   - the design level stores completed optimization results under the
//     SHA-256 of the design's canonical encoding combined with a
//     normalized options fingerprint, so resubmitting an identical
//     design never re-runs the optimizer;
//   - the panel level stores per-panel pipeline artifacts under the
//     SHA-256 of one panel's canonical input encoding (see
//     pipeline.WritePanelInputs) combined with the solver fingerprint,
//     so an edited design that misses the design level still reuses
//     every panel the edit provably cannot affect;
//   - the route level stores per-region route bundles under RouteKey.
//
// Each level is an in-memory LRU bounded by entry count, optionally
// backed by a block store (NewBacked), safe for concurrent use, with
// hit/miss/eviction counters cheap enough to read on every /v1/stats
// request.
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
	h := sha256.New()
	h.Write([]byte("panel\n"))
	h.Write([]byte(panelHash))
	h.Write([]byte{'\n'})
	h.Write([]byte(solverFingerprint))
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
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
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
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
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
	c.misses++
	var zero V
	return zero, false
}

// Contains reports presence without touching the counters or LRU order.
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put stores a value, replacing any existing entry and evicting the least
// recently used entry when the capacity is exceeded.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
