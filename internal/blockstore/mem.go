package blockstore

import (
	"container/list"
	"sync"
)

// Mem is a bounded in-memory block store: the default for single-node
// daemons (fast, vanishes with the process) and the canonical test
// double for the disk store. When MaxBytes is set, storing a block past
// the bound collects least-recently-used blocks until the store fits
// again — the same GC policy as Disk.
type Mem struct {
	mu       sync.Mutex
	maxBytes int64
	blocks   map[string]*list.Element
	order    *list.List // front = most recently used
	bytes    int64

	hits, misses, puts, evictions int64
}

type memEntry struct {
	key  string
	data []byte
}

// NewMem creates an in-memory store. maxBytes <= 0 means unbounded.
func NewMem(maxBytes int64) *Mem {
	return &Mem{
		maxBytes: maxBytes,
		blocks:   make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Put stores a copy of data under key.
func (m *Mem) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.blocks[key]; ok {
		e := el.Value.(*memEntry)
		m.bytes += int64(len(cp)) - int64(len(e.data))
		e.data = cp
		m.order.MoveToFront(el)
	} else {
		m.blocks[key] = m.order.PushFront(&memEntry{key: key, data: cp})
		m.bytes += int64(len(cp))
	}
	m.puts++
	m.gcLocked()
	return nil
}

// Get returns the block under key, or ErrNotFound. The returned slice
// is shared with the store; callers must not modify it.
func (m *Mem) Get(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.blocks[key]
	if !ok {
		m.misses++
		return nil, ErrNotFound
	}
	m.hits++
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).data, nil
}

// Has reports presence without touching counters or recency.
func (m *Mem) Has(key string) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.blocks[key]
	return ok, nil
}

// Stats snapshots the counters.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Blocks:    len(m.blocks),
		Bytes:     m.bytes,
		Hits:      m.hits,
		Misses:    m.misses,
		Puts:      m.puts,
		Evictions: m.evictions,
	}
}

// Durable is false: blocks vanish with the process.
func (m *Mem) Durable() bool { return false }

// gcLocked collects least-recently-used blocks until the store fits
// MaxBytes. Callers hold m.mu.
func (m *Mem) gcLocked() {
	if m.maxBytes <= 0 {
		return
	}
	for el := m.order.Back(); el != nil && m.bytes > m.maxBytes; el = m.order.Back() {
		m.removeLocked(el)
		m.evictions++
	}
}

// removeLocked unlinks one entry; callers hold m.mu.
func (m *Mem) removeLocked(el *list.Element) {
	e := el.Value.(*memEntry)
	m.order.Remove(el)
	delete(m.blocks, e.key)
	m.bytes -= int64(len(e.data))
}
