// Package blockstore is persistent storage for opaque content-addressed
// blocks, the bottom layer of the cprd artifact-exchange stack (kubo's
// blockstore / blockservice / exchange layering, DESIGN.md §4g):
//
//	blockstore  Put/Get/Has over key -> bytes (this package)
//	exchange    resolves a missing key locally, then from peer daemons
//	cache       typed design/panel/route levels decoding blocks on demand
//
// Keys are the hex SHA-256 content addresses minted by internal/cache
// (cache.Key / cache.PanelKey / cache.RouteKey). They address the
// *inputs* of an artifact, not its bytes: the pipeline's determinism
// contract makes equal keys imply byte-identical artifacts, which is
// what lets any node of a cluster serve any other's blocks verbatim.
//
// Two implementations: Mem (bounded in-memory, for single-node daemons
// and tests) and Disk (sharded directories, atomic writes, size-bounded
// GC), both safe for concurrent use. Store.Durable tells them apart for
// the cache levels above: over Disk a level writes every block when it
// stores the value, over Mem only when its typed tier evicts the value,
// since until then the typed tier already holds it in a form peers can
// be served from. The GC may collect any block: a running job splices
// decoded artifacts, never block bytes, so a collected block only turns
// a later lookup into a miss and a recompute.
package blockstore

import (
	"errors"
	"fmt"
)

// ErrNotFound reports a key with no stored block. The exchange layer
// maps it to a peer fetch; the HTTP API maps it to 404.
var ErrNotFound = errors.New("blockstore: block not found")

// KeyLen is the length of a valid key: a hex-encoded SHA-256.
const KeyLen = 64

// ValidKey reports whether key is a well-formed content address
// (lowercase hex SHA-256). The disk store derives file paths from keys,
// so malformed keys are rejected before they can escape the store root.
func ValidKey(key string) bool {
	if len(key) != KeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkKey returns a descriptive error for malformed keys.
func checkKey(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("blockstore: malformed key %q (want %d hex chars)", key, KeyLen)
	}
	return nil
}

// Stats is a point-in-time snapshot of one store's counters.
type Stats struct {
	// Blocks and Bytes are the live block count and payload size.
	Blocks int   `json:"blocks"`
	Bytes  int64 `json:"bytes"`
	// Hits and Misses count Get outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts stored blocks (including overwrites).
	Puts int64 `json:"puts"`
	// Evictions counts blocks collected by the size-bounded GC.
	Evictions int64 `json:"evictions"`
}

// Store is the common surface of the block stores. All methods are safe
// for concurrent use. Blocks are immutable: callers must not modify the
// slice returned by Get, and Put copies its input.
type Store interface {
	// Put stores a block under key, replacing any existing block.
	Put(key string, data []byte) error
	// Get returns the block stored under key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Has reports whether a block is stored under key, without touching
	// the hit/miss counters or the GC recency order.
	Has(key string) (bool, error)
	// Stats snapshots the counters.
	Stats() Stats
	// Durable reports whether stored blocks outlive the process (Disk)
	// or vanish with it (Mem). The cache levels above write a block at
	// Put time only over a durable store (see cache.Backed).
	Durable() bool
}
