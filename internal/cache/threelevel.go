package cache

import (
	"crypto/sha256"
	"encoding/hex"
)

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

// ThreeLevel couples the whole-design result cache with a per-panel
// artifact level and a per-region route artifact level, so an edited
// design that misses the design level reuses both the panel artifacts
// and the route bundles its edit provably cannot affect. Each level is a Level: a plain
// in-memory LRU (NewThreeLevel) or a block-backed one whose misses fall
// through to a persistent store and peer daemons (NewBacked per level).
type ThreeLevel[D, P, R any] struct {
	// Design is the whole-design result level, keyed by Key.
	Design Level[D]
	// Panel is the per-panel artifact level, keyed by PanelKey.
	Panel Level[P]
	// Route is the per-region route artifact level, keyed by RouteKey.
	Route Level[R]
}

// NewThreeLevel creates all three levels as plain in-memory LRUs.
// Capacities <= 0 select the default of 1024 entries per level.
func NewThreeLevel[D, P, R any](designCap, panelCap, routeCap int) *ThreeLevel[D, P, R] {
	return &ThreeLevel[D, P, R]{
		Design: New[D](designCap),
		Panel:  New[P](panelCap),
		Route:  New[R](routeCap),
	}
}

// ThreeLevelStats snapshots all three levels' counters.
type ThreeLevelStats struct {
	Design Stats `json:"design"`
	Panel  Stats `json:"panel"`
	Route  Stats `json:"route"`
}

// Stats snapshots all three levels.
func (t *ThreeLevel[D, P, R]) Stats() ThreeLevelStats {
	return ThreeLevelStats{
		Design: t.Design.Stats(),
		Panel:  t.Panel.Stats(),
		Route:  t.Route.Stats(),
	}
}
