package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func TestKeyStability(t *testing.T) {
	k1 := Key("deadbeef", "v1 mode=cpr")
	k2 := Key("deadbeef", "v1 mode=cpr")
	if k1 != k2 {
		t.Fatalf("identical inputs produced different keys: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key is not hex sha256: %q", k1)
	}
	if Key("deadbeef", "v1 mode=ilp") == k1 {
		t.Fatal("different fingerprints collided")
	}
	if Key("cafef00d", "v1 mode=cpr") == k1 {
		t.Fatal("different design hashes collided")
	}
	// The separator prevents boundary ambiguity between hash and
	// fingerprint.
	if Key("ab", "cd") == Key("abc", "d") {
		t.Fatal("hash/fingerprint boundary is ambiguous")
	}
}

func TestRouteKeyDomainSeparation(t *testing.T) {
	// The same hash/fingerprint pair must address different blocks at
	// each level: the tags keep the keyspaces disjoint.
	k1 := Key("hash", "fp")
	k2 := PanelKey("hash", "fp")
	k3 := RouteKey("hash", "fp")
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("keyspaces collide: %s %s %s", k1, k2, k3)
	}
	if RouteKey("hash", "fp") != k3 {
		t.Fatal("RouteKey is not stable")
	}
}

// TestPanelKeyDefinition pins PanelKey to its definition, the hex SHA-256
// of "panel\n", the panel hash, "\n" and the fingerprint, also for a
// fingerprint longer than the key's stack buffer.
func TestPanelKeyDefinition(t *testing.T) {
	for _, fp := range []string{"fp", strings.Repeat(" warm=8:ff", 40)} {
		sum := sha256.Sum256([]byte("panel\nhash\n" + fp))
		if got, want := PanelKey("hash", fp), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("PanelKey(hash, %d-byte fingerprint) = %s, want %s", len(fp), got, want)
		}
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := New[int](8)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // promote a; b is now LRU
	c.Put("c", 3)
	if c.Contains("b") {
		t.Fatal("b should have been evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("a and c should survive")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestCachePutReplace(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("replaced value = %d, want 9", v)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

// TestCacheDefaultCapacity: a non-positive capacity takes the default of
// 1024 entries rather than creating an unbounded or zero-size cache.
func TestCacheDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[int](capacity)
		for i := 0; i < 1030; i++ {
			c.Put(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('A'+i/260)), i)
		}
		if n := c.Stats().Entries; n != 1024 {
			t.Errorf("capacity %d: cache holds %d entries, want the default 1024", capacity, n)
		}
	}
}

// TestContainsDoesNotTouchCounters: Contains is the probe
// core.RerunContext uses before seeding a base result's artifacts; it
// must not distort the hit/miss accounting that /v1/stats reports.
func TestContainsDoesNotTouchCounters(t *testing.T) {
	c := New[int](4)
	c.Put("k", 1)
	if !c.Contains("k") || c.Contains("missing") {
		t.Fatal("Contains gave wrong answers")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Contains touched counters: %+v", st)
	}
	// Contains must not promote: k becomes LRU after newer entries.
	c.Put("a", 2)
	c.Put("b", 3)
	c.Put("c", 4)
	c.Contains("k")
	c.Put("d", 5) // evicts k
	if c.Contains("k") {
		t.Error("Contains promoted k in LRU order")
	}
}
