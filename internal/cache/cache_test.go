package cache

import "testing"

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
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
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
		if n := c.Len(); n != 1024 {
			t.Errorf("capacity %d: cache holds %d entries, want the default 1024", capacity, n)
		}
	}
}

// TestContainsDoesNotTouchCounters: Contains is the re-warm probe used
// by jobs.SubmitBase; it must not distort the hit/miss accounting that
// /v1/stats reports.
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
