package cache

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// memSource is an in-memory BlockSource with scriptable peer blocks.
type memSource struct {
	local map[string][]byte
	peer  map[string][]byte
	// peerFetches counts GetBlock calls that fell through to peer data.
	peerFetches int
}

func newMemSource() *memSource {
	return &memSource{local: map[string][]byte{}, peer: map[string][]byte{}}
}

func (s *memSource) GetBlock(_ context.Context, key string) ([]byte, error) {
	if d, ok := s.local[key]; ok {
		return d, nil
	}
	if d, ok := s.peer[key]; ok {
		s.peerFetches++
		s.local[key] = d // write-through, as the exchange service does
		return d, nil
	}
	return nil, errors.New("not found")
}

func (s *memSource) Put(key string, data []byte) error {
	s.local[key] = append([]byte(nil), data...)
	return nil
}

func (s *memSource) Has(key string) (bool, error) {
	_, ok := s.local[key]
	return ok, nil
}

// strCodec encodes "key\x00payload" so decoded values carry their key.
func strEnc(v string) ([]byte, error) {
	if strings.HasPrefix(v, "keyless") {
		return nil, errors.New("keyless value")
	}
	return []byte(v), nil
}

func strDec(data []byte) (string, error) {
	if strings.HasPrefix(string(data), "corrupt") {
		return "", errors.New("corrupt block")
	}
	return string(data), nil
}

func TestBackedLevelFallsThroughToSource(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](2, src, strEnc, strDec, nil)

	// Memory miss, local block hit.
	src.local["k1"] = []byte("from-store")
	if v, ok := b.Get("k1"); !ok || v != "from-store" {
		t.Fatalf("Get(k1) = %q, %v", v, ok)
	}
	// Now cached in memory: stats show one (reclassified) hit so far.
	if st := b.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats after store hit = %+v", st)
	}
	if v, ok := b.Get("k1"); !ok || v != "from-store" {
		t.Fatalf("second Get(k1) = %q, %v", v, ok)
	}
	if st := b.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats after memory hit = %+v", st)
	}

	// Memory+local miss, peer hit.
	src.peer["k2"] = []byte("from-peer")
	if v, ok := b.Get("k2"); !ok || v != "from-peer" {
		t.Fatalf("Get(k2) = %q, %v", v, ok)
	}
	if src.peerFetches != 1 {
		t.Fatalf("peer fetches = %d, want 1", src.peerFetches)
	}

	// Total miss.
	if _, ok := b.Get("k3"); ok {
		t.Fatal("Get(k3) fabricated a value")
	}
	if st := b.Stats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestBackedPutWritesBothTiers(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](2, src, strEnc, strDec, nil)
	b.Put("k", "value")
	if string(src.local["k"]) != "value" {
		t.Fatal("Put did not reach the block source")
	}
	// Evict from memory; the value must come back from the store.
	b.Put("k2", "v2")
	b.Put("k3", "v3")
	if b.mem.Contains("k") {
		t.Fatal("test setup: k should be evicted from memory")
	}
	if v, ok := b.Get("k"); !ok || v != "value" {
		t.Fatalf("Get after memory eviction = %q, %v", v, ok)
	}
}

func TestBackedKeylessValuesStayMemoryOnly(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](4, src, strEnc, strDec, nil)
	b.Put("", "anything")
	if b.Stats().Entries != 0 || len(src.local) != 0 {
		t.Fatal("empty key was stored")
	}
	// The encoder rejects "keyless*" values: memory-only.
	b.Put("k", "keyless-artifact")
	if len(src.local) != 0 {
		t.Fatal("encoder-rejected value reached the block source")
	}
	if v, ok := b.Get("k"); !ok || v != "keyless-artifact" {
		t.Fatalf("memory tier lost the keyless value: %q, %v", v, ok)
	}
}

func TestBackedRejectsCorruptAndMismatchedBlocks(t *testing.T) {
	src := newMemSource()
	src.local["bad"] = []byte("corrupt-bytes")
	b := NewBacked[string](4, src, strEnc, strDec, nil)
	if _, ok := b.Get("bad"); ok {
		t.Fatal("corrupt block was decoded into a hit")
	}

	// keyOf mismatch: decoded value claims a different key.
	keyed := NewBacked[string](4, src, strEnc, strDec, func(v string) string { return "expected" })
	src.local["other"] = []byte("value-claiming-expected")
	if _, ok := keyed.Get("other"); ok {
		t.Fatal("key-mismatched block was spliced")
	}
	if v, ok := keyed.Get("expected"); ok && v == "" {
		t.Fatal("unexpected empty hit")
	}
}

func TestBackedContainsChecksLocalOnly(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](4, src, strEnc, strDec, nil)
	src.local["loc"] = []byte("x")
	src.peer["far"] = []byte("y")
	if !b.Contains("loc") {
		t.Fatal("Contains missed a local block")
	}
	if b.Contains("far") {
		t.Fatal("Contains consulted peers")
	}
	if src.peerFetches != 0 {
		t.Fatal("Contains triggered a peer fetch")
	}
	if st := b.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("Contains touched counters: %+v", st)
	}
}
