package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cpr/internal/blockstore"
)

// memSource is an in-memory BlockSource with scriptable peer blocks.
type memSource struct {
	local map[string][]byte
	peer  map[string][]byte
	// peerFetches counts GetBlock calls that fell through to peer data.
	peerFetches int
	// durable is what Durable reports: whether levels write at Put.
	durable bool
	// onPut, when set, runs before Put stores a block.
	onPut func(key string)
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
	if s.onPut != nil {
		s.onPut(key)
	}
	s.local[key] = append([]byte(nil), data...)
	return nil
}

func (s *memSource) Has(key string) (bool, error) {
	_, ok := s.local[key]
	return ok, nil
}

func (s *memSource) Durable() bool { return s.durable }

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

// TestBackedWritePolicy: over a durable source Put writes the block at
// once; over an in-memory one Put writes nothing and the block is
// written when the memory tier evicts the value. Either way an evicted
// value comes back from the source as a store hit.
func TestBackedWritePolicy(t *testing.T) {
	t.Run("durable", func(t *testing.T) {
		src := newMemSource()
		src.durable = true
		b := NewBacked[string](2, src, strEnc, strDec, nil)
		b.Put("k", "value")
		if string(src.local["k"]) != "value" {
			t.Fatal("Put did not reach the block source")
		}
		b.Put("k2", "v2")
		b.Put("k3", "v3")
		if b.mem.Contains("k") {
			t.Fatal("test setup: k should be evicted from memory")
		}
		if v, ok := b.Get("k"); !ok || v != "value" {
			t.Fatalf("Get after memory eviction = %q, %v", v, ok)
		}
		if st := b.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Fatalf("stats = %+v, want the evicted value as one store hit", st)
		}
	})

	t.Run("memory", func(t *testing.T) {
		src := newMemSource()
		b := NewBacked[string](2, src, strEnc, strDec, nil)
		b.Put("k", "value")
		b.Put("kl", "keyless-artifact")
		if len(src.local) != 0 {
			t.Fatalf("Put wrote %d blocks to an in-memory source, want 0", len(src.local))
		}
		// Evict both: the keyed value is written, the keyless one is not.
		b.Put("k2", "v2")
		b.Put("k3", "v3")
		if b.mem.Contains("k") || b.mem.Contains("kl") {
			t.Fatal("test setup: k and kl should be evicted from memory")
		}
		data, ok := src.local["k"]
		if !ok {
			t.Fatal("eviction did not write the evicted block")
		}
		if v, err := strDec(data); err != nil || v != "value" {
			t.Fatalf("evicted block decodes to %q, %v; want \"value\"", v, err)
		}
		if _, ok := src.local["kl"]; ok {
			t.Fatal("a keyless value reached the block source")
		}
		if len(src.local) != 1 {
			t.Fatalf("source holds %d blocks, want only the evicted keyed one", len(src.local))
		}
		if v, ok := b.Get("k"); !ok || v != "value" {
			t.Fatalf("Get after memory eviction = %q, %v", v, ok)
		}
		if st := b.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Fatalf("stats = %+v, want the evicted value as one store hit", st)
		}
		if _, ok := b.Get("kl"); ok {
			t.Fatal("evicted keyless value came back")
		}
	})
}

// TestBackedEvictedValueAnsweredDuringWriteBack: between its eviction
// and the end of its block write, a value stays answerable by Get,
// Contains and Block, so a concurrent reader never misses both tiers.
func TestBackedEvictedValueAnsweredDuringWriteBack(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](1, src, strEnc, strDec, nil)
	b.Put("k", "value")
	checked := false
	src.onPut = func(key string) {
		if key != "k" {
			return
		}
		checked = true
		if v, ok := b.Get("k"); !ok || v != "value" {
			t.Errorf("Get during write-back = %q, %v", v, ok)
		}
		if !b.Contains("k") {
			t.Error("Contains missed a value being written back")
		}
		if data, ok := b.Block("k"); !ok || string(data) != "value" {
			t.Errorf("Block during write-back = %q, %v", data, ok)
		}
	}
	b.Put("k2", "v2") // evicts k
	if !checked {
		t.Fatal("eviction did not write k")
	}
	if !b.Contains("k") || b.mem.Contains("k") {
		t.Fatal("after write-back, k must be in the source only")
	}
	if st := b.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one hit and the LRU's single entry", st)
	}
}

// storeSource is a BlockSource over a real in-memory blockstore, safe
// for concurrent use.
type storeSource struct{ *blockstore.Mem }

func (s storeSource) GetBlock(_ context.Context, key string) ([]byte, error) { return s.Get(key) }

// TestBackedWriteBackConcurrent: with Puts evicting each other's values
// from several goroutines over an in-memory store, every value put stays
// answerable — from memory, during its write-back, or from the store.
func TestBackedWriteBackConcurrent(t *testing.T) {
	b := NewBacked[string](4, storeSource{blockstore.NewMem(0)}, strEnc, strDec, nil)
	const workers, perWorker = 8, 150
	key := func(w, i int) string { return fmt.Sprintf("%064x", w*perWorker+i) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b.Put(key(w, i), "v"+key(w, i))
				for j := i; j >= 0; j -= 7 {
					if v, ok := b.Get(key(w, j)); !ok || v != "v"+key(w, j) {
						t.Errorf("worker %d: Get(key %d) = %q, %v after it was put", w, j, v, ok)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBackedBlockIsCounterNeutral: Block encodes the memory tier's
// value without touching counters or recency, and never reads the
// source.
func TestBackedBlockIsCounterNeutral(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](3, src, strEnc, strDec, nil)
	b.Put("a", "va")
	b.Put("b", "vb")
	b.Put("kl", "keyless-artifact")
	src.local["stored"] = []byte("vs")
	if data, ok := b.Block("a"); !ok || string(data) != "va" {
		t.Fatalf("Block(a) = %q, %v", data, ok)
	}
	if _, ok := b.Block("kl"); ok {
		t.Fatal("Block served a keyless value")
	}
	if _, ok := b.Block("stored"); ok {
		t.Fatal("Block read the source")
	}
	if st := b.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("Block touched counters: %+v", st)
	}
	// a is still the least recently used entry, so it is the one evicted.
	b.Put("c", "vc")
	if b.mem.Contains("a") || !b.mem.Contains("b") {
		t.Fatal("Block promoted a in LRU order")
	}
}

func TestBackedKeylessValuesStayMemoryOnly(t *testing.T) {
	src := newMemSource()
	src.durable = true // Put writes at once, so the encoder is consulted
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
