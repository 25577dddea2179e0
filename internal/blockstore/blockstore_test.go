package blockstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// k derives a valid test key from a label.
func k(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// stores builds one of each implementation for shared behavioral tests.
func stores(t *testing.T, maxBytes int64) map[string]Store {
	t.Helper()
	disk, err := OpenDisk(t.TempDir(), DiskOptions{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMem(maxBytes),
		"disk": disk,
	}
}

func TestPutGetHasDelete(t *testing.T) {
	for name, s := range stores(t, 0) {
		t.Run(name, func(t *testing.T) {
			key := k("a")
			if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
			}
			if ok, _ := s.Has(key); ok {
				t.Fatal("Has on empty store = true")
			}
			want := []byte("block-a")
			if err := s.Put(key, want); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, want %q", got, want)
			}
			if ok, _ := s.Has(key); !ok {
				t.Fatal("Has after Put = false")
			}
			// Overwrite replaces and adjusts size accounting.
			want2 := []byte("block-a-longer-version")
			if err := s.Put(key, want2); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.Get(key); !bytes.Equal(got, want2) {
				t.Fatalf("Get after overwrite = %q, want %q", got, want2)
			}
			st := s.Stats()
			if st.Blocks != 1 || st.Bytes != int64(len(want2)) {
				t.Fatalf("Stats = %+v, want 1 block of %d bytes", st, len(want2))
			}
		})
	}
}

func TestMalformedKeysRejected(t *testing.T) {
	for name, s := range stores(t, 0) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", "short", "../../../../etc/passwd",
				k("x")[:63] + "Z", k("x") + "a"} {
				if err := s.Put(bad, []byte("d")); err == nil {
					t.Fatalf("Put(%q) accepted a malformed key", bad)
				}
				if _, err := s.Get(bad); err == nil || errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%q) = %v, want malformed-key error", bad, err)
				}
			}
		})
	}
}

func TestHitMissCounters(t *testing.T) {
	for name, s := range stores(t, 0) {
		t.Run(name, func(t *testing.T) {
			key := k("hm")
			_, _ = s.Get(key)
			_ = s.Put(key, []byte("d"))
			_, _ = s.Get(key)
			// Has must stay counter-neutral.
			_, _ = s.Has(key)
			_, _ = s.Has(k("absent"))
			st := s.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
				t.Fatalf("Stats = %+v, want hits=1 misses=1 puts=1", st)
			}
		})
	}
}

func TestGCBoundAndLRUOrder(t *testing.T) {
	for name, s := range stores(t, 64) {
		t.Run(name, func(t *testing.T) {
			block := bytes.Repeat([]byte("x"), 24)
			keys := []string{k("g0"), k("g1"), k("g2")}
			for _, key := range keys {
				if err := s.Put(key, block); err != nil {
					t.Fatal(err)
				}
			}
			// 3*24 = 72 > 64: the least-recently-used block (g0) is gone.
			st := s.Stats()
			if st.Blocks != 2 || st.Bytes != 48 || st.Evictions != 1 {
				t.Fatalf("Stats = %+v, want 2 blocks, 48 bytes, 1 eviction", st)
			}
			if ok, _ := s.Has(keys[0]); ok {
				t.Fatal("LRU block survived GC")
			}
			// Touch g1 so g2 becomes the eviction candidate.
			if _, err := s.Get(keys[1]); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k("g3"), block); err != nil {
				t.Fatal(err)
			}
			if ok, _ := s.Has(keys[1]); !ok {
				t.Fatal("recently-used block was collected")
			}
			if ok, _ := s.Has(keys[2]); ok {
				t.Fatal("stale block survived GC")
			}
		})
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, s := range stores(t, 4096) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := k(fmt.Sprintf("c%d", (w+i)%20))
						switch i % 3 {
						case 0:
							_ = s.Put(key, []byte("concurrent"))
						case 1:
							_, _ = s.Get(key)
						default:
							_, _ = s.Has(key)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func TestDiskLayoutAndAtomicStaging(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := k("layout")
	if err := d.Put(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Sharded path: <root>/<key[:2]>/<key>.
	if _, err := os.Stat(filepath.Join(dir, key[:2], key)); err != nil {
		t.Fatalf("block not at sharded path: %v", err)
	}
	// The staging dir holds no leftovers after a completed Put.
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("staging dir not empty after Put: %d files", len(tmps))
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{k("r0"), k("r1"), k("r2")}
	for i, key := range keys {
		if err := d1.Put(key, []byte(fmt.Sprintf("block-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: a torn staging file must be swept, not surfaced.
	if err := os.WriteFile(filepath.Join(dir, "tmp", keys[0]+".123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := d2.Stats()
	if st.Blocks != len(keys) {
		t.Fatalf("reopened store has %d blocks, want %d", st.Blocks, len(keys))
	}
	for i, key := range keys {
		got, err := d2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("block-%d", i); string(got) != want {
			t.Fatalf("reopened Get(%s) = %q, want %q", key[:8], got, want)
		}
	}
	tmps, _ := os.ReadDir(filepath.Join(dir, "tmp"))
	if len(tmps) != 0 {
		t.Fatal("stale staging file survived reopen")
	}
}

func TestDiskReopenRespectsBound(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte("b"), 32)
	for i := 0; i < 4; i++ {
		if err := d1.Put(k(fmt.Sprintf("b%d", i)), block); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen with a tighter bound: the next Put triggers GC down to it.
	d2, err := OpenDisk(dir, DiskOptions{MaxBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Put(k("b4"), block); err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Bytes > 96 {
		t.Fatalf("store exceeds bound after reopen GC: %+v", st)
	}
	if ok, _ := d2.Has(k("b4")); !ok {
		t.Fatal("freshly written block was collected")
	}
}

func TestDiskGetAfterExternalRemoval(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := k("ext")
	if err := d.Put(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, key[:2], key)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after external removal: %v, want ErrNotFound", err)
	}
	if st := d.Stats(); st.Blocks != 0 {
		t.Fatalf("index not repaired after external removal: %+v", st)
	}
}

func TestValidKey(t *testing.T) {
	if !ValidKey(k("ok")) {
		t.Fatal("ValidKey rejected a hex sha256")
	}
	for _, bad := range []string{"", "zz", k("x") + "00", "G" + k("x")[1:]} {
		if ValidKey(bad) {
			t.Fatalf("ValidKey(%q) = true", bad)
		}
	}
}

// TestDiskConcurrentPutCommitOffLock is the regression test for the
// lockheld finding in Put: the rename that commits a block used to run
// with d.mu held, stalling every reader behind disk I/O. The fix commits
// outside the lock, which must not cost consistency: under concurrent
// same-key and cross-key Puts with a GC bound in force, every indexed
// key must resolve to an intact payload, the byte counter must match the
// index, and evicted keys must not leave files behind.
func TestDiskConcurrentPutCommitOffLock(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{MaxBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	// Payloads are a function of the label alone: the store is
	// content-addressed (key = sha256 of the block), so racing Puts of
	// one key always carry identical bytes.
	payload := func(label string) []byte {
		return bytes.Repeat([]byte{label[0]}, 256+int(label[len(label)-1])%7)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// Half the keys collide across workers (same-key Put
				// races), half are worker-private.
				var label string
				if i%2 == 0 {
					label = fmt.Sprintf("shared%d", i%10)
				} else {
					label = fmt.Sprintf("own%d-%d", w, i)
				}
				key := k(label)
				if err := d.Put(key, payload(label)); err != nil {
					t.Errorf("Put(%s): %v", key[:8], err)
					return
				}
				if data, err := d.Get(key); err == nil {
					// A concurrent Put may have replaced the block, but a
					// read must never observe a torn payload: whatever
					// worker wrote it, the bytes are uniform.
					for _, b := range data[1:] {
						if b != data[0] {
							t.Errorf("torn payload under key %s: %q", key[:8], data)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The index must agree with the filesystem: every indexed key
	// resolves to its file with the accounted size, and the byte counter
	// is the sum of the index.
	st := d.Stats()
	var diskBytes int64
	shards, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == "tmp" {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			files++
			diskBytes += info.Size()
			ok, err := d.Has(e.Name())
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("file %s on disk but not indexed", e.Name()[:8])
			}
		}
	}
	if files != st.Blocks {
		t.Fatalf("index holds %d blocks, disk holds %d files", st.Blocks, files)
	}
	if diskBytes != st.Bytes {
		t.Fatalf("index accounts %d bytes, disk holds %d", st.Bytes, diskBytes)
	}
	if st.Bytes > 1<<14 {
		t.Fatalf("store over GC bound after quiescence: %d bytes", st.Bytes)
	}
}
