package exchange

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpr/internal/blockstore"
	"cpr/internal/telemetry"
)

func k(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// blockPeer is a minimal stand-in for a cprd node's block endpoint.
func blockPeer(t *testing.T, blocks map[string][]byte, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		key := strings.TrimPrefix(r.URL.Path, BlockPath)
		data, ok := blocks[key]
		if !ok {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write(data)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestGetBlockLocalThenPeerThenMiss resolves a local key, a peer key
// twice and a key nobody has. Over a disk store the peer's block is
// written through, so the second read is local; over a memory store
// nothing is written (the caller's typed cache tier holds the value), so
// the second read goes to the peer again.
func TestGetBlockLocalThenPeerThenMiss(t *testing.T) {
	for _, tc := range []struct {
		name              string
		open              func(t *testing.T) blockstore.Store
		writeThrough      bool
		local, peer, miss int64
	}{
		{"disk", func(t *testing.T) blockstore.Store {
			d, err := blockstore.OpenDisk(t.TempDir(), blockstore.DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}, true, 2, 1, 1},
		{"mem", func(*testing.T) blockstore.Store { return blockstore.NewMem(0) }, false, 1, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			remote := map[string][]byte{k("remote"): []byte("peer-block")}
			peer := blockPeer(t, remote, nil)
			reg := telemetry.NewRegistry()
			store := tc.open(t)
			svc := New(store, NewHTTPFetcher([]string{peer.URL}, HTTPOptions{}), reg)

			// Local hit.
			if err := store.Put(k("local"), []byte("local-block")); err != nil {
				t.Fatal(err)
			}
			data, err := svc.GetBlock(context.Background(), k("local"))
			if err != nil || string(data) != "local-block" {
				t.Fatalf("local GetBlock = %q, %v", data, err)
			}

			// Peer hit, written through only to the durable store.
			data, err = svc.GetBlock(context.Background(), k("remote"))
			if err != nil || string(data) != "peer-block" {
				t.Fatalf("peer GetBlock = %q, %v", data, err)
			}
			if ok, _ := store.Has(k("remote")); ok != tc.writeThrough {
				t.Fatalf("peer-fetched block in the local store: %v, want %v", ok, tc.writeThrough)
			}
			if data, err := svc.GetBlock(context.Background(), k("remote")); err != nil || string(data) != "peer-block" {
				t.Fatalf("second peer-key GetBlock = %q, %v", data, err)
			}
			if st := store.Stats(); !tc.writeThrough && (st.Blocks != 1 || st.Bytes != int64(len("local-block"))) {
				t.Fatalf("memory store stats = %+v, want only the local block", st)
			}

			// Miss everywhere.
			if _, err := svc.GetBlock(context.Background(), k("nowhere")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("miss GetBlock err = %v, want ErrNotFound", err)
			}

			st := svc.Stats()
			if st.Local != tc.local || st.Peer != tc.peer || st.Miss != tc.miss {
				t.Fatalf("Stats = %+v, want local=%d peer=%d miss=%d", st, tc.local, tc.peer, tc.miss)
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf(`cpr_blocks_total{source="local"} %d`, tc.local),
				fmt.Sprintf(`cpr_blocks_total{source="peer"} %d`, tc.peer),
				fmt.Sprintf(`cpr_blocks_total{source="miss"} %d`, tc.miss),
			} {
				if !strings.Contains(sb.String(), want) {
					t.Fatalf("metrics missing %q in:\n%s", want, sb.String())
				}
			}
		})
	}
}

func TestGetBlockNoFetcher(t *testing.T) {
	svc := New(blockstore.NewMem(0), nil, nil)
	if _, err := svc.GetBlock(context.Background(), k("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if st := svc.Stats(); st.Miss != 1 {
		t.Fatalf("Stats = %+v, want miss=1", st)
	}
}

func TestSingleflightDedup(t *testing.T) {
	key := k("dedup")
	var hits atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-release
		_, _ = w.Write([]byte("slow-block"))
	}))
	defer srv.Close()

	svc := New(blockstore.NewMem(0), NewHTTPFetcher([]string{srv.URL}, HTTPOptions{Timeout: 10 * time.Second}), nil)
	const callers = 8
	var wg sync.WaitGroup
	results := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := svc.GetBlock(context.Background(), key)
			if err == nil {
				results[i] = string(data)
			}
		}(i)
	}
	// Let the callers pile onto the single flight, then release the peer.
	for hits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := hits.Load(); got != 1 {
		t.Fatalf("peer saw %d fetches for one key, want 1", got)
	}
	for i, r := range results {
		if r != "slow-block" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
}

func TestFetcherTriesPeersInOrder(t *testing.T) {
	key := k("second")
	var aHits atomic.Int64
	peerA := blockPeer(t, nil, &aHits) // 404s everything
	peerB := blockPeer(t, map[string][]byte{key: []byte("b-block")}, nil)
	f := NewHTTPFetcher([]string{peerA.URL, peerB.URL}, HTTPOptions{})

	data, err := f.Fetch(context.Background(), key)
	if err != nil || string(data) != "b-block" {
		t.Fatalf("Fetch = %q, %v", data, err)
	}
	if aHits.Load() != 1 {
		t.Fatalf("first peer saw %d requests, want 1", aHits.Load())
	}
}

func TestFetcherBackoffSkipsDeadPeer(t *testing.T) {
	key := k("backoff")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()
	var deadHits atomic.Int64
	deadCounting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer deadCounting.Close()
	live := blockPeer(t, map[string][]byte{key: []byte("live-block")}, nil)

	f := NewHTTPFetcher([]string{deadCounting.URL, live.URL}, HTTPOptions{
		BackoffBase: time.Hour, // one failure benches the peer for the test's lifetime
		BackoffMax:  time.Hour,
	})
	for i := 0; i < 3; i++ {
		data, err := f.Fetch(context.Background(), key)
		if err != nil || string(data) != "live-block" {
			t.Fatalf("Fetch #%d = %q, %v", i, data, err)
		}
	}
	if got := deadHits.Load(); got != 1 {
		t.Fatalf("dead peer saw %d requests, want 1 (backoff not applied)", got)
	}

	// Clock control: after the penalty window the peer is retried.
	f2 := NewHTTPFetcher([]string{dead.URL}, HTTPOptions{BackoffBase: time.Minute, BackoffMax: time.Hour})
	now := time.Unix(1000, 0)
	f2.now = func() time.Time { return now }
	_, _ = f2.Fetch(context.Background(), key) // records the failure
	if !f2.inBackoff(f2.peers[0]) {
		t.Fatal("peer not in backoff after failure")
	}
	now = now.Add(2 * time.Minute)
	if f2.inBackoff(f2.peers[0]) {
		t.Fatal("peer still in backoff after the penalty window")
	}
	// A second consecutive failure doubles the penalty.
	_, _ = f2.Fetch(context.Background(), key)
	if want := now.Add(2 * time.Minute); !f2.peers[0].until.Equal(want) {
		t.Fatalf("second penalty until = %v, want %v", f2.peers[0].until, want)
	}
}

func TestFetcherPerPeerTimeout(t *testing.T) {
	key := k("slow")
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer slow.Close()
	live := blockPeer(t, map[string][]byte{key: []byte("fast-block")}, nil)

	f := NewHTTPFetcher([]string{slow.URL, live.URL}, HTTPOptions{Timeout: 50 * time.Millisecond})
	start := time.Now()
	data, err := f.Fetch(context.Background(), key)
	if err != nil || string(data) != "fast-block" {
		t.Fatalf("Fetch = %q, %v", data, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("slow peer was not timed out (took %v)", elapsed)
	}
}

func TestFetcherNormalizesPeerURLs(t *testing.T) {
	f := NewHTTPFetcher([]string{" node-a:8080 ", "", "http://node-b:8080/"}, HTTPOptions{})
	var got []string
	for _, h := range f.Health() {
		got = append(got, h.Peer)
	}
	want := []string{"http://node-a:8080", "http://node-b:8080"}
	if len(got) != len(want) {
		t.Fatalf("peers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peers = %v, want %v", got, want)
		}
	}
}

func TestFetcherRejectsMalformedKey(t *testing.T) {
	f := NewHTTPFetcher([]string{"http://localhost:1"}, HTTPOptions{})
	if _, err := f.Fetch(context.Background(), "../evil"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Fetch(malformed) = %v, want a malformed-key error", err)
	}
}

func TestGetBlockContextCancelled(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	svc := New(blockstore.NewMem(0), NewHTTPFetcher([]string{srv.URL}, HTTPOptions{Timeout: 10 * time.Second}), nil)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := svc.GetBlock(ctx, k("cancelled")); err == nil {
		t.Fatal("GetBlock with cancelled context returned nil error")
	}
}
