package blockstore

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Disk is a disk-backed block store, so a daemon's content-addressed
// caches survive restarts. Layout under the root directory:
//
//	<root>/<key[:2]>/<key>   one file per block, sharded by key prefix
//	<root>/tmp/              staging area for atomic writes
//
// Writes are atomic: the block is staged in tmp/ and renamed into its
// shard, so a crash mid-Put leaves either the old block or none — never
// a torn one (stale staging files are swept on Open). When MaxBytes is
// set, a Put that pushes the store past the bound collects
// least-recently-used blocks until it fits; recency is tracked in memory
// and seeded from file modification times on Open.
type Disk struct {
	root     string
	maxBytes int64

	mu     sync.Mutex
	blocks map[string]*list.Element
	order  *list.List // front = most recently used
	bytes  int64

	hits, misses, puts, evictions int64
}

// DiskOptions tunes OpenDisk.
type DiskOptions struct {
	// MaxBytes bounds the total payload size; <= 0 means unbounded.
	MaxBytes int64
}

type diskEntry struct {
	key  string
	size int64
}

// OpenDisk opens (creating if needed) a disk store rooted at dir and
// indexes the blocks already present, oldest first in the GC order.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	d := &Disk{
		root:     dir,
		maxBytes: opts.MaxBytes,
		blocks:   make(map[string]*list.Element),
		order:    list.New(),
	}
	if err := os.MkdirAll(d.tmpDir(), 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: creating %s: %w", d.tmpDir(), err)
	}
	// Sweep staging files from a previous crash; they were never visible.
	tmps, err := os.ReadDir(d.tmpDir())
	if err != nil {
		return nil, fmt.Errorf("blockstore: reading %s: %w", d.tmpDir(), err)
	}
	for _, e := range tmps {
		_ = os.Remove(filepath.Join(d.tmpDir(), e.Name()))
	}
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Disk) tmpDir() string { return filepath.Join(d.root, "tmp") }

func (d *Disk) blockPath(key string) string {
	return filepath.Join(d.root, key[:2], key)
}

// scan indexes the blocks already on disk, ordered by modification time
// so the GC collects the stalest blocks of a previous daemon run first.
func (d *Disk) scan() error {
	shards, err := os.ReadDir(d.root)
	if err != nil {
		return fmt.Errorf("blockstore: reading %s: %w", d.root, err)
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var all []found
	for _, shard := range shards {
		name := shard.Name()
		if !shard.IsDir() || len(name) != 2 || strings.Trim(name, "0123456789abcdef") != "" {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(d.root, name))
		if err != nil {
			return fmt.Errorf("blockstore: reading shard %s: %w", name, err)
		}
		for _, e := range entries {
			key := e.Name()
			if !ValidKey(key) || key[:2] != name {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			all = append(all, found{key: key, size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].mtime.Equal(all[j].mtime) {
			return all[i].mtime.Before(all[j].mtime)
		}
		return all[i].key < all[j].key
	})
	for _, f := range all {
		d.blocks[f.key] = d.order.PushFront(&diskEntry{key: f.key, size: f.size})
		d.bytes += f.size
	}
	return nil
}

// Put atomically stores a block under key, replacing any existing one.
func (d *Disk) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.tmpDir(), key+".*")
	if err != nil {
		return fmt.Errorf("blockstore: staging %s: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("blockstore: writing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("blockstore: writing %s: %w", key, err)
	}
	if err := os.MkdirAll(filepath.Dir(d.blockPath(key)), 0o755); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("blockstore: creating shard for %s: %w", key, err)
	}

	// Commit outside the lock: the rename is atomic at the filesystem
	// level, and holding d.mu across disk I/O would stall every reader
	// behind one slow write. Concurrent Puts of the same key each commit
	// a complete block; the index update below is what orders them.
	if err := os.Rename(tmpName, d.blockPath(key)); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("blockstore: committing %s: %w", key, err)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.blocks[key]; ok {
		e := el.Value.(*diskEntry)
		d.bytes += int64(len(data)) - e.size
		e.size = int64(len(data))
		d.order.MoveToFront(el)
	} else {
		d.blocks[key] = d.order.PushFront(&diskEntry{key: key, size: int64(len(data))})
		d.bytes += int64(len(data))
	}
	d.puts++
	d.gcLocked()
	return nil
}

// Get returns the block stored under key, or ErrNotFound.
func (d *Disk) Get(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	d.mu.Lock()
	el, ok := d.blocks[key]
	if ok {
		d.order.MoveToFront(el)
	}
	d.mu.Unlock()
	if !ok {
		d.mu.Lock()
		d.misses++
		d.mu.Unlock()
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(d.blockPath(key))
	if err != nil {
		// The file vanished outside the store's control (manual cleanup,
		// external GC): drop the index entry and report a miss.
		d.mu.Lock()
		if el, ok := d.blocks[key]; ok {
			d.removeIndexLocked(el)
		}
		d.misses++
		d.mu.Unlock()
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("blockstore: reading %s: %w", key, err)
	}
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	return data, nil
}

// Has reports presence without touching counters or the GC order.
func (d *Disk) Has(key string) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.blocks[key]
	return ok, nil
}

// Stats snapshots the counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Blocks:    len(d.blocks),
		Bytes:     d.bytes,
		Hits:      d.hits,
		Misses:    d.misses,
		Puts:      d.puts,
		Evictions: d.evictions,
	}
}

// Durable is true: blocks survive the process and are reindexed by
// OpenDisk.
func (d *Disk) Durable() bool { return true }

// gcLocked collects least-recently-used blocks until the store fits
// MaxBytes. A block whose file cannot be removed stays indexed, and the
// sweep moves on to the next oldest. Callers hold d.mu.
func (d *Disk) gcLocked() {
	if d.maxBytes <= 0 {
		return
	}
	for el := d.order.Back(); el != nil && d.bytes > d.maxBytes; {
		prev := el.Prev()
		e := el.Value.(*diskEntry)
		//cprlint:lockheld eviction must unlink the file and drop its index entry atomically under d.mu; unlinking a local file is bounded work
		if err := os.Remove(d.blockPath(e.key)); err == nil || os.IsNotExist(err) {
			d.removeIndexLocked(el)
			d.evictions++
		}
		el = prev
	}
}

// removeIndexLocked unlinks one index entry; callers hold d.mu.
func (d *Disk) removeIndexLocked(el *list.Element) {
	e := el.Value.(*diskEntry)
	d.order.Remove(el)
	delete(d.blocks, e.key)
	d.bytes -= e.size
}
