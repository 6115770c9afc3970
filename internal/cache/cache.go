// Package cache provides the buffer-cache machinery of the two server-side
// levels of the facility (§2.2, §5): the file service and the disk service
// each keep a cache so a request need not descend to the level below. (The
// client machine's cache is internal/ccache.)
//
// A Cache is an LRU map of keys to buffers — its capacity stands for the
// paper's fragment-pool or block-pool, sized by available memory — under
// delayed write: a dirty buffer reaches the layer below on eviction or an
// explicit flush. A caller that must write through (the file service, for
// transaction files) flushes the keys it wrote before it returns.
//
// Concurrency and ownership contract: a Cache is safe for concurrent use. A
// cache owns its buffers and callers own theirs; no slice is ever shared.
// Put copies the caller's bytes in and Get copies the whole buffer out;
// ReadRange, WriteRange and Patch move only the bytes asked for between the
// caller's slice and the cached buffer, in place under the cache mutex — the
// forms the hot paths use, one copy and no allocation. Fill, the miss path,
// has the layer below write straight into the buffer the cache will keep: the
// buffer is the filler's alone until Fill installs it.
//
// The one exception is the lending rule, which both WritebackFunc call sites
// (FlushKey and eviction) follow: the function is handed the buffer itself,
// the slice does not change while the function runs, and the function does
// not keep it after it returns — an evicted entry's buffer becomes the
// buffer of the entry that displaced it. A flush therefore moves
// no bytes inside the cache; the copy is paid by the rare write that lands on
// an entry while its writeback is in flight, which first gives the entry a
// fresh buffer (ownLocked). Writebacks run outside the cache mutex
// (per-entry in-flight flags keep writebacks of one key serialized, and a
// generation number detects redirtying during a flush).
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// WritebackFunc persists a dirty buffer to the layer below. data is lent (see
// the package comment): it is the cache's own buffer, it holds still for the
// length of the call, and the function must neither modify it nor keep it
// once it returns.
type WritebackFunc[K comparable] func(key K, data []byte) error

// Cache is an LRU buffer cache. It is safe for concurrent use and shares no
// slice with its callers beyond the loan to a running writeback (see the
// package comment), so they may freely reuse theirs.
//
// Writebacks happen outside the cache mutex wherever possible, so flushing
// one disk's buffers never blocks hits, misses, or flushes bound for another
// disk. A per-entry generation number detects a buffer redirtied while its
// writeback was in flight (the flush then leaves it dirty), and a per-entry
// in-flight flag keeps writebacks of the same key serialized.
type Cache[K comparable] struct {
	capacity  int
	writeback WritebackFunc[K]
	hits      *metrics.Counter // nil unless Config names the counter
	misses    *metrics.Counter

	mu      sync.Mutex
	cond    *sync.Cond // signaled when a writeback in flight completes
	seq     uint64     // generation source for dirty Puts
	entries map[K]*list.Element
	lru     *list.List // front = most recently used
	spare   [][]byte   // buffers Fill's evictions freed, for the next Fill
}

// maxSpare bounds the buffers a cache keeps beyond its entries: one per Fill
// in flight at once, which is one per concurrent miss.
const maxSpare = 4

type entry[K comparable] struct {
	key      K
	data     []byte
	dirty    bool
	gen      uint64 // generation of the last dirty Put
	flushing bool   // a writeback of this entry is in flight
	lent     bool   // that writeback holds data itself: do not write into it
}

// ownLocked makes e.data safe to write into: if the buffer is on loan to a
// writeback in flight, the entry takes a private copy and the writeback keeps
// the old one, unchanged, to the end of its call. Callers must hold c.mu.
func (e *entry[K]) ownLocked() {
	if e.lent {
		e.data = append([]byte(nil), e.data...)
		e.lent = false
	}
}

// Config configures a Cache.
type Config[K comparable] struct {
	// Capacity is the maximum number of cached buffers; must be positive.
	Capacity int
	// Writeback persists dirty buffers; required unless the cache only ever
	// holds clean data.
	Writeback WritebackFunc[K]
	// Metrics, HitCounter and MissCounter, when set, record hit/miss counts.
	Metrics     *metrics.Set
	HitCounter  string
	MissCounter string
}

// New creates a cache from cfg.
func New[K comparable](cfg Config[K]) (*Cache[K], error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("cache: invalid capacity %d", cfg.Capacity)
	}
	c := &Cache[K]{
		capacity:  cfg.Capacity,
		writeback: cfg.Writeback,
		entries:   make(map[K]*list.Element),
		lru:       list.New(),
	}
	if cfg.HitCounter != "" {
		c.hits = cfg.Metrics.Counter(cfg.HitCounter)
	}
	if cfg.MissCounter != "" {
		c.misses = cfg.Metrics.Counter(cfg.MissCounter)
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// lookupLocked finds key for a read: it counts the hit or miss and marks a
// found buffer most recently used. Callers must hold c.mu.
func (c *Cache[K]) lookupLocked(key K) (*entry[K], bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.lru.MoveToFront(el)
	return el.Value.(*entry[K]), true
}

// Get returns a copy of the buffer cached under key, marking it most
// recently used.
func (c *Cache[K]) Get(key K) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lookupLocked(key)
	if !ok {
		return nil, false
	}
	out := make([]byte, len(e.data))
	copy(out, e.data)
	return out, true
}

// ReadRange copies len(dst) bytes starting at byte off of the buffer cached
// under key into dst. It counts a hit or a miss and touches the LRU order
// exactly as Get does, but moves only the bytes asked for — a cache of large
// buffers (the disk service's tracks) serves a small request without copying
// the whole buffer. It reports whether key was cached.
func (c *Cache[K]) ReadRange(key K, off int, dst []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lookupLocked(key)
	if !ok {
		return false
	}
	copy(dst, e.data[off:off+len(dst)])
	return true
}

// Patch overwrites bytes [off, off+len(data)) of the clean buffer cached
// under key, in place and atomically with respect to every other operation
// on the cache, and reports whether it did. It is how a cache of clean
// images follows a write the layer below has already taken: concurrent
// patches of disjoint ranges of one buffer all land, which a Get, modify,
// Put sequence cannot promise. An absent or dirty buffer is left alone. A
// patched buffer becomes the most recently used, as a Put of it would make
// it; the hit/miss counters count reads only and are not affected. (A buffer
// on loan to a writeback is dirty until the writeback returns, so Patch never
// writes into one.)
func (c *Cache[K]) Patch(key K, off int, data []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	e := el.Value.(*entry[K])
	if e.dirty {
		return false
	}
	copy(e.data[off:off+len(data)], data)
	c.lru.MoveToFront(el)
	return true
}

// WriteRange overwrites bytes [off, off+len(data)) of the buffer cached under
// key in place and marks it dirty, as a Get, modify, dirty Put of the whole
// buffer would, without moving the rest of the buffer: it counts the hit or
// miss and touches the LRU order as that Get does, and takes a fresh
// generation as that Put does, so a write that lands while a FlushKey of key
// is in flight leaves the buffer dirty for the next flush. It reports whether
// key was cached; an absent buffer is the caller's to fetch and Put.
func (c *Cache[K]) WriteRange(key K, off int, data []byte) bool {
	c.mu.Lock()
	e, ok := c.lookupLocked(key)
	if ok {
		e.ownLocked()
		copy(e.data[off:off+len(data)], data)
		e.dirty = true
		c.seq++
		e.gen = c.seq
	}
	c.mu.Unlock()
	return ok
}

// Contains reports whether key is cached, without affecting LRU order or
// hit/miss counters.
func (c *Cache[K]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put caches a copy of data under key. A dirty buffer is written back on
// eviction or a flush. Put may evict the least recently used buffer, writing
// it back first if dirty; a failed eviction writeback fails the Put and keeps
// the victim.
func (c *Cache[K]) Put(key K, data []byte, dirty bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _, err := c.entryLocked(key)
	if err != nil {
		return err
	}
	e.ownLocked()
	e.data = append(e.data[:0], data...)
	if dirty {
		e.dirty = true
		c.seq++
		e.gen = c.seq
	}
	return nil
}

// Fill is install-by-fill, the miss path of a cache over a slower layer: the
// layer below writes straight into the buffer the cache keeps, so no transfer
// buffer is copied into an entry's. fill is handed one buffer of
// len(keys)*size bytes and writes bytes [i*size, (i+1)*size) of it for
// keys[i]. It runs outside the cache mutex, and the buffer is the caller's
// alone until fill returns: whatever the caller needs out of it, it copies
// out inside fill. Then every key whose bit is clear in skip is installed as
// Put would install it — most recently used, evicting the least recently used
// buffer when the cache is full — the clean ones first and then those whose
// bit is set in dirty, each in key order: a key patched inside fill ends up
// as recent as a write after the read would leave it. A key that is cached
// by then keeps its entry, which may be newer than what fill read; so a
// caller fills only keys it knows to be absent and skips those it does not.
// If fill fails nothing is installed; a failed eviction writeback stops the
// installs there. Fill counts no hit or miss (the lookup that found the keys
// absent did) and returns how many keys it installed. keys holds at most 64
// keys.
//
// One key fills a buffer an earlier Fill's eviction freed (the block pool of
// §5), so a steady stream of misses allocates nothing; more keys share one
// new buffer, a slice each.
func (c *Cache[K]) Fill(keys []K, size int, skip, dirty uint64, fill func(buf []byte) error) (int, error) {
	if len(keys) == 0 || len(keys) > 64 {
		return 0, fmt.Errorf("cache: fill of %d keys", len(keys))
	}
	var buf []byte
	if len(keys) == 1 {
		c.mu.Lock()
		if n := len(c.spare); n > 0 && cap(c.spare[n-1]) >= size {
			buf = c.spare[n-1][:size]
			c.spare[n-1] = nil
			c.spare = c.spare[:n-1]
		}
		c.mu.Unlock()
	}
	if buf == nil {
		buf = make([]byte, len(keys)*size)
	}
	if err := fill(buf); err != nil {
		if len(keys) == 1 {
			c.mu.Lock()
			c.spareLocked(buf)
			c.mu.Unlock()
		}
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	installed := 0
	for _, pass := range [2]uint64{^dirty, dirty} {
		for i, key := range keys {
			if skip&(1<<i) != 0 || pass&(1<<i) == 0 {
				continue
			}
			e, fresh, err := c.entryLocked(key)
			if err != nil {
				return installed, err
			}
			if !fresh {
				continue
			}
			c.spareLocked(e.data)
			e.data = buf[i*size : (i+1)*size : (i+1)*size]
			if dirty&(1<<i) != 0 {
				e.dirty = true
				c.seq++
				e.gen = c.seq
			}
			installed++
		}
	}
	if installed == 0 && len(keys) == 1 {
		c.spareLocked(buf)
	}
	return installed, nil
}

// spareLocked keeps buf, which nothing references, for the next Fill.
// Callers must hold c.mu.
func (c *Cache[K]) spareLocked(buf []byte) {
	if buf != nil && len(c.spare) < maxSpare {
		c.spare = append(c.spare, buf)
	}
}

// entryLocked returns key's entry as the most recently used: the cached one,
// or, fresh, a new clean one holding the buffer of the entry it evicted to
// make room (nil when there was room). A full cache hands the new entry its
// victim's entry, list element and buffer — the block-pool of §5: in steady
// state a miss moves bytes and allocates nothing. Eviction writes a dirty
// victim back first; a failed writeback fails the call and keeps the victim.
// Callers must hold c.mu.
func (c *Cache[K]) entryLocked(key K) (e *entry[K], fresh bool, err error) {
	for {
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			return el.Value.(*entry[K]), false, nil
		}
		if len(c.entries) < c.capacity {
			e = &entry[K]{key: key}
			c.entries[key] = c.lru.PushFront(e)
			return e, true, nil
		}
		el, err := c.evictLocked()
		if err != nil {
			return nil, false, err
		}
		if el == nil {
			continue // waited out a writeback: look again
		}
		e = el.Value.(*entry[K])
		*e = entry[K]{key: key, data: e.data}
		c.entries[key] = el
		c.lru.MoveToFront(el)
		return e, true, nil
	}
}

// evictLocked unmaps the least recently used entry whose writeback is not in
// flight, writing it back first if dirty, and returns its list element, still
// in the list, for the caller to re-key: nothing else references the entry or
// its buffer any more. When every entry has a writeback in flight it waits
// for one to finish and returns nil, and the caller looks again. Callers must
// hold c.mu.
func (c *Cache[K]) evictLocked() (*list.Element, error) {
	var victim *list.Element
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if !el.Value.(*entry[K]).flushing {
			victim = el
			break
		}
	}
	if victim == nil {
		c.cond.Wait()
		return nil, nil
	}
	e := victim.Value.(*entry[K])
	if e.dirty {
		if c.writeback == nil {
			return nil, errors.New("cache: evicting dirty buffer with no writeback")
		}
		if err := c.writeback(e.key, e.data); err != nil {
			return nil, fmt.Errorf("cache: eviction writeback: %w", err)
		}
	}
	delete(c.entries, e.key)
	return victim, nil
}

// Invalidate drops key from the cache, discarding any dirty data (used when
// the layer below changed underneath us, e.g. on transaction abort). It
// waits out any writeback of the key already in flight, so no stale write
// can land after the invalidation returns.
func (c *Cache[K]) Invalidate(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		el, ok := c.entries[key]
		if !ok {
			return
		}
		e := el.Value.(*entry[K])
		if !e.flushing {
			c.lru.Remove(el)
			delete(c.entries, key)
			return
		}
		c.cond.Wait()
	}
}

// InvalidateAll empties the cache, discarding dirty data. Like Invalidate it
// waits out in-flight writebacks first.
func (c *Cache[K]) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		inFlight := false
		for el := c.lru.Front(); el != nil; el = el.Next() {
			if el.Value.(*entry[K]).flushing {
				inFlight = true
				break
			}
		}
		if !inFlight {
			break
		}
		c.cond.Wait()
	}
	c.entries = make(map[K]*list.Element)
	c.lru.Init()
}

// DirtyKeys returns the keys of every dirty buffer, most recently used
// first. Callers use it to partition a flush by destination (e.g. one
// goroutine per disk) while preserving per-destination order.
func (c *Cache[K]) DirtyKeys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry[K]); e.dirty {
			keys = append(keys, e.key)
		}
	}
	return keys
}

// FlushKey writes back the buffer under key if it is dirty. The writeback
// runs outside the cache lock on the entry's own buffer, lent for the call; a
// write that redirties the key meanwhile lands in a fresh buffer (ownLocked)
// and leaves the entry dirty (detected by generation), and concurrent
// FlushKey calls for the same key serialize on the in-flight flag.
func (c *Cache[K]) FlushKey(key K) error {
	c.mu.Lock()
	var e *entry[K]
	for {
		el, ok := c.entries[key]
		if !ok {
			c.mu.Unlock()
			return nil
		}
		e = el.Value.(*entry[K])
		if !e.dirty {
			c.mu.Unlock()
			return nil
		}
		if !e.flushing {
			break
		}
		c.cond.Wait()
	}
	if c.writeback == nil {
		c.mu.Unlock()
		return errors.New("cache: flushing dirty buffer with no writeback")
	}
	data, gen := e.data, e.gen
	e.flushing, e.lent = true, true
	c.mu.Unlock()

	err := c.writeback(key, data)

	c.mu.Lock()
	if el, ok := c.entries[key]; ok && el.Value.(*entry[K]) == e {
		e.flushing, e.lent = false, false
		if err == nil && e.gen == gen {
			e.dirty = false
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cache: flush: %w", err)
	}
	return nil
}
