// Package keycache provides the byte-bounded LRU cache of MLE keys the
// REED client keeps in memory (Section V-B, "Caching").
//
// MLE key generation is expensive: every key costs an RSA exponentiation
// at the key manager. Adjacent uploads (e.g. daily backups) share most of
// their chunks, so the client caches recently generated keys, keyed by
// chunk fingerprint, and only contacts the key manager for misses. The
// default capacity is 512 MB of accounted memory.
//
// Beside a key the cache can hold what encrypting the chunk under that
// key produced: the fingerprint of the trimmed package and the stub
// (PutResult / Result). Encryption is deterministic in the chunk, the
// key, the scheme and the stub size, all fixed for one client, so a
// chunk seen again needs no second CAONT pass to learn the name the
// cloud stores it under. A result lives and dies with its key: it is
// refused without one, dropped when the key changes, and wiped with it.
// A key alone accounts 128 bytes and a key with its result 224, so the
// default capacity holds about 4.2 M keys or about 2.4 M with results
// (DESIGN.md §6; the exposure argument is §11).
//
// The cache is safe for concurrent use.
package keycache

import (
	"container/list"
	"crypto/subtle"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/fingerprint"
)

// DefaultCapacity is the paper's default cache size: 512 MB.
const DefaultCapacity = 512 << 20

// entryOverhead approximates the bookkeeping bytes per entry (map bucket
// share, list element, headers) on top of the fingerprint and key.
const entryOverhead = 64

// Cache is a byte-bounded LRU mapping chunk fingerprints to MLE keys.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recently used
	entries  map[fingerprint.Fingerprint]*list.Element

	hits   uint64
	misses uint64
}

type entry struct {
	fp  fingerprint.Fingerprint
	key []byte
	// fpTrim and stub are the chunk's encryption result under key; stub
	// is nil until PutResult stores one.
	fpTrim fingerprint.Fingerprint
	stub   []byte
}

// New returns a cache bounded to capacity bytes. Capacity must be
// positive.
func New(capacity int64) (*Cache, error) {
	if capacity <= 0 {
		return nil, errors.New("keycache: capacity must be positive")
	}
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[fingerprint.Fingerprint]*list.Element),
	}, nil
}

// Get returns a copy of the cached key for fp, marking it most recently
// used. Returning a copy (rather than the interior slice) lets eviction
// zeroize cache buffers without yanking key material out from under a
// caller that is still encrypting with it.
func (c *Cache) Get(fp fingerprint.Fingerprint) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e, _ := el.Value.(*entry)
	return append([]byte(nil), e.key...), true
}

// Put inserts or refreshes the key for fp, evicting least recently used
// entries as needed. The key is copied. A cached result survives only a
// refresh with the same key: it was computed under the old one.
func (c *Cache) Put(fp fingerprint.Fingerprint, key []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		e, _ := el.Value.(*entry)
		c.used -= c.cost(e)
		if subtle.ConstantTimeCompare(e.key, key) != 1 {
			core.Wipe(e.stub) // stub of a replaced MLE key
			e.stub = nil
		}
		e.key = append(e.key[:0], key...)
		c.used += c.cost(e)
		c.order.MoveToFront(el)
		c.evictLocked()
		return
	}
	e := &entry{fp: fp, key: append([]byte(nil), key...)}
	c.entries[fp] = c.order.PushFront(e)
	c.used += c.cost(e)
	c.evictLocked()
}

// PutResult records, beside the key cached for fp, what encrypting the
// chunk under that key produced: the trimmed package's fingerprint and
// the stub (copied). It reports false, storing nothing, when no key is
// cached for fp — a result never exists without the key it was computed
// under. Recency is left alone: the Get that fetched the key set it.
func (c *Cache) PutResult(fp, fpTrim fingerprint.Fingerprint, stub []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return false
	}
	e, _ := el.Value.(*entry)
	c.used -= c.cost(e)
	e.fpTrim = fpTrim
	e.stub = append(e.stub[:0], stub...)
	c.used += c.cost(e)
	c.evictLocked()
	return true
}

// Result returns the encryption result cached for fp, the stub as a copy
// like Get's key. It is a second look at an entry Get already counted
// and promoted, so it moves neither the hit/miss counters nor the LRU
// order.
func (c *Cache) Result(fp fingerprint.Fingerprint) (fpTrim fingerprint.Fingerprint, stub []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.entries[fp]; found {
		if e, _ := el.Value.(*entry); e.stub != nil {
			return e.fpTrim, append([]byte(nil), e.stub...), true
		}
	}
	return fingerprint.Fingerprint{}, nil, false
}

// cost returns the accounted size of an entry.
func (c *Cache) cost(e *entry) int64 {
	n := len(e.fp) + len(e.key) + entryOverhead
	if e.stub != nil {
		n += len(e.fpTrim) + len(e.stub)
	}
	return int64(n)
}

// evictLocked drops LRU entries until the cache fits its capacity.
// Evicted keys and stubs are zeroized: the cache owns its buffers (Put
// and PutResult copy), so dropped key material must not linger in freed
// heap memory.
func (c *Cache) evictLocked() {
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil {
			return
		}
		e, _ := back.Value.(*entry)
		c.order.Remove(back)
		delete(c.entries, e.fp)
		c.used -= c.cost(e)
		core.Wipe(e.key)  // evicted MLE key
		core.Wipe(e.stub) // and the stub computed under it
	}
}

// Len returns the number of cached keys.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Used returns the accounted bytes in use.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Clear empties the cache, zeroizing every cached key and stub. REED's
// trace experiments clear the cache between users so users do not share
// key locality.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		e, _ := el.Value.(*entry)
		core.Wipe(e.key)  // dropped MLE key
		core.Wipe(e.stub) // and the stub computed under it
	}
	c.order.Init()
	c.entries = make(map[fingerprint.Fingerprint]*list.Element)
	c.used = 0
}

// Stats reports cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
