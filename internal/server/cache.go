package server

import (
	"container/list"
	"sync"
)

// queryCache is a fixed-capacity LRU of marshaled search-response
// bodies, keyed by (snapshot generation, normalized query). Keying by
// generation is the whole invalidation story: a publish bumps the
// generation, so every request after it computes a different key and
// misses — no clearing, no coordination with the wrangler, and searches
// racing the publish still serve internally-consistent bodies cached
// under the generation they actually read. Entries for dead generations
// are never hit again and age out through normal LRU eviction.
type queryCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[queryKey]*list.Element
}

type cacheEntry struct {
	key  queryKey
	body []byte
}

// newQueryCache returns a cache holding up to capacity entries;
// capacity <= 0 disables caching (Get always misses, Put drops).
func newQueryCache(capacity int) *queryCache {
	c := &queryCache{cap: capacity}
	if capacity > 0 {
		c.ll = list.New()
		c.entries = make(map[queryKey]*list.Element, capacity)
	}
	return c
}

func (c *queryCache) enabled() bool { return c.cap > 0 }

// Get returns the cached body for the key, marking it most recently
// used. The body is shared: callers must not mutate it.
func (c *queryCache) Get(generation uint64, query string) ([]byte, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[queryKey{generation, query}]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores a body under the key, evicting the least recently used
// entry when full. The cache keeps the slice; callers must not mutate
// it afterwards.
func (c *queryCache) Put(generation uint64, query string, body []byte) {
	if !c.enabled() {
		return
	}
	key := queryKey{generation, query}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the current entry count.
func (c *queryCache) Len() int {
	if !c.enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
