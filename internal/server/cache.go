package server

import (
	"container/list"
	"sync"

	"flexflow"
)

// lruCache is a map bounded by entry count with least-recently-used
// eviction. The server keeps two, both bounded by Options.CacheSize:
// the strategy cache (fingerprint -> finished optimize response) and,
// in front of it, the digest index (request-body digest ->
// fingerprint). Entries are small (a strategy JSON, its encoded
// response and counters, or a fingerprint), so a count bound is an
// adequate proxy for memory. Only complete, deterministic results
// enter the strategy cache (see Server.run), which is what entitles a
// hit to stand in for a re-run.
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

// lruEntry is one cache slot.
type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRUCache builds a cache bounded to max entries (max >= 1).
func newLRUCache[K comparable, V any](max int) *lruCache[K, V] {
	return &lruCache[K, V]{max: max, ll: list.New(), items: map[K]*list.Element{}}
}

// get returns the value cached under key and marks it recently used.
func (c *lruCache[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores val under key, evicting the least recently used entry
// beyond the bound.
func (c *lruCache[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// len reports the current entry count.
func (c *lruCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheEntry is one strategy-cache value: a finished search's response
// marked cached, and the plain-JSON body a hit answers with. The body
// is encoded on the first plain-JSON hit, by the encoder writeJSON
// uses, so it is byte for byte what writeJSON would write for resp; a
// search that is never repeated never pays for it, and neither does the
// request that ran the search.
type cacheEntry struct {
	resp optimizeResponse
	once sync.Once
	body []byte
}

// newCacheEntry builds the cache entry for a complete search's response.
func newCacheEntry(resp optimizeResponse) *cacheEntry {
	resp.Cached = true
	return &cacheEntry{resp: resp}
}

// encoded returns the entry's plain-JSON body, encoding it on first use.
func (e *cacheEntry) encoded() []byte {
	e.once.Do(func() { e.body = encodeJSON(e.resp) })
	return e.body
}

// digestEntry is one digest-index value: the fingerprint a request body
// decoded to, and the cost profile installed when it did. A budgeted
// request's fingerprint hashes the installed profile, so a lookup made
// under any other profile is a miss.
type digestEntry struct {
	fp      string
	profile *flexflow.CostProfile
}
