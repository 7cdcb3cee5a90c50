package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one discovery outcome: the exact relation instance
// (content fingerprint), the algorithm, and the canonical encoding of the
// result-affecting options. Knobs that provably cannot change the cover —
// worker counts, budgets, deadlines, partition caps, spill thresholds,
// and shard topology (all carry the byte-identical-output guarantee) —
// are deliberately excluded, so a result computed under any of them
// answers every equivalent query: a sharded discovery populates the
// entry a later single-node request hits, and vice versa.
type cacheKey struct {
	fingerprint string
	algorithm   string
	options     string
}

// resultCache is the LRU of completed (non-partial) discovery responses.
// Entries are indexed by dataset id as well, so an append invalidates
// exactly that dataset's entries and nothing else.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[cacheKey]*list.Element
	byDataset map[string]map[cacheKey]struct{}
	counts    CacheStats // Entries is filled in by stats
}

// cacheEntry is the list payload.
type cacheEntry struct {
	key       cacheKey
	datasetID string
	resp      *DiscoverResponse
}

func newResultCache(capEntries int) *resultCache {
	return &resultCache{
		cap:       capEntries,
		ll:        list.New(),
		items:     make(map[cacheKey]*list.Element),
		byDataset: make(map[string]map[cacheKey]struct{}),
	}
}

// get returns the cached response for k, bumping recency and the hit or
// miss counter. The returned response is shared — callers must copy
// before mutating.
func (c *resultCache) get(k cacheKey) (*DiscoverResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.counts.Misses++
		return nil, false
	}
	c.counts.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// put stores a completed response, evicting the least recently used
// entries over capacity.
func (c *resultCache) put(datasetID string, k cacheKey, resp *DiscoverResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: k, datasetID: datasetID, resp: resp})
	c.items[k] = el
	keys := c.byDataset[datasetID]
	if keys == nil {
		keys = make(map[cacheKey]struct{})
		c.byDataset[datasetID] = keys
	}
	keys[k] = struct{}{}
	for c.cap > 0 && c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.counts.Evictions++
	}
}

// invalidateDataset drops every entry belonging to the dataset (all
// fingerprints — stale pre-append fingerprints can never be queried again
// through the registry, so keeping them would only pin dead memory).
func (c *resultCache) invalidateDataset(datasetID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byDataset[datasetID]
	n := 0
	for k := range keys {
		if el, ok := c.items[k]; ok {
			c.removeLocked(el)
			n++
		}
	}
	c.counts.Invalidations += int64(n)
	return n
}

func (c *resultCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if keys := c.byDataset[e.datasetID]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byDataset, e.datasetID)
		}
	}
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.counts
	st.Entries = c.ll.Len()
	return st
}
