package core

import (
	"container/list"
	"strings"
	"sync"
)

// answerCache is a small LRU of fully-formed Answers keyed by normalized
// question. It makes repeated questions — the common shape of dashboard
// and batch traffic — O(1) instead of a full retrieve/plan/sample pass.
//
// Entries are invalidated wholesale on Ingest via purge. To close the
// window where an answer computed against the pre-ingest index is
// inserted after the purge, every fill carries the epoch observed under
// the Hybrid read lock; put drops the entry when the epoch has moved.
//
// Cached Answers share their Evidence slice and their executed run
// across callers; callers treat answers as read-only values, which
// every current caller does, and a run is never edited once executed.
type answerCache struct {
	mu       sync.Mutex
	capacity int
	epoch    uint64                   // guarded by mu
	order    *list.List               // guarded by mu; front = most recent
	entries  map[string]*list.Element // guarded by mu; key -> element whose Value is *cacheEntry
	hits     int64                    // guarded by mu
	misses   int64                    // guarded by mu
}

//lint:ignore unilint/epochkey cacheEntry is one LRU slot, not a cache; answerCache owns the epoch and drops all entries on bump
type cacheEntry struct {
	key string
	ans Answer
}

func newAnswerCache(capacity int) *answerCache {
	return &answerCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// get returns the cached answer for key, marking it most recently used.
func (c *answerCache) get(key string) (Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return Answer{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).ans, true
}

// snapshotEpoch returns the current invalidation epoch; callers read it
// under the Hybrid read lock so it cannot advance mid-read.
func (c *answerCache) snapshotEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// put inserts an answer computed at the given epoch, evicting the least
// recently used entry past capacity. Stale fills (epoch advanced by an
// ingest since the answer was computed) are dropped.
func (c *answerCache) put(key string, ans Answer, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).ans = ans
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, ans: ans})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// purge drops every entry and advances the epoch so in-flight fills
// against the old index are rejected.
func (c *answerCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.order.Init()
	c.entries = make(map[string]*list.Element, c.capacity)
}

// stats reports hit/miss counters and the current entry count.
func (c *answerCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}

// normalizeQuestion is the cache key: lower-cased, whitespace-collapsed,
// trailing punctuation stripped, so "What is X?" and "what is x" share
// an entry. A hit must answer what the question asked afresh would
// (TestAnswerCacheIsTransparent).
func normalizeQuestion(q string) string {
	q = strings.TrimRight(strings.TrimSpace(q), " \t?.!")
	return strings.Join(strings.Fields(strings.ToLower(q)), " ")
}
