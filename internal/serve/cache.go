package serve

import (
	"container/list"
	"sync"

	"github.com/halk-kg/halk/internal/obs"
)

// answerCache is a mutex-protected LRU over ranked answer lists, keyed
// by the canonical query key plus the request parameter that changes the
// answer (k). Hit/miss/eviction counters live on the obs registry
// (halk_cache_*), so /v1/stats and /metrics report the same numbers.
type answerCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element whose Value is *cacheEntry

	hits, misses, evictions *obs.Counter
}

type cacheEntry struct {
	key     string
	answers []Answer
}

// newAnswerCache returns a cache holding up to max entries; max <= 0
// disables caching (every Get misses, Put is a no-op). Its counters and
// size gauge register on reg.
func newAnswerCache(max int, reg *obs.Registry) *answerCache {
	c := &answerCache{
		max:       max,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter("halk_cache_hits_total", "Answer-cache hits."),
		misses:    reg.Counter("halk_cache_misses_total", "Answer-cache misses."),
		evictions: reg.Counter("halk_cache_evictions_total", "Answer-cache LRU evictions."),
	}
	reg.GaugeFunc("halk_cache_size", "Answer-cache entries currently held.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.ll.Len())
	})
	reg.Gauge("halk_cache_capacity", "Answer-cache capacity in entries.").Set(float64(max))
	return c
}

// Get returns the cached answers for key, marking the entry most
// recently used.
func (c *answerCache) Get(key string) ([]Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).answers, true
}

// Put stores answers under key, evicting the least recently used entry
// if the cache is full.
func (c *answerCache) Put(key string, answers []Answer) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).answers = answers
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, answers: answers})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// Flush drops every entry (e.g. after an entity-table update made cached
// answers stale); the counters are preserved.
func (c *answerCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

// cacheStats is the /v1/stats view of the cache.
type cacheStats struct {
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

func (c *answerCache) stats() cacheStats {
	c.mu.Lock()
	size := c.ll.Len()
	c.mu.Unlock()
	s := cacheStats{
		Size:      size,
		Capacity:  c.max,
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
