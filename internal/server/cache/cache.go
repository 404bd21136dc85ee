// Package cache provides a concurrency-safe LRU cache with hit/miss
// accounting. The query server uses it to memoise prepared query plans
// keyed by normalised SQL text, so repeated queries skip parsing, path-
// order search and f-plan optimisation; the engine uses it to memoise
// plan templates keyed by query shape.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache. The zero value is
// not usable; construct with New. All methods are safe for concurrent
// use.
type LRU struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List
	items  map[string]*list.Element
	hits   uint64
	misses uint64
}

type entry struct {
	key string
	val any
}

// New returns an empty cache holding at most capacity entries. A
// capacity below 1 is treated as 1.
func New(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the value cached under key, marking it most recently used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put caches val under key, evicting the least recently used entry when
// the cache is full. Putting an existing key updates its value and marks
// it most recently used.
func (c *LRU) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).val = val
		return
	}
	el := c.ll.PushFront(&entry{key: key, val: val})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
	}
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Size: c.ll.Len(), Capacity: c.cap}
}
