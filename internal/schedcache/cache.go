package schedcache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/dag"
	"icsched/internal/sched"
)

// Entry is one cached analysis: the static IC order in canonical
// numbering, where it came from, and the eligibility (MaxE) profile it
// realizes.  The Shape is kept for the collision guard; Exact
// fingerprints the labeled dag the order was computed on.
type Entry struct {
	Shape      Shape
	Exact      uint64
	Order      []dag.NodeID // canonical numbering
	Profile    []int
	Provenance string
}

// Result is what a lookup hands back to the caller, translated into
// the submitted dag's own numbering.
type Result struct {
	Order      []dag.NodeID
	Profile    []int
	Provenance string
	Hash       uint64
	Hit        bool // served from the cache
	Exact      bool // the entry was computed on this exact labeled dag
}

// Stats are exact, monotonically increasing counters.
type Stats struct {
	Hits       uint64 // table hits
	Misses     uint64 // lookups that ran the compute function
	Shared     uint64 // always 0: a lookup behind another's compute waits on the lock and hits; bench still reads it
	Evictions  uint64 // entries dropped by the LRU bound
	Collisions uint64 // hash hits rejected by the isomorphism guard
	Analyses   uint64 // compute invocations (== Misses when none fail)
	ColdNanos  uint64 // cumulative wall time of miss lookups
	WarmNanos  uint64 // cumulative wall time of hit lookups
}

// Lookups is the total number of GetOrCompute calls accounted so far.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses + s.Collisions }

// Options configures a Cache.  Zero values pick the defaults.
type Options struct {
	Capacity int // entries (default 256)
}

// Cache is a bounded LRU keyed by canonical dag hash.  One mutex guards
// the table, and a miss runs its analysis under it, so concurrent
// lookups of one shape analyze once: the later ones wait on the lock
// and hit.  The counters are atomic, so Stats never waits behind an
// analysis.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]*list.Element // hash -> element holding *lruItem
	lru      list.List                // front = most recently used

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	collisions atomic.Uint64
	analyses   atomic.Uint64
	coldNanos  atomic.Uint64
	warmNanos  atomic.Uint64
}

type lruItem struct {
	hash  uint64
	entry *Entry
}

// New builds a cache.
func New(opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	return &Cache{capacity: opts.Capacity, entries: make(map[uint64]*list.Element)}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Collisions: c.collisions.Load(),
		Analyses:   c.analyses.Load(),
		ColdNanos:  c.coldNanos.Load(),
		WarmNanos:  c.warmNanos.Load(),
	}
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// GetOrCompute canonicalizes g and serves the cached analysis for its
// shape, running compute (which must return a complete legal schedule
// of g and a provenance tag) exactly once per shape under concurrent
// submission.  The class string partitions the key space so that
// different analysis kinds (e.g. family IC-optimal vs raw-dag
// heuristic) never share an entry.  Errors are not cached.
func (c *Cache) GetOrCompute(g *dag.Dag, class string, compute func() ([]dag.NodeID, string, error)) (Result, error) {
	start := time.Now()
	shape, perm := Canonicalize(g)
	h := fnvString(fnvMix(fnvOffset, shape.Hash()), class)
	return c.getOrCompute(start, g, shape, perm, h, compute)
}

// getOrCompute is the hash-explicit core, split out so tests can force
// hash collisions against the isomorphism guard.
func (c *Cache) getOrCompute(start time.Time, g *dag.Dag, shape Shape, perm []dag.NodeID, h uint64, compute func() ([]dag.NodeID, string, error)) (Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, resident := c.entries[h]
	if resident {
		if it := el.Value.(*lruItem); it.entry.Shape.Equal(shape) {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			res := c.translate(g, perm, h, it.entry)
			c.warmNanos.Add(uint64(time.Since(start)))
			return res, nil
		}
		// Same hash, different canonical edge set: a true FNV
		// collision.  Never serve it; analyze without caching so the
		// resident entry keeps its slot.
		c.collisions.Add(1)
	}
	entry, order, err := c.runCompute(g, shape, perm, compute)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Order:      order,
		Profile:    entry.Profile,
		Provenance: entry.Provenance,
		Hash:       h,
		Exact:      true,
	}
	if resident {
		return res, nil
	}
	c.entries[h] = c.lru.PushFront(&lruItem{hash: h, entry: entry})
	for c.lru.Len() > c.capacity {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*lruItem).hash)
		c.evictions.Add(1)
	}
	c.misses.Add(1)
	c.coldNanos.Add(uint64(time.Since(start)))
	return res, nil
}

func (c *Cache) runCompute(g *dag.Dag, shape Shape, perm []dag.NodeID, compute func() ([]dag.NodeID, string, error)) (*Entry, []dag.NodeID, error) {
	c.analyses.Add(1)
	order, prov, err := compute()
	if err != nil {
		return nil, nil, err
	}
	profile, err := sched.Profile(g, order)
	if err != nil {
		return nil, nil, fmt.Errorf("schedcache: computed order is not a legal schedule: %w", err)
	}
	canon := make([]dag.NodeID, len(order))
	for i, v := range order {
		canon[i] = perm[v]
	}
	return &Entry{
		Shape:      shape,
		Exact:      ExactHash(g),
		Order:      canon,
		Profile:    profile,
		Provenance: prov,
	}, order, nil
}

// translate maps an entry's canonical order into g's numbering:
// order_g[i] = inv[order_canon[i]] where inv inverts perm.  When the
// entry was computed on this very dag the round trip is the identity,
// which the Exact flag certifies via the labeled fingerprint.
func (c *Cache) translate(g *dag.Dag, perm []dag.NodeID, h uint64, e *Entry) Result {
	inv := make([]dag.NodeID, len(perm))
	for v, cid := range perm {
		inv[cid] = dag.NodeID(v)
	}
	order := make([]dag.NodeID, len(e.Order))
	for i, cv := range e.Order {
		order[i] = inv[cv]
	}
	return Result{
		Order:      order,
		Profile:    e.Profile,
		Provenance: e.Provenance,
		Hash:       h,
		Hit:        true,
		Exact:      e.Exact == ExactHash(g),
	}
}
