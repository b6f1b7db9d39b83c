// Package relaxed implements a sharded, lock-free eligible-set scheduler
// core in the MultiQueue style of "Relaxed Schedulers Can Efficiently
// Parallelize Iterative Algorithms" (arXiv:1808.04155).
//
// The exact ELIGIBLE-prefix scheduler serializes every grant on one mutex
// and always pops the globally best-ranked eligible task (heur.RankPool:
// the same rank bitset as a shard here, without the atomics).  The relaxed
// core removes that serialization at a bounded, measurable cost in
// priority fidelity:
//
//   - The priority order (an IC-optimal schedule, or any fixed rank) is
//     frozen at construction.  Tasks are identified by their rank so each
//     shard is a plain bitset over ranks: push = atomic Or of one bit,
//     pop = find lowest set bit + CAS claim.  No allocation, no sorting,
//     no lock on either path.
//   - The rank space is split across S shards by a fixed task-id hash
//     (completion fan-out pushes newly eligible successors to the shard
//     their id hashes to).  A pop samples c=2 shards, peeks the best rank
//     of each, and CAS-claims the better — the classic MultiQueue grant.
//   - If the sampled shards look empty the pop falls back to a full scan
//     of every shard, so Pop fails only when the core is truly empty: no
//     task is ever stranded by sampling, only served out of exact order.
//
// With a single shard (S=1) sampling degenerates to "claim the lowest set
// bit of the only bitset", which is exactly the ELIGIBLE-prefix order —
// bit-identical to the locked scheduler (TestSingleShardIsExactOrder).
//
// Quality guarantee: a serial pop always returns the best-ranked task of
// some shard, so its global rank among the e currently-eligible tasks is
// at most e - (tasks sharing its shard) + 1 (TestShardMinInvariant).
//
// No server grants through this package any more: PR 23 removed the
// relaxed grant path (DESIGN.md §12, EXPERIMENTS.md E18), and the package
// stays only because bench/workloads.go probes it for the per-layer
// metric relaxed.push_pop_ns_per_task and a non-benchmark PR may not edit
// bench/; the next benchmark PR drops the probe and this package together.
package relaxed

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"icsched/internal/dag"
	"icsched/internal/heur"
)

// MaxShards bounds the shard count; beyond the point where every client
// owns a shard, more shards only dilute sampling quality.
const MaxShards = 256

// Core is a sharded eligible-set queue over a fixed priority order.
// All methods are safe for concurrent use without external locking.
type Core struct {
	n       int
	nshards int
	words   int          // bitset words per shard (covers the full rank space)
	rank    []int32      // node id -> priority rank
	node    []dag.NodeID // priority rank -> node id
	shard   []int32      // node id -> home shard
	bits    []uint64     // nshards*words, shard s at [s*words, (s+1)*words)
	ticket  atomic.Uint64
	seed    uint64
}

// New builds a core for g with the given priority order (earlier = better;
// heur.Ranks makes it total, exactly as the locked path does) split over
// max(1, shards) shards.  The seed only perturbs shard sampling, not
// shard assignment, so the realized set of grants is seed-independent.
func New(g *dag.Dag, order []dag.NodeID, shards int, seed int64) *Core {
	n := g.NumNodes()
	if shards < 1 {
		shards = 1
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	rank, node := heur.Ranks(n, order)
	c := &Core{
		n:       n,
		nshards: shards,
		words:   (n + 63) / 64,
		rank:    rank,
		node:    node,
		shard:   make([]int32, n),
		seed:    splitmix64(uint64(seed) + 0x9e3779b97f4a7c15),
	}
	for v := 0; v < n; v++ {
		c.shard[v] = int32(splitmix64(uint64(v)+1) % uint64(shards))
	}
	c.bits = make([]uint64, shards*c.words)
	return c
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed stateless hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Shards returns the shard count.
func (c *Core) Shards() int { return c.nshards }

// ShardOf returns the home shard of node v.
func (c *Core) ShardOf(v dag.NodeID) int { return int(c.shard[v]) }

// Rank returns the priority rank of node v (lower is better).
func (c *Core) Rank(v dag.NodeID) int { return int(c.rank[v]) }

// Push marks v available on its home shard.  Pushing a node that is
// already present is a no-op (the bit is already set), which makes requeue
// races idempotent by construction.
func (c *Core) Push(v dag.NodeID) {
	if int(v) < 0 || int(v) >= c.n {
		panic(fmt.Sprintf("relaxed: push of out-of-range node %d (n=%d)", v, c.n))
	}
	r := uint32(c.rank[v])
	w := int(c.shard[v])*c.words + int(r/64)
	mask := uint64(1) << (r % 64)
	for {
		old := atomic.LoadUint64(&c.bits[w])
		if old&mask != 0 || atomic.CompareAndSwapUint64(&c.bits[w], old, old|mask) {
			return
		}
	}
}

// PushAll pushes every node of vs.
func (c *Core) PushAll(vs []dag.NodeID) {
	for _, v := range vs {
		c.Push(v)
	}
}

// Contains reports whether v is currently available.
func (c *Core) Contains(v dag.NodeID) bool {
	r := uint32(c.rank[v])
	w := int(c.shard[v])*c.words + int(r/64)
	return atomic.LoadUint64(&c.bits[w])&(uint64(1)<<(r%64)) != 0
}

// Len counts the currently available tasks (a racy snapshot under
// concurrent use).
func (c *Core) Len() int {
	total := 0
	for i := range c.bits {
		total += bits.OnesCount64(atomic.LoadUint64(&c.bits[i]))
	}
	return total
}

// Empty reports whether no task is currently available (racy snapshot).
func (c *Core) Empty() bool {
	for i := range c.bits {
		if atomic.LoadUint64(&c.bits[i]) != 0 {
			return false
		}
	}
	return true
}

// peek returns the best (lowest) rank currently set on shard s, or -1.
func (c *Core) peek(s int) int32 {
	base := s * c.words
	for w := 0; w < c.words; w++ {
		if word := atomic.LoadUint64(&c.bits[base+w]); word != 0 {
			return int32(w*64 + bits.TrailingZeros64(word))
		}
	}
	return -1
}

// claim atomically clears rank r on shard s, reporting whether this call
// owned the transition.
func (c *Core) claim(s int, r int32) bool {
	w := s*c.words + int(r/64)
	mask := uint64(1) << (uint32(r) % 64)
	for {
		old := atomic.LoadUint64(&c.bits[w])
		if old&mask == 0 {
			return false // someone else claimed it
		}
		if atomic.CompareAndSwapUint64(&c.bits[w], old, old&^mask) {
			return true
		}
	}
}

// popShard claims the best-ranked task of shard s, if any.
func (c *Core) popShard(s int) (dag.NodeID, bool) {
	for {
		r := c.peek(s)
		if r < 0 {
			return 0, false
		}
		if c.claim(s, r) {
			return c.node[r], true
		}
	}
}

// PopShard claims the best-ranked task of shard s (the work-stealing
// primitive: a caller may drain a specific shard directly, bypassing
// sampling).
func (c *Core) PopShard(s int) (dag.NodeID, bool) {
	if s < 0 || s >= c.nshards {
		return 0, false
	}
	return c.popShard(s)
}

// Pop claims one task: sample two shards, claim the better-ranked peek;
// fall back to scanning every shard so Pop returns false only when the
// core held no task at some instant during the call.
func (c *Core) Pop() (dag.NodeID, bool) {
	if c.nshards == 1 {
		return c.popShard(0)
	}
	t := c.ticket.Add(1)
	h := splitmix64(c.seed + t)
	s1 := int(h % uint64(c.nshards))
	s2 := int((h >> 32) % uint64(c.nshards))
	const sampleTries = 4
	for try := 0; try < sampleTries; try++ {
		r1, r2 := c.peek(s1), c.peek(s2)
		s, r := s1, r1
		if r1 < 0 || (r2 >= 0 && r2 < r1) {
			s, r = s2, r2
		}
		if r < 0 {
			break // both sampled shards empty: go exact
		}
		if c.claim(s, r) {
			return c.node[r], true
		}
	}
	// Exact fallback: find the global best across all shards.  This keeps
	// the "no stranded work" guarantee — sampling can only reorder grants,
	// never lose them.
	for {
		bestS, bestR := -1, int32(-1)
		for s := 0; s < c.nshards; s++ {
			if r := c.peek(s); r >= 0 && (bestR < 0 || r < bestR) {
				bestS, bestR = s, r
			}
		}
		if bestR < 0 {
			return 0, false
		}
		if c.claim(bestS, bestR) {
			return c.node[bestR], true
		}
	}
}

// PopBatch appends up to k popped tasks to buf and returns it.
func (c *Core) PopBatch(buf []dag.NodeID, k int) []dag.NodeID {
	for i := 0; i < k; i++ {
		v, ok := c.Pop()
		if !ok {
			break
		}
		buf = append(buf, v)
	}
	return buf
}
