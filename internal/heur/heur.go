// Package heur implements the dag-scheduling policies that the
// IC-Scheduling papers' assessment studies compare against ([15], [19]):
// the FIFO heuristic used by Condor's DAGMan, LIFO, RANDOM, greedy
// max-out-degree, min-/max-depth, greedy max-new-eligible — and the
// Static policy that replays a precomputed (e.g. IC-optimal) schedule.
//
// A Policy is consulted online: the server Offers nodes as they become
// ELIGIBLE and asks for the Next node to allocate.  This is exactly the
// interface a work server needs, and it lets the same policies drive both
// eligibility-profile comparisons (RunOrder) and the discrete-event IC
// simulator (package icsim).
package heur

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"icsched/internal/dag"
	"icsched/internal/sched"
)

// Policy creates per-run scheduler instances.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Start returns a fresh instance for one execution of g.
	Start(g *dag.Dag) Instance
}

// Instance is the online state of a policy during one dag execution.
type Instance interface {
	// Offer makes nodes available for allocation (they just became
	// ELIGIBLE).  Each node is offered exactly once.  The instance must
	// not retain the slice: callers reuse it for the next packet.
	Offer(nodes []dag.NodeID)
	// Next returns the next node to allocate and removes it from the
	// available pool; ok is false when no offered node remains.
	Next() (v dag.NodeID, ok bool)
}

// RunOrder executes g to completion under the policy with immediate
// execution (the event-driven quality model of §2.2: one node per step),
// returning the complete schedule it induces.
func RunOrder(g *dag.Dag, p Policy) ([]dag.NodeID, error) {
	inst := p.Start(g)
	st := sched.NewState(g)
	inst.Offer(st.Eligible())
	order := make([]dag.NodeID, 0, g.NumNodes())
	var packet []dag.NodeID
	for !st.Done() {
		v, ok := inst.Next()
		if !ok {
			return nil, fmt.Errorf("heur: policy %s stalled with %d nodes left", p.Name(), g.NumNodes()-st.NumExecuted())
		}
		var err error
		if packet, err = st.ExecuteInto(v, packet[:0]); err != nil {
			return nil, fmt.Errorf("heur: policy %s picked %d: %w", p.Name(), v, err)
		}
		inst.Offer(packet)
		order = append(order, v)
	}
	return order, nil
}

// FIFO allocates ELIGIBLE nodes in the order they became eligible — the
// DAGMan-style heuristic of [19].
func FIFO() Policy { return fifoPolicy{} }

type fifoPolicy struct{}

func (fifoPolicy) Name() string            { return "FIFO" }
func (fifoPolicy) Start(*dag.Dag) Instance { return &fifoInstance{} }

type fifoInstance struct{ queue []dag.NodeID }

func (f *fifoInstance) Offer(nodes []dag.NodeID) { f.queue = append(f.queue, nodes...) }

func (f *fifoInstance) Next() (dag.NodeID, bool) {
	if len(f.queue) == 0 {
		return 0, false
	}
	v := f.queue[0]
	f.queue = f.queue[1:]
	return v, true
}

// LIFO allocates the most recently eligible node first.
func LIFO() Policy { return lifoPolicy{} }

type lifoPolicy struct{}

func (lifoPolicy) Name() string            { return "LIFO" }
func (lifoPolicy) Start(*dag.Dag) Instance { return &lifoInstance{} }

type lifoInstance struct{ stack []dag.NodeID }

func (l *lifoInstance) Offer(nodes []dag.NodeID) { l.stack = append(l.stack, nodes...) }

func (l *lifoInstance) Next() (dag.NodeID, bool) {
	if len(l.stack) == 0 {
		return 0, false
	}
	v := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	return v, true
}

// Random allocates a uniformly random available node, seeded per Start for
// reproducibility.
func Random(seed int64) Policy { return randomPolicy{seed: seed} }

type randomPolicy struct{ seed int64 }

func (randomPolicy) Name() string { return "RANDOM" }

func (p randomPolicy) Start(*dag.Dag) Instance {
	return &randomInstance{rng: rand.New(rand.NewSource(p.seed))}
}

type randomInstance struct {
	rng  *rand.Rand
	pool []dag.NodeID
}

func (r *randomInstance) Offer(nodes []dag.NodeID) { r.pool = append(r.pool, nodes...) }

func (r *randomInstance) Next() (dag.NodeID, bool) {
	if len(r.pool) == 0 {
		return 0, false
	}
	i := r.rng.Intn(len(r.pool))
	v := r.pool[i]
	r.pool[i] = r.pool[len(r.pool)-1]
	r.pool = r.pool[:len(r.pool)-1]
	return v, true
}

// MaxOutDegree greedily allocates the available node with the most
// children (ties by smaller ID) — a natural "enable the most" heuristic.
func MaxOutDegree() Policy { return maxOutPolicy{} }

type maxOutPolicy struct{}

func (maxOutPolicy) Name() string { return "MAX-OUTDEGREE" }

func (maxOutPolicy) Start(g *dag.Dag) Instance {
	return scoredPool(g, func(v dag.NodeID) int { return -g.OutDegree(v) })
}

// MinDepth allocates the shallowest available node first (breadth-first
// flavor).
func MinDepth() Policy { return depthPolicy{deepestFirst: false} }

// MaxDepth allocates the deepest available node first (critical-path
// flavor).
func MaxDepth() Policy { return depthPolicy{deepestFirst: true} }

type depthPolicy struct{ deepestFirst bool }

func (p depthPolicy) Name() string {
	if p.deepestFirst {
		return "MAX-DEPTH"
	}
	return "MIN-DEPTH"
}

func (p depthPolicy) Start(g *dag.Dag) Instance {
	depth := g.Depths()
	if p.deepestFirst {
		return scoredPool(g, func(v dag.NodeID) int { return -depth[v] })
	}
	return scoredPool(g, func(v dag.NodeID) int { return depth[v] })
}

// MaxHeight allocates the available node with the longest remaining path
// to a sink first — list scheduling by static bottom level (HLFET), the
// classic critical-path heuristic from the multiprocessor-scheduling
// literature, included to contrast makespan-oriented priorities with the
// eligibility-oriented IC objective.
func MaxHeight() Policy { return heightPolicy{} }

type heightPolicy struct{}

func (heightPolicy) Name() string { return "MAX-HEIGHT" }

func (heightPolicy) Start(g *dag.Dag) Instance {
	height := g.Heights()
	return scoredPool(g, func(v dag.NodeID) int { return -height[v] })
}

// MaxNewEligible greedily allocates the node whose execution would render
// the most children newly ELIGIBLE right now, ties by smaller ID.  This
// is the strongest single-step lookahead heuristic of the comparison set
// (the one in Standard).
func MaxNewEligible() Policy { return MaxNewEligibleBy(TieByID) }

// TieBreak names how MAX-NEW-ELIGIBLE orders nodes of equal score.
type TieBreak string

const (
	// TieByID allocates the smaller node ID first: on a grid numbered
	// row by row the run walks rows.
	TieByID TieBreak = "id"
	// TieByOffer allocates the node offered earliest first: on a grid the
	// run walks anti-diagonals, the IC-optimal wavefront.
	TieByOffer TieBreak = "offer"
)

// MaxNewEligibleBy is MAX-NEW-ELIGIBLE under the given tie-break; any
// value other than TieByOffer breaks ties by ID.
func MaxNewEligibleBy(tie TieBreak) Policy { return maxNewPolicy{byOffer: tie == TieByOffer} }

type maxNewPolicy struct{ byOffer bool }

func (p maxNewPolicy) Name() string {
	if p.byOffer {
		return "MAX-NEW-ELIGIBLE/OFFER"
	}
	return "MAX-NEW-ELIGIBLE"
}

// Start counts every node's parents and credits each single-parent
// child to its parent's score: O(n + m).
func (p maxNewPolicy) Start(g *dag.Dag) Instance {
	n := g.NumNodes()
	m := &maxNewInstance{g: g, byOffer: p.byOffer,
		remaining: make([]int32, n), score: make([]int32, n),
		key: make([]int32, n), state: make([]uint8, n), heap: make([]maxNewEntry, 0, n)}
	for v := range m.remaining {
		parents := g.Parents(dag.NodeID(v))
		m.remaining[v] = int32(len(parents))
		if len(parents) == 1 {
			m.score[parents[0]]++
		}
	}
	return m
}

// maxNewInstance keeps every score incrementally.  score(u) counts u's
// children whose only unexecuted parent is u, and it only ever rises: by
// one for c's last unexecuted parent when remaining(c) drops to 1 (found
// once per c, in O(indeg c)), and an executed node leaves the pool.  The
// pool is a max-heap on (score, -key) with lazy deletion: a rise pushes
// a fresh entry, and an entry whose score is no longer its node's is
// skipped when it surfaces.  A run costs O((n + m) log n).
type maxNewInstance struct {
	g         *dag.Dag
	byOffer   bool
	remaining []int32 // unexecuted parents per node, maintained on Next
	score     []int32
	key       []int32 // tie key of an offered node: its ID or offer sequence
	state     []uint8 // maxNewUnoffered, maxNewPooled or maxNewTaken
	offers    int32
	heap      []maxNewEntry
}

const (
	maxNewUnoffered = iota
	maxNewPooled
	maxNewTaken
)

type maxNewEntry struct{ score, key, v int32 }

// before orders the heap: higher score first, then the smaller tie key.
func (a maxNewEntry) before(b maxNewEntry) bool {
	return a.score > b.score || (a.score == b.score && a.key < b.key)
}

func (m *maxNewInstance) Offer(nodes []dag.NodeID) {
	for _, v := range nodes {
		m.state[v] = maxNewPooled
		if m.byOffer {
			m.key[v] = m.offers
			m.offers++
		} else {
			m.key[v] = v
		}
		m.push(v)
	}
}

func (m *maxNewInstance) Next() (dag.NodeID, bool) {
	for len(m.heap) > 0 {
		e := m.pop()
		if m.state[e.v] != maxNewPooled || e.score != m.score[e.v] {
			continue // taken already, or superseded by a higher score
		}
		m.state[e.v] = maxNewTaken
		for _, c := range m.g.Children(e.v) {
			if m.remaining[c]--; m.remaining[c] == 1 {
				m.raiseLastParent(c)
			}
		}
		return e.v, true
	}
	return 0, false
}

// raiseLastParent credits c to its one parent not yet taken.
func (m *maxNewInstance) raiseLastParent(c dag.NodeID) {
	for _, p := range m.g.Parents(c) {
		if m.state[p] != maxNewTaken {
			m.score[p]++
			if m.state[p] == maxNewPooled {
				m.push(p)
			}
			return
		}
	}
}

func (m *maxNewInstance) push(v dag.NodeID) {
	m.heap = append(m.heap, maxNewEntry{m.score[v], m.key[v], v})
	h := m.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (m *maxNewInstance) pop() maxNewEntry {
	h := m.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		best, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].before(h[best]) {
			best = l
		}
		if r < len(h) && h[r].before(h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	m.heap = h
	return top
}

// BestMaxNewEligible is the raw-dag analyzer: it runs MAX-NEW-ELIGIBLE
// under both tie-breaks and keeps the offer-order run only when its
// eligibility profile dominates the ID order's (at least as many
// ELIGIBLE nodes at every step, more at one) or, when neither profile
// dominates, when its area is larger.  A dominating profile has the
// larger area, so the rule is one comparison of areas; a tie keeps the
// ID order, MaxNewEligible's own.
func BestMaxNewEligible(g *dag.Dag) ([]dag.NodeID, TieBreak, error) {
	byID, idArea, err := areaRun(g, TieByID)
	if err != nil {
		return nil, "", err
	}
	byOffer, offerArea, err := areaRun(g, TieByOffer)
	if err != nil {
		return nil, "", err
	}
	if offerArea > idArea {
		return byOffer, TieByOffer, nil
	}
	return byID, TieByID, nil
}

// areaRun runs MAX-NEW-ELIGIBLE under tie and sums its eligibility
// profile.
func areaRun(g *dag.Dag, tie TieBreak) ([]dag.NodeID, int, error) {
	order, err := RunOrder(g, MaxNewEligibleBy(tie))
	if err != nil {
		return nil, 0, err
	}
	prof, err := sched.Profile(g, order)
	area := 0
	for _, e := range prof {
		area += e
	}
	return order, area, err
}

// scoredPool is the instance of a policy whose priority is a fixed score
// per node (smaller first, ties by smaller ID): a total order known
// before the run starts, so the nodes are sorted once, here, and the run
// itself is a RankPool.
func scoredPool(g *dag.Dag, score func(dag.NodeID) int) Instance {
	order := make([]dag.NodeID, g.NumNodes())
	for i := range order {
		order[i] = dag.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := score(order[i]), score(order[j])
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})
	return NewRankPool(len(order), order)
}

// Static replays a fixed schedule: Next returns the earliest not-yet-
// allocated node of the order that has been offered.  With an IC-optimal
// order this is the theory's scheduler.
func Static(name string, order []dag.NodeID) Policy {
	return staticPolicy{name: name, order: order}
}

// Ordered is implemented by policies whose entire allocation priority is
// a fixed schedule known before the run starts (Static).  Recovery of a
// cursor-journaled server type-asserts for it: a cursor record names a
// prefix of this order, so the journal folds against it.
type Ordered interface {
	// Order returns the fixed allocation order (earlier = higher priority).
	// The returned slice must not be mutated.
	Order() []dag.NodeID
}

type staticPolicy struct {
	name  string
	order []dag.NodeID
}

func (p staticPolicy) Order() []dag.NodeID { return p.order }

func (p staticPolicy) Name() string { return p.name }

func (p staticPolicy) Start(g *dag.Dag) Instance { return NewRankPool(g.NumNodes(), p.order) }

// Ranks builds the rank tables of a fixed priority order over the nodes
// 0..n-1: rank[v] is v's priority (lower is allocated earlier) and byRank
// is its inverse.  The first occurrence of a node wins, out-of-range
// entries are ignored, and nodes the order does not list rank after every
// listed one, by ID — so any order, complete or not, yields one total
// priority, the same for every grant core built from it.
func Ranks(n int, order []dag.NodeID) (rank []int32, byRank []dag.NodeID) {
	rank = make([]int32, n)
	byRank = make([]dag.NodeID, 0, n)
	for v := range rank {
		rank[v] = -1
	}
	for _, v := range order {
		if int(v) < 0 || int(v) >= n || rank[v] >= 0 {
			continue
		}
		rank[v] = int32(len(byRank))
		byRank = append(byRank, v)
	}
	for v := range rank {
		if rank[v] < 0 {
			rank[v] = int32(len(byRank))
			byRank = append(byRank, dag.NodeID(v))
		}
	}
	return rank, byRank
}

// RankPool is the instance of every policy whose priority is a fixed
// total order: the offered-and-unallocated set as a bitset over ranks.
// Offer sets one bit per node and Next clears the lowest set bit, so the
// cost of a grant does not depend on how many nodes are waiting.
type RankPool struct {
	rank   []int32
	byRank []dag.NodeID
	ready  []uint64 // bit r set: byRank[r] is offered and not yet allocated
	low    int      // ready[:low] holds no set bit
}

// NewRankPool returns an empty pool over the nodes 0..n-1 prioritized by
// order (see Ranks).
func NewRankPool(n int, order []dag.NodeID) *RankPool {
	rank, byRank := Ranks(n, order)
	return &RankPool{rank: rank, byRank: byRank, ready: make([]uint64, (n+63)/64)}
}

// Offer marks the nodes available: O(len(nodes)), whatever the pool holds.
func (p *RankPool) Offer(nodes []dag.NodeID) {
	for _, v := range nodes {
		r := uint(p.rank[v])
		w := int(r >> 6)
		p.ready[w] |= 1 << (r & 63)
		if w < p.low {
			p.low = w
		}
	}
}

// Peek returns the best (lowest) rank currently offered.  The low-water
// hint only moves back when Offer sets a bit below it, so a run that
// offers in roughly rank order scans each word once.
func (p *RankPool) Peek() (rank int, ok bool) {
	for ; p.low < len(p.ready); p.low++ {
		if word := p.ready[p.low]; word != 0 {
			return p.low<<6 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// Next allocates the best-ranked offered node.
func (p *RankPool) Next() (dag.NodeID, bool) {
	r, ok := p.Peek()
	if !ok {
		return 0, false
	}
	p.ready[r>>6] &^= 1 << (uint(r) & 63)
	return p.byRank[r], true
}

// Standard returns the comparison suite used throughout the experiments:
// FIFO, LIFO, RANDOM, MAX-OUTDEGREE, MIN-DEPTH, MAX-DEPTH, MAX-HEIGHT,
// MAX-NEW-ELIGIBLE.
func Standard(seed int64) []Policy {
	return []Policy{
		FIFO(), LIFO(), Random(seed), MaxOutDegree(), MinDepth(), MaxDepth(),
		MaxHeight(), MaxNewEligible(),
	}
}
