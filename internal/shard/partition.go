// Package shard cuts a computation-dag into K components and states,
// as an executable property, when the pieces may run apart.
//
// The legality argument is the paper's ⇑-composition machinery
// (Theorem 2.1): when every cross-shard arc points from a lower shard
// index to a higher one, any interleaving of the per-shard schedules
// in which a task waits for its cross-shard parents realizes a
// topological order of the whole dag, and driving each shard by the
// restriction of a global IC-optimal schedule recombines into exactly
// that schedule — the realized eligibility profile is bit-identical to
// the single-server run.  Recombine (recombine.go) checks this with one
// sched.State per shard: no server, no journal, no goroutine.
//
// Every partitioner here guarantees that forward-only property by
// construction and build() re-verifies it on the actual arc set.
package shard

import (
	"fmt"
	"sort"

	"icsched/internal/compose"
	"icsched/internal/dag"
)

// MaxShards bounds the shard count accepted by the partitioners — far
// above any sensible cut, it only guards against absurd requests.
const MaxShards = 64

// CrossArc is one dag arc whose endpoints live on different shards
// (global node IDs).  The partitioners guarantee the shard of From is
// strictly lower than the shard of To.
type CrossArc struct {
	From dag.NodeID
	To   dag.NodeID
}

// Partition is a cut of one dag into K shard-local dags plus the
// cross-shard arc set.  Build one with ByBlocks (composition-guided),
// ByOrder (schedule-guided), or ByLevels (depth-banded fallback).
type Partition struct {
	// Method names the partitioner that produced this cut.
	Method string
	// K is the number of shards actually used (the requested count is
	// clamped when the dag cannot fill it — a single-node dag has one
	// shard no matter what was asked).
	K int
	// ShardOf maps a global node to its shard.
	ShardOf []int
	// LocalOf maps a global node to its ID inside its shard's dag.
	LocalOf []dag.NodeID
	// Globals maps back: Globals[i][lv] is the global ID of shard i's
	// local node lv.
	Globals [][]dag.NodeID
	// Locals are the shard dags, carrying only intra-shard arcs; node
	// labels are the global names, so wire-level task names match the
	// single-server run.
	Locals []*dag.Dag
	// Cross lists every cross-shard arc, sorted by (From, To).
	Cross []CrossArc

	// crossOut[u] lists the global targets of u's cross-shard arcs
	// (nil for interior nodes).
	crossOut map[dag.NodeID][]dag.NodeID
	// needIn[i] counts, per local node of shard i, its cross-shard
	// parents — what Recombine makes a task wait for.
	needIn []map[dag.NodeID]int
}

// ByLevels cuts g into at most k depth bands: contiguous runs of
// depth levels balanced by node count, then refined by a min-cut
// flavored pass that shifts band boundaries while that strictly
// reduces the number of cross-band arcs.  Arcs always point to a
// strictly greater depth, so bands are forward-only by construction.
// Deterministic: identical inputs produce identical partitions.
func ByLevels(g *dag.Dag, k int) (*Partition, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	depths := g.Depths()
	levels := 0
	for _, d := range depths {
		if d+1 > levels {
			levels = d + 1
		}
	}
	weights := make([]int, levels)
	for _, d := range depths {
		weights[d]++
	}
	band := contiguousRuns(weights, k)
	refineBands(g, depths, weights, band)
	shardOf := make([]int, g.NumNodes())
	for v, d := range depths {
		shardOf[v] = band[d]
	}
	return build(g, shardOf, "levels")
}

// ByOrder cuts g into at most k contiguous chunks of a topological
// order — the schedule-guided partitioner.  For a family whose
// IC-optimal schedule or composition structure yields a natural
// linear layout (e.g. the row-major order of a §4 mesh, realizing its
// row-block ⇑-structure), chunking that order gives components whose
// active frontiers overlap, so shards pipeline instead of running one
// after another.  An arc u -> v has pos(u) < pos(v) in any
// topological order, so chunks are forward-only by construction.
func ByOrder(g *dag.Dag, k int, order []dag.NodeID) (*Partition, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if len(order) != n {
		return nil, fmt.Errorf("shard: order has %d nodes, dag has %d", len(order), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if int(v) < 0 || int(v) >= n || pos[v] >= 0 {
			return nil, fmt.Errorf("shard: order is not a permutation of the dag's nodes")
		}
		pos[v] = i
	}
	for _, a := range g.Arcs() {
		if pos[a.From] >= pos[a.To] {
			return nil, fmt.Errorf("shard: order is not topological: %s before %s",
				g.Name(a.To), g.Name(a.From))
		}
	}
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	chunk := contiguousRuns(weights, k)
	shardOf := make([]int, n)
	for v := 0; v < n; v++ {
		shardOf[v] = chunk[pos[v]]
	}
	return build(g, shardOf, "order")
}

// ByBlocks cuts a composed dag along its block structure: every global
// node is owned by the first placed block that introduced it, and the
// blocks — in composition order — are grouped into at most k
// contiguous runs balanced by owned-node count.  Merged nodes belong
// to the earlier block, so every arc points from an earlier-or-equal
// block to a later one and runs are forward-only.
func ByBlocks(c *compose.Composer, k int) (*Partition, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	g, err := c.Dag()
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	placed := c.Placed()
	if len(placed) == 0 {
		return nil, fmt.Errorf("shard: composition has no blocks")
	}
	n := g.NumNodes()
	owner := make([]int, n)
	for v := range owner {
		owner[v] = -1
	}
	weights := make([]int, len(placed))
	for bi, pl := range placed {
		for _, gv := range pl.ToGlobal {
			if owner[gv] < 0 {
				owner[gv] = bi
				weights[bi]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if owner[v] < 0 {
			return nil, fmt.Errorf("shard: node %s belongs to no placed block", g.Name(dag.NodeID(v)))
		}
	}
	run := contiguousRuns(weights, k)
	shardOf := make([]int, n)
	for v := 0; v < n; v++ {
		shardOf[v] = run[owner[v]]
	}
	return build(g, shardOf, "blocks")
}

func checkK(k int) error {
	if k < 1 || k > MaxShards {
		return fmt.Errorf("shard: shard count %d out of range [1, %d]", k, MaxShards)
	}
	return nil
}

// contiguousRuns splits a weight sequence into at most k contiguous
// nonempty runs with roughly equal weight, returning the run index of
// each position.  Fewer than k runs come back when there are fewer
// positions than runs.
func contiguousRuns(weights []int, k int) []int {
	n := len(weights)
	if k > n {
		k = n
	}
	run := make([]int, n)
	remaining := 0
	for _, w := range weights {
		remaining += w
	}
	r, acc := 0, 0
	for i := 0; i < n; i++ {
		run[i] = r
		acc += weights[i]
		left := n - i - 1
		runsLeft := k - r - 1
		if runsLeft > 0 && left >= runsLeft {
			// Close this run once it holds its fair share of what remains.
			if target := (remaining + runsLeft) / (runsLeft + 1); acc >= target {
				remaining -= acc
				acc = 0
				r++
			}
		}
	}
	return run
}

// refineBands is the min-cut flavored pass of ByLevels: each band
// boundary is shifted by one level at a time while that strictly
// reduces the number of cross-band arcs, keeping every band nonempty
// and no band above twice its fair share of nodes.  Bounded passes
// keep it deterministic and cheap.
func refineBands(g *dag.Dag, depths []int, weights, band []int) {
	levels := len(weights)
	k := 0
	for _, b := range band {
		if b+1 > k {
			k = b + 1
		}
	}
	if k < 2 {
		return
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	maxBand := 2 * ((total + k - 1) / k)
	// bounds[b] is the first level of band b (bounds[0] == 0 fixed).
	bounds := make([]int, k)
	for l := 1; l < levels; l++ {
		if band[l] != band[l-1] {
			bounds[band[l]] = l
		}
	}
	bandWeight := make([]int, k)
	for l, w := range weights {
		bandWeight[band[l]] += w
	}
	bandOfLevel := func(l int) int {
		b := sort.Search(k-1, func(i int) bool { return bounds[i+1] > l })
		return b
	}
	crossArcs := func() int {
		c := 0
		for _, a := range g.Arcs() {
			if bandOfLevel(depths[a.From]) != bandOfLevel(depths[a.To]) {
				c++
			}
		}
		return c
	}
	best := crossArcs()
	for pass := 0; pass < 4; pass++ {
		improved := false
		for b := 1; b < k; b++ {
			for _, delta := range [2]int{-1, 1} {
				nb := bounds[b] + delta
				if nb <= bounds[b-1] || (b+1 < k && nb >= bounds[b+1]) || nb < 1 || nb >= levels {
					continue
				}
				// Moving the boundary migrates one level between bands b-1
				// and b: level bounds[b] drops into b-1 when the boundary
				// moves up, level nb rises into b when it moves down.
				movedLevel := nb
				if delta > 0 {
					movedLevel = bounds[b]
				}
				w := weights[movedLevel]
				loWeight, hiWeight := bandWeight[b-1], bandWeight[b]
				if delta > 0 {
					loWeight += w
					hiWeight -= w
				} else {
					loWeight -= w
					hiWeight += w
				}
				if loWeight <= 0 || hiWeight <= 0 || loWeight > maxBand || hiWeight > maxBand {
					continue
				}
				bounds[b] = nb
				if c := crossArcs(); c < best {
					best = c
					bandWeight[b-1], bandWeight[b] = loWeight, hiWeight
					improved = true
				} else {
					bounds[b] = nb - delta
				}
			}
		}
		if !improved {
			break
		}
	}
	for l := 0; l < levels; l++ {
		band[l] = bandOfLevel(l)
	}
}

// build assembles a Partition from a shard assignment, renumbering
// away empty shards and verifying the forward-only invariant on the
// actual arc set.
func build(g *dag.Dag, shardOf []int, method string) (*Partition, error) {
	n := g.NumNodes()
	// Renumber so shard indices are dense and ascending.
	maxShard := 0
	for _, s := range shardOf {
		if s > maxShard {
			maxShard = s
		}
	}
	counts := make([]int, maxShard+1)
	for _, s := range shardOf {
		counts[s]++
	}
	dense := make([]int, maxShard+1)
	k := 0
	for s, c := range counts {
		if c > 0 {
			dense[s] = k
			k++
		} else {
			dense[s] = -1
		}
	}
	p := &Partition{
		Method:   method,
		K:        k,
		ShardOf:  make([]int, n),
		LocalOf:  make([]dag.NodeID, n),
		Globals:  make([][]dag.NodeID, k),
		Locals:   make([]*dag.Dag, k),
		crossOut: make(map[dag.NodeID][]dag.NodeID),
		needIn:   make([]map[dag.NodeID]int, k),
	}
	for i := range p.needIn {
		p.needIn[i] = make(map[dag.NodeID]int)
	}
	// Local IDs in ascending global order keep the mapping deterministic.
	for v := 0; v < n; v++ {
		s := dense[shardOf[v]]
		p.ShardOf[v] = s
		p.LocalOf[v] = dag.NodeID(len(p.Globals[s]))
		p.Globals[s] = append(p.Globals[s], dag.NodeID(v))
	}
	builders := make([]*dag.Builder, k)
	for i := 0; i < k; i++ {
		builders[i] = dag.NewBuilder(len(p.Globals[i]))
		for lv, gv := range p.Globals[i] {
			builders[i].SetLabel(dag.NodeID(lv), g.Name(gv))
		}
	}
	for _, a := range g.Arcs() {
		su, sv := p.ShardOf[a.From], p.ShardOf[a.To]
		switch {
		case su == sv:
			builders[su].AddArc(p.LocalOf[a.From], p.LocalOf[a.To])
		case su < sv:
			p.Cross = append(p.Cross, CrossArc{From: a.From, To: a.To})
			p.crossOut[a.From] = append(p.crossOut[a.From], a.To)
			p.needIn[sv][p.LocalOf[a.To]]++
		default:
			return nil, fmt.Errorf("shard: %s partition is not forward-only: arc %s -> %s crosses from shard %d to %d",
				method, g.Name(a.From), g.Name(a.To), su, sv)
		}
	}
	sort.Slice(p.Cross, func(i, j int) bool {
		if p.Cross[i].From != p.Cross[j].From {
			return p.Cross[i].From < p.Cross[j].From
		}
		return p.Cross[i].To < p.Cross[j].To
	})
	for i := 0; i < k; i++ {
		local, err := builders[i].Build()
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d dag: %w", i, err)
		}
		p.Locals[i] = local
	}
	return p, nil
}

// NumNodes returns the global node count.
func (p *Partition) NumNodes() int { return len(p.ShardOf) }

// Global maps shard-local node lv of shard i back to its global ID.
func (p *Partition) Global(i int, lv dag.NodeID) dag.NodeID { return p.Globals[i][lv] }

// CrossOut returns the global targets of u's cross-shard arcs (nil
// for interior nodes).  The returned slice is shared; do not mutate.
func (p *Partition) CrossOut(u dag.NodeID) []dag.NodeID { return p.crossOut[u] }

// NeedIn returns shard i's cross-shard parent counts keyed by local
// node.  The map is shared; do not mutate.
func (p *Partition) NeedIn(i int) map[dag.NodeID]int { return p.needIn[i] }

// LocalOrders restricts a global schedule to each shard, mapped to
// local IDs — per Theorem 2.1, driving every shard by its restriction
// of a global IC-optimal order recombines into that order.
func (p *Partition) LocalOrders(order []dag.NodeID) ([][]dag.NodeID, error) {
	if len(order) != p.NumNodes() {
		return nil, fmt.Errorf("shard: order has %d nodes, partition has %d", len(order), p.NumNodes())
	}
	out := make([][]dag.NodeID, p.K)
	for i := range out {
		out[i] = make([]dag.NodeID, 0, len(p.Globals[i]))
	}
	for _, v := range order {
		s := p.ShardOf[v]
		out[s] = append(out[s], p.LocalOf[v])
	}
	return out, nil
}

// Stats summarizes one shard's share of the cut.
type Stats struct {
	Shard    int `json:"shard"`
	Nodes    int `json:"nodes"`
	CrossIn  int `json:"crossIn"`
	CrossOut int `json:"crossOut"`
}

// PerShard returns per-shard node and cross-arc counts.
func (p *Partition) PerShard() []Stats {
	st := make([]Stats, p.K)
	for i := range st {
		st[i] = Stats{Shard: i, Nodes: len(p.Globals[i])}
	}
	for _, a := range p.Cross {
		st[p.ShardOf[a.From]].CrossOut++
		st[p.ShardOf[a.To]].CrossIn++
	}
	return st
}
