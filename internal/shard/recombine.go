package shard

import (
	"fmt"
	"math/rand"
	"slices"

	"icsched/internal/dag"
	"icsched/internal/sched"
)

// Recombine runs the cut without a server: one sched.State per shard
// over p.Locals, each advanced by its restriction of order
// (LocalOrders).  A shard's next task fires only when it is ELIGIBLE in
// its own dag and every one of its NeedIn cross-shard parents has
// executed.  With rng nil the shards interleave in the global order, so
// each step must fire the shard owning order[t]; otherwise every step
// fires a uniformly drawn shard among those whose next task can fire.
// It returns the recombined global order, or an error when the
// interleaving stalls.
func (p *Partition) Recombine(order []dag.NodeID, rng *rand.Rand) ([]dag.NodeID, error) {
	local, err := p.LocalOrders(order)
	if err != nil {
		return nil, err
	}
	states := make([]*sched.State, p.K)
	waiting := make([]int, p.NumNodes()) // cross-shard parents not yet executed
	for i := range states {
		states[i] = sched.NewState(p.Locals[i])
		for lv, n := range p.NeedIn(i) {
			waiting[p.Global(i, lv)] = n
		}
	}
	next := make([]int, p.K) // position in each shard's restriction
	canFire := func(i int) bool {
		if next[i] == len(local[i]) {
			return false
		}
		lv := local[i][next[i]]
		return states[i].IsEligible(lv) && waiting[p.Global(i, lv)] == 0
	}
	out := make([]dag.NodeID, 0, len(order))
	ready := make([]int, 0, p.K)
	for t := range order {
		var i int
		if rng == nil {
			if i = p.ShardOf[order[t]]; !canFire(i) {
				return nil, fmt.Errorf("shard: step %d: shard %d cannot fire %d, the global order's next task", t, i, order[t])
			}
		} else {
			ready = ready[:0]
			for j := range next {
				if canFire(j) {
					ready = append(ready, j)
				}
			}
			if len(ready) == 0 {
				return nil, fmt.Errorf("shard: step %d: no shard can fire", t)
			}
			i = ready[rng.Intn(len(ready))]
		}
		lv := local[i][next[i]]
		next[i]++
		if err := states[i].Advance(lv); err != nil {
			return nil, fmt.Errorf("shard: step %d: %w", t, err)
		}
		v := p.Global(i, lv)
		for _, w := range p.CrossOut(v) {
			waiting[w]--
		}
		out = append(out, v)
	}
	return out, nil
}

// CheckRecombination is Theorem 2.1 as a property of one cut of g.  It
// recombines order twice — interleaved in the global order, and in a
// random interleaving drawn from rng — and requires both results to be
// legal schedules of g, the first with the eligibility profile of order
// itself.
func CheckRecombination(g *dag.Dag, p *Partition, order []dag.NodeID, rng *rand.Rand) error {
	want, err := sched.Profile(g, order)
	if err != nil {
		return fmt.Errorf("global order: %w", err)
	}
	inOrder, err := p.Recombine(order, nil)
	if err != nil {
		return fmt.Errorf("%s cut, K=%d, global interleaving: %w", p.Method, p.K, err)
	}
	got, err := sched.Profile(g, inOrder)
	if err != nil {
		return fmt.Errorf("%s cut, K=%d, global interleaving is illegal: %w", p.Method, p.K, err)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s cut, K=%d: recombined profile %v, single-server profile %v", p.Method, p.K, got, want)
	}
	mixed, err := p.Recombine(order, rng)
	if err != nil {
		return fmt.Errorf("%s cut, K=%d, random interleaving: %w", p.Method, p.K, err)
	}
	if _, err := sched.Profile(g, mixed); err != nil {
		return fmt.Errorf("%s cut, K=%d, random interleaving is illegal: %w", p.Method, p.K, err)
	}
	return nil
}
