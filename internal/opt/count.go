package opt

import (
	"math/big"
	"math/bits"
	"slices"
)

// Schedule counting over the ideal lattice: CountSchedules counts all
// legal execution orders (the linear extensions of the dag's precedence
// order); CountOptimal counts those that are IC-optimal.  Their ratio
// quantifies how demanding IC optimality is — from "every schedule is
// optimal" (uniform out-trees, ratio 1) down to 0 for the dags of §8
// item 2 that admit none.
//
// Both fold chain counts over sorted lattice layers, through the
// predecessors S∖{v}, v maximal in S, that goodFilter tests: the
// IC-optimal chains through the good sublattice Analyze keeps, all
// chains through every ideal, which CountSchedules re-expands with
// Analyze's expander under the lattice's budget.

// CountSchedules returns the number of legal execution orders of the dag.
func (l *Lattice) CountSchedules() *big.Int {
	ex := &expander{l: l}
	cur := []entry{{0, l.srcElig}}
	var buf [2][]uint64
	return l.countChains(func(t int) []uint64 {
		next, err := ex.expand(cur)
		if err != nil {
			panic(err) // Analyze expanded these very layers under the same budget
		}
		cur = next
		masks := buf[t%2][:0]
		for i := range next {
			masks = append(masks, next[i].mask)
		}
		slices.Sort(masks)
		buf[t%2] = masks
		return masks
	})
}

// CountOptimal returns the number of IC-optimal schedules of the dag
// (zero when none exists).
func (l *Lattice) CountOptimal() *big.Int {
	return l.countChains(func(t int) []uint64 { return l.good[t] })
}

// countChains counts the chains ∅ ⊂ … ⊂ full through the sorted layers
// layer(1), …, layer(n), each of which must stay intact until the next
// is asked for.  A mask's count is the sum of its predecessors' counts.
// Removing a fixed node v keeps the masks holding v in order, so the
// lookups of predecessors without v walk the previous layer once, from
// at[v] on.
func (l *Lattice) countChains(layer func(t int) []uint64) *big.Int {
	prev := []uint64{0}
	counts, next := make([]big.Int, 1), []big.Int(nil)
	counts[0].SetInt64(1)
	for t := 1; t <= l.n; t++ {
		masks := layer(t)
		next = slices.Grow(next[:0], len(masks))[:len(masks)]
		var at [64]int
		for i, mask := range masks {
			next[i].SetInt64(0)
			for rest := mask; rest != 0; rest &= rest - 1 {
				v := bits.TrailingZeros64(rest)
				if l.childMask[v]&mask != 0 {
					continue // v not maximal: removing it breaks the ideal
				}
				pred := mask &^ (1 << uint(v))
				j := at[v]
				for j < len(prev) && prev[j] < pred {
					j++
				}
				at[v] = j
				if j < len(prev) && prev[j] == pred {
					next[i].Add(&next[i], &counts[j])
				}
			}
		}
		prev, counts, next = masks, next, counts
	}
	if len(counts) == 0 {
		return new(big.Int)
	}
	return new(big.Int).Set(&counts[0])
}
