package opt

import (
	"fmt"
	"math/big"

	"icsched/internal/dag"
)

// This file preserves the pre-frontier oracle verbatim.  It is the
// ground-truth baseline that the frontier implementation in opt.go is
// differentially tested against (frontier_test.go) and measured against
// (BenchmarkOracleAnalyze).  It retains the full ideal lattice plus a
// global elig map, so it is limited to LegacyMaxNodes nodes and is
// deliberately not optimized further.

// LegacyMaxNodes bounds the dag size the legacy oracle accepts (it holds
// every layer of the ideal lattice plus a map entry per ideal in memory
// at once).
const LegacyMaxNodes = 26

// LegacyLattice is the fully retained ideal lattice of the pre-frontier
// oracle.  Build one with AnalyzeLegacy.
type LegacyLattice struct {
	g *dag.Dag
	// ideals[t] lists every ideal of size t as a bitmask.
	ideals [][]uint64
	// elig[mask] = |eligible(mask)| for every ideal mask.
	elig map[uint64]int
	// maxE[t] = max eligibility over ideals of size t.
	maxE []int
	// parentMask[v] = bitmask of parents of v.
	parentMask []uint64
}

// AnalyzeLegacy enumerates the ideal lattice of g with the pre-frontier
// single-threaded algorithm, retaining every layer.  It fails if g has
// more than LegacyMaxNodes nodes.
func AnalyzeLegacy(g *dag.Dag) (*LegacyLattice, error) {
	n := g.NumNodes()
	if n > LegacyMaxNodes {
		return nil, fmt.Errorf("opt: dag has %d nodes, legacy oracle limit is %d", n, LegacyMaxNodes)
	}
	l := &LegacyLattice{
		g:          g,
		ideals:     make([][]uint64, n+1),
		elig:       make(map[uint64]int),
		maxE:       make([]int, n+1),
		parentMask: make([]uint64, n),
	}
	for v := 0; v < n; v++ {
		for _, p := range g.Parents(dag.NodeID(v)) {
			l.parentMask[v] |= 1 << uint(p)
		}
	}
	// BFS over the ideal lattice by size.
	l.ideals[0] = []uint64{0}
	l.elig[0] = l.eligCount(0)
	l.maxE[0] = l.elig[0]
	for t := 0; t < n; t++ {
		seen := make(map[uint64]struct{})
		for _, mask := range l.ideals[t] {
			for v := 0; v < n; v++ {
				bit := uint64(1) << uint(v)
				if mask&bit != 0 {
					continue
				}
				if l.parentMask[v]&^mask != 0 {
					continue // some parent unexecuted: v not eligible
				}
				next := mask | bit
				if _, ok := seen[next]; ok {
					continue
				}
				seen[next] = struct{}{}
				e := l.eligCount(next)
				l.elig[next] = e
				l.ideals[t+1] = append(l.ideals[t+1], next)
				if e > l.maxE[t+1] {
					l.maxE[t+1] = e
				}
			}
		}
	}
	return l, nil
}

// eligCount counts the nodes eligible with respect to the executed set mask.
func (l *LegacyLattice) eligCount(mask uint64) int {
	count := 0
	for v := 0; v < l.g.NumNodes(); v++ {
		bit := uint64(1) << uint(v)
		if mask&bit == 0 && l.parentMask[v]&^mask == 0 {
			count++
		}
	}
	return count
}

// MaxE returns the per-step maximum eligibility profile.
func (l *LegacyLattice) MaxE() []int { return append([]int(nil), l.maxE...) }

// NumIdeals returns the total number of ideals of the dag.
func (l *LegacyLattice) NumIdeals() int { return len(l.elig) }

// IsOptimal reports whether the given full execution order is IC-optimal
// (legacy semantics: identical contract to Lattice.IsOptimal).
func (l *LegacyLattice) IsOptimal(order []dag.NodeID) (optimal bool, step int, err error) {
	n := l.g.NumNodes()
	if len(order) != n {
		return false, -1, fmt.Errorf("opt: order has %d nodes, dag has %d", len(order), n)
	}
	var mask uint64
	for t, v := range order {
		if int(v) < 0 || int(v) >= n {
			return false, -1, fmt.Errorf("opt: node %d out of range", v)
		}
		bit := uint64(1) << uint(v)
		if mask&bit != 0 {
			return false, -1, fmt.Errorf("opt: node %s executed twice", l.g.Name(v))
		}
		if l.parentMask[v]&^mask != 0 {
			return false, -1, fmt.Errorf("opt: node %s executed while not ELIGIBLE", l.g.Name(v))
		}
		mask |= bit
		if l.elig[mask] < l.maxE[t+1] {
			return false, t + 1, nil
		}
	}
	return true, -1, nil
}

// Exists reports whether the dag admits any IC-optimal schedule.
func (l *LegacyLattice) Exists() bool {
	_, ok := l.OptimalSchedule()
	return ok
}

// OptimalSchedule synthesizes an IC-optimal schedule if one exists, by
// the legacy backward-pruned chain search over the retained lattice.
func (l *LegacyLattice) OptimalSchedule() ([]dag.NodeID, bool) {
	n := l.g.NumNodes()
	full := uint64(0)
	if n > 0 {
		full = (uint64(1) << uint(n)) - 1
	}
	levels := make([]map[uint64]bool, n+1)
	levels[n] = map[uint64]bool{full: true}
	for t := n - 1; t >= 0; t-- {
		levels[t] = make(map[uint64]bool)
		for _, mask := range l.ideals[t] {
			if l.elig[mask] < l.maxE[t] {
				continue
			}
			for v := 0; v < n; v++ {
				bit := uint64(1) << uint(v)
				if mask&bit != 0 || l.parentMask[v]&^mask != 0 {
					continue
				}
				if levels[t+1][mask|bit] {
					levels[t][mask] = true
					break
				}
			}
		}
		if len(levels[t]) == 0 {
			return nil, false
		}
	}
	if !levels[0][0] {
		return nil, false
	}
	order := make([]dag.NodeID, 0, n)
	mask := uint64(0)
	for t := 0; t < n; t++ {
		found := false
		for v := 0; v < n; v++ {
			bit := uint64(1) << uint(v)
			if mask&bit != 0 || l.parentMask[v]&^mask != 0 {
				continue
			}
			if levels[t+1][mask|bit] {
				order = append(order, dag.NodeID(v))
				mask |= bit
				found = true
				break
			}
		}
		if !found {
			return nil, false // defensive; cannot happen when levels[0][0]
		}
	}
	return order, true
}

// CountSchedules returns the number of legal execution orders of the dag
// (legacy path counter over the retained lattice).
func (l *LegacyLattice) CountSchedules() *big.Int {
	return l.countPaths(func(uint64, int) bool { return true })
}

// CountOptimal returns the number of IC-optimal schedules of the dag.
func (l *LegacyLattice) CountOptimal() *big.Int {
	return l.countPaths(func(mask uint64, size int) bool {
		return l.elig[mask] >= l.maxE[size]
	})
}

// countPaths counts monotone chains ∅ ⊂ … ⊂ full through the ideals that
// satisfy keep at every size.
func (l *LegacyLattice) countPaths(keep func(mask uint64, size int) bool) *big.Int {
	n := l.g.NumNodes()
	counts := map[uint64]*big.Int{0: big.NewInt(1)}
	if !keep(0, 0) {
		return big.NewInt(0)
	}
	for t := 0; t < n; t++ {
		next := make(map[uint64]*big.Int)
		for _, mask := range l.ideals[t] {
			c, ok := counts[mask]
			if !ok {
				continue
			}
			for v := 0; v < n; v++ {
				bit := uint64(1) << uint(v)
				if mask&bit != 0 || l.parentMask[v]&^mask != 0 {
					continue
				}
				succ := mask | bit
				if !keep(succ, t+1) {
					continue
				}
				if acc, ok := next[succ]; ok {
					acc.Add(acc, c)
				} else {
					next[succ] = new(big.Int).Set(c)
				}
			}
		}
		counts = next
		if len(counts) == 0 {
			return big.NewInt(0)
		}
	}
	full := uint64(0)
	if n > 0 {
		full = (uint64(1) << uint(n)) - 1
	}
	if c, ok := counts[full]; ok {
		return c
	}
	return big.NewInt(0)
}
