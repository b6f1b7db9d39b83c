// Package opt is the exact decision procedure for IC optimality (§2.2).
//
// After t node-executions the set of executed nodes is exactly an ideal
// (predecessor-closed subset) of the dag of size t, and the number of
// ELIGIBLE nodes depends only on that set.  Hence
//
//	maxE(t) = max{ |eligible(S)| : S an ideal, |S| = t },
//
// and a schedule Σ is IC-optimal iff its prefix ideal attains maxE(t) for
// every t.  A dag admits an IC-optimal schedule iff there is a chain of
// ideals ∅ = S₀ ⊂ S₁ ⊂ … ⊂ S_N, |S_t| = t, each attaining maxE(t).  Many
// dags admit none (§8, item 2), which this package also decides.
//
// The oracle is a frontier BFS over the lattice layers: layer t+1 is
// generated from layer t only, each ideal carries its ELIGIBLE set as a
// second bitmask so eligibility is maintained incrementally instead of
// rescanned, and layer expansion fans out over a worker pool writing
// disjoint ranges of a shared arena.  Nodes are relabeled topologically
// on entry, which makes the highest-numbered element of every ideal
// maximal; an ideal S∪{v} is therefore emitted only from the unique
// parent S with v > max(S), so layers are duplicate-free by construction
// — no per-layer hash map, sort, or merge is needed.  Memory is bounded
// by the two live layers plus the per-size optimal ideals (the "good"
// sublattice kept for witness reconstruction) — not by the 2^n lattice,
// which the pre-frontier implementation retained in full (see
// legacy_test.go, kept as the reference frontier_test.go compares against).
//
// The procedure is exponential in the worst case; it is intended as a
// ground-truth oracle against which the paper's closed-form schedules
// are machine-checked.  Its one resource bound is the widest lattice
// layer, not the node count: every analysis runs under a layer budget
// (defaultBudget for Analyze) and fails with ErrBudget instead of
// exhausting memory on near-antichain dags.  A dag over the 36-node
// cap fails the same way.
package opt

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"icsched/internal/dag"
)

// maxNodes bounds the dag size the oracle accepts.  Ideals are single
// 64-bit masks, so the cap is not the real limit; the layer budget is.
const maxNodes = 36

// defaultBudget is Analyze's cap on the ideals of one lattice layer,
// two 16 MiB arenas.  It is over 300× the widest layer any in-tree
// caller reaches, while a 36-node antichain hits it at layer 6 instead
// of asking for C(36,18) ≈ 9·10⁹ entries.
const defaultBudget = 1 << 20

// ErrBudget reports that a dag is beyond the oracle's reach: a lattice
// layer outgrew the entry budget, or the dag has more than 36 nodes.
var ErrBudget = errors.New("opt: dag beyond the oracle's reach")

// entry is one frontier ideal: the executed-set mask and the bitmask of
// its ELIGIBLE nodes (|ELIGIBLE| is its popcount).  Masks live in the
// lattice's internal topological numbering.
type entry struct {
	mask, elig uint64
}

// Lattice is the frontier-analyzed ideal lattice of a dag: the per-size
// maximum eligibility profile plus the good sublattice (per-size optimal
// ideals reachable through optimal ideals) from which witness schedules
// are reconstructed.  Build one with Analyze and reuse it across queries.
type Lattice struct {
	g *dag.Dag
	n int
	// perm[v] is the internal (topological) index of original node v;
	// all masks below use internal bit positions.
	perm       []int
	parentMask []uint64  // parentMask[v] = bitmask of parents of internal v
	childMask  []uint64  // childMask[v] = bitmask of children of internal v
	children   [][]int32 // children[v] = internal children of internal v
	srcElig    uint64    // ELIGIBLE set of the empty ideal (the sources)
	maxE       []int     // maxE[t] = max eligibility over ideals of size t
	numIdeals  int
	// good[t] is the sorted set of size-t ideals that attain maxE(t) AND
	// are reachable from ∅ through a chain of such ideals.  An IC-optimal
	// schedule exists iff good[n] is nonempty, and any walk ∅ → full
	// through the good layers re-expands into a witness.
	good   [][]uint64
	admits bool
	// workers and budget are the expander settings the lattice was
	// built with; CountSchedules re-expands under the same ones.
	workers, budget int
}

// Analyze enumerates the ideal lattice of g with GOMAXPROCS workers
// under the default layer budget.  It fails with an error wrapping
// ErrBudget when g is beyond the oracle's reach.
func Analyze(g *dag.Dag) (*Lattice, error) { return AnalyzeBudget(g, defaultBudget) }

// AnalyzeBudget is Analyze with an explicit cap on the per-layer ideal
// count.  When a layer would exceed the budget it returns an error
// wrapping ErrBudget, letting callers skip oracle checks on dags whose
// lattice is too wide instead of exhausting memory.
func AnalyzeBudget(g *dag.Dag, budget int) (*Lattice, error) {
	return analyze(g, runtime.GOMAXPROCS(0), budget)
}

// analyze builds the lattice with the given worker count; workers = 1
// degenerates to the sequential frontier scan, and results are
// identical for every worker count.
func analyze(g *dag.Dag, workers, budget int) (*Lattice, error) {
	n := g.NumNodes()
	if n > maxNodes {
		return nil, fmt.Errorf("%w: %d nodes, limit %d", ErrBudget, n, maxNodes)
	}
	l := &Lattice{
		g:          g,
		n:          n,
		workers:    workers,
		budget:     budget,
		perm:       make([]int, n),
		parentMask: make([]uint64, n),
		childMask:  make([]uint64, n),
		children:   make([][]int32, n),
		maxE:       make([]int, n+1),
		good:       make([][]uint64, n+1),
	}
	for i, v := range g.TopoOrder() {
		l.perm[v] = i
	}
	for v := 0; v < n; v++ {
		vi := l.perm[v]
		for _, p := range g.Parents(dag.NodeID(v)) {
			l.parentMask[vi] |= 1 << uint(l.perm[p])
		}
		cs := g.Children(dag.NodeID(v))
		l.children[vi] = make([]int32, len(cs))
		for j, c := range cs {
			ci := l.perm[c]
			l.childMask[vi] |= 1 << uint(ci)
			l.children[vi][j] = int32(ci)
		}
		if l.parentMask[vi] == 0 {
			l.srcElig |= 1 << uint(vi)
		}
	}
	l.maxE[0] = bits.OnesCount64(l.srcElig)
	l.numIdeals = 1
	l.good[0] = []uint64{0}

	ex := &expander{l: l}
	cur := []entry{{0, l.srcElig}}
	for t := 0; t < n; t++ {
		next, err := ex.expand(cur)
		if err != nil {
			return nil, err
		}
		m := 0
		for i := range next {
			if e := bits.OnesCount64(next[i].elig); e > m {
				m = e
			}
		}
		l.maxE[t+1] = m
		l.numIdeals += len(next)
		l.good[t+1] = l.goodFilter(next, m, l.good[t])
		cur = next
	}
	l.admits = len(l.good[n]) > 0
	return l, nil
}

// succElig updates a parent ideal's ELIGIBLE mask after executing
// internal node v: v leaves the set, and each child of v whose parents
// are now all inside next enters it.  next must already include v's bit.
func (l *Lattice) succElig(next, elig uint64, v int) uint64 {
	nelig := elig &^ (1 << uint(v))
	for _, c := range l.children[v] {
		if l.parentMask[c]&^next == 0 {
			nelig |= 1 << uint(c)
		}
	}
	return nelig
}

// goodFilter extracts from a freshly expanded layer the masks attaining
// maxE that have at least one good-reachable predecessor (obtained by
// removing a maximal element).  The result is sorted for binary search.
func (l *Lattice) goodFilter(layer []entry, maxE int, prevGood []uint64) []uint64 {
	var out []uint64
	for i := range layer {
		en := layer[i]
		if bits.OnesCount64(en.elig) != maxE {
			continue
		}
		for rest := en.mask; rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros64(rest)
			bit := uint64(1) << uint(v)
			if l.childMask[v]&en.mask != 0 {
				continue // v not maximal: removing it breaks the ideal
			}
			if containsMask(prevGood, en.mask&^bit) {
				out = append(out, en.mask)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

func containsMask(sorted []uint64, m uint64) bool {
	_, ok := slices.BinarySearch(sorted, m)
	return ok
}

// expander generates lattice layers, with the lattice's workers and
// under its budget, into two ping-pong arenas that are reused across
// layers, so steady-state expansion allocates nothing.
type expander struct {
	l     *Lattice
	arena [2][]entry
	flip  int
}

// expand produces the duplicate-free successor layer of cur.  Under the
// topological numbering, S∪{v} is emitted only when v > max(S) — the
// unique canonical parent — so the layer size is known exactly up front
// (which is also what the budget is checked against) and workers can
// write disjoint ranges of the output arena with no reconciliation.
func (ex *expander) expand(cur []entry) ([]entry, error) {
	total := 0
	for i := range cur {
		total += bits.OnesCount64(cur[i].elig >> uint(bits.Len64(cur[i].mask)))
	}
	if budget := ex.l.budget; total > budget {
		return nil, fmt.Errorf("%w: a lattice layer of %d ideals, budget %d", ErrBudget, total, budget)
	}
	out := ex.arena[ex.flip]
	if cap(out) < total {
		out = make([]entry, total)
		ex.arena[ex.flip] = out
	} else {
		out = out[:total]
	}
	ex.flip ^= 1
	w := min(ex.l.workers, len(cur))
	if w <= 1 || total < 4096 {
		ex.emit(cur, out)
		return out, nil
	}
	chunk := (len(cur) + w - 1) / w
	var wg sync.WaitGroup
	off := 0
	for lo := 0; lo < len(cur); lo += chunk {
		hi := lo + chunk
		if hi > len(cur) {
			hi = len(cur)
		}
		cnt := 0
		for i := lo; i < hi; i++ {
			cnt += bits.OnesCount64(cur[i].elig >> uint(bits.Len64(cur[i].mask)))
		}
		wg.Add(1)
		go func(src, dst []entry) {
			defer wg.Done()
			ex.emit(src, dst)
		}(cur[lo:hi], out[off:off+cnt])
		off += cnt
	}
	wg.Wait()
	return out, nil
}

// emit writes the canonical successors of the given parent entries into
// dst, which must have exactly the right length.
func (ex *expander) emit(cur []entry, dst []entry) {
	l := ex.l
	k := 0
	for i := range cur {
		s, elig := cur[i].mask, cur[i].elig
		hb := uint(bits.Len64(s))
		for e := elig >> hb; e != 0; e &= e - 1 {
			v := bits.TrailingZeros64(e) + int(hb)
			next := s | 1<<uint(v)
			dst[k] = entry{next, l.succElig(next, elig, v)}
			k++
		}
	}
}

// MaxE returns the per-step maximum eligibility profile: MaxE()[t] is the
// largest possible |ELIGIBLE| after t executions.
func (l *Lattice) MaxE() []int { return append([]int(nil), l.maxE...) }

// NumIdeals returns the total number of ideals of the dag.
func (l *Lattice) NumIdeals() int { return l.numIdeals }

// IsOptimal reports whether the given full execution order is IC-optimal:
// legal, and attaining maxE(t) at every step t.  The returned step is the
// first step at which the schedule falls short (-1 when optimal).  The
// replay maintains the ELIGIBLE mask incrementally; no lattice state is
// consulted beyond the maxE profile.
func (l *Lattice) IsOptimal(order []dag.NodeID) (optimal bool, step int, err error) {
	if len(order) != l.n {
		return false, -1, fmt.Errorf("opt: order has %d nodes, dag has %d", len(order), l.n)
	}
	var mask uint64
	elig := l.srcElig
	for t, v := range order {
		if int(v) < 0 || int(v) >= l.n {
			return false, -1, fmt.Errorf("opt: node %d out of range", v)
		}
		vi := l.perm[v]
		bit := uint64(1) << uint(vi)
		if mask&bit != 0 {
			return false, -1, fmt.Errorf("opt: node %s executed twice", l.g.Name(v))
		}
		if l.parentMask[vi]&^mask != 0 {
			return false, -1, fmt.Errorf("opt: node %s executed while not ELIGIBLE", l.g.Name(v))
		}
		mask |= bit
		elig = l.succElig(mask, elig, vi)
		if bits.OnesCount64(elig) < l.maxE[t+1] {
			return false, t + 1, nil
		}
	}
	return true, -1, nil
}

// Exists reports whether the dag admits any IC-optimal schedule.
func (l *Lattice) Exists() bool { return l.admits }

// OptimalSchedule synthesizes an IC-optimal schedule if one exists.
// The second result is false when the dag admits no IC-optimal schedule.
//
// The witness chain is re-expanded from the good sublattice: a backward
// pass prunes each good layer to the masks that still reach the full
// ideal through good masks, then a forward walk from ∅ picks the
// smallest-numbered node whose addition stays in the pruned chain (the
// same tiebreak as the legacy oracle).  Every forward step succeeds
// because the chain that witnesses admits survives the pruning intact.
func (l *Lattice) OptimalSchedule() ([]dag.NodeID, bool) {
	if !l.admits {
		return nil, false
	}
	live := make([][]uint64, l.n+1)
	live[l.n] = l.good[l.n]
	for t := l.n - 1; t >= 0; t-- {
		for _, mask := range l.good[t] {
			for v := 0; v < l.n; v++ {
				bit := uint64(1) << uint(v)
				if mask&bit != 0 || l.parentMask[v]&^mask != 0 {
					continue
				}
				if containsMask(live[t+1], mask|bit) {
					live[t] = append(live[t], mask)
					break
				}
			}
		}
	}
	order := make([]dag.NodeID, 0, l.n)
	mask := uint64(0)
	for t := 0; t < l.n; t++ {
		found := false
		for v := 0; v < l.n; v++ { // original numbering: smallest-node tiebreak
			vi := l.perm[v]
			bit := uint64(1) << uint(vi)
			if mask&bit != 0 || l.parentMask[vi]&^mask != 0 {
				continue
			}
			if containsMask(live[t+1], mask|bit) {
				order = append(order, dag.NodeID(v))
				mask |= bit
				found = true
				break
			}
		}
		if !found {
			return nil, false // defensive; cannot happen when admits
		}
	}
	return order, true
}
