// Package dag implements the directed-acyclic-graph substrate of
// IC-Scheduling Theory (Cordasco, Malewicz, Rosenberg; IPPS 2007, §2.1).
//
// A computation-dag models a computation: each node is a task, and an arc
// (u -> v) records that task v cannot be executed before task u.  The
// package provides construction, structural queries (sources, sinks,
// degrees, connectivity), the dual operation of §2.3.2 (arc reversal), the
// disjoint sum of dags, topological utilities, and DOT export for
// regenerating the paper's figures.
//
// Nodes are dense integer IDs in [0, N).  A Dag stores each direction as
// compressed sparse rows (CSR): one offsets array of length N+1 and one
// adjacency array holding every row back to back, sorted and free of
// duplicates, so a dag is four flat arrays with no per-node pointers.
// Builder.Build fills them in O(N + M) with counting sorts.
//
// Children and Parents return shared, read-only views into those arrays;
// callers must not mutate them.  Each view's capacity is capped at its
// length, so an append copies instead of overwriting the next row.  Dags
// are immutable, so Dual shares its argument's arrays (the two directions
// swapped) instead of copying them.
package dag

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// NodeID identifies a node within a single Dag.  IDs are dense: a Dag with
// n nodes uses exactly the IDs 0..n-1.
type NodeID = int32

// Arc is a directed edge (From -> To): task To depends on task From.
type Arc struct {
	From, To NodeID
}

// Dag is an immutable directed acyclic graph.  Construct one with a
// Builder; the zero Dag is the empty dag.
//
// Both directions are stored as compressed sparse rows: the children of
// u are cAdj[cOff[u]:cOff[u+1]] and the parents of v are
// pAdj[pOff[v]:pOff[v+1]], every row sorted and free of duplicates.
type Dag struct {
	n          int
	cOff, pOff []int32  // length n+1 (nil for the zero Dag)
	cAdj, pAdj []NodeID // length NumArcs
	labels     []string // optional node labels ("" when unset)
}

// NumNodes returns the number of nodes.
func (g *Dag) NumNodes() int { return g.n }

// NumArcs returns the number of arcs.
func (g *Dag) NumArcs() int { return len(g.cAdj) }

// row returns adj[off[u]:off[u+1]] with its capacity capped at its
// length, so an append to it reallocates instead of overwriting the next
// row.
func row(off []int32, adj []NodeID, u NodeID) []NodeID {
	lo, hi := off[u], off[u+1]
	return adj[lo:hi:hi]
}

// Children returns the children of u (nodes that depend on u), sorted.
// The returned slice is shared and must not be mutated.
func (g *Dag) Children(u NodeID) []NodeID { return row(g.cOff, g.cAdj, u) }

// Parents returns the parents of v (nodes v depends on), sorted.
// The returned slice is shared and must not be mutated.
func (g *Dag) Parents(v NodeID) []NodeID { return row(g.pOff, g.pAdj, v) }

// InDegree returns the number of parents of v.
func (g *Dag) InDegree(v NodeID) int { return int(g.pOff[v+1] - g.pOff[v]) }

// OutDegree returns the number of children of u.
func (g *Dag) OutDegree(u NodeID) int { return int(g.cOff[u+1] - g.cOff[u]) }

// IsSource reports whether v has no parents.
func (g *Dag) IsSource(v NodeID) bool { return g.pOff[v+1] == g.pOff[v] }

// IsSink reports whether v has no children.
func (g *Dag) IsSink(v NodeID) bool { return g.cOff[v+1] == g.cOff[v] }

// Label returns the label of v, or "" if none was set.
func (g *Dag) Label(v NodeID) string {
	if g.labels == nil {
		return ""
	}
	return g.labels[v]
}

// Labeled reports whether g carries node labels at all.  When it does
// not, Name(v) is DefaultName(v) for every v.
func (g *Dag) Labeled() bool { return g.labels != nil }

// Name returns a human-readable name for v: its label if set, else
// DefaultName(v).
func (g *Dag) Name(v NodeID) string {
	if l := g.Label(v); l != "" {
		return l
	}
	return DefaultName(v)
}

// DefaultName is the name of an unlabeled node: "n<id>".
func DefaultName(v NodeID) string { return "n" + strconv.Itoa(int(v)) }

// Sources returns the parentless nodes, in increasing ID order.
func (g *Dag) Sources() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if g.IsSource(NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Sinks returns the childless nodes, in increasing ID order.
func (g *Dag) Sinks() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if g.IsSink(NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// NonSinks returns the nodes with at least one child, in increasing ID order.
func (g *Dag) NonSinks() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if !g.IsSink(NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// NonSources returns the nodes with at least one parent, in increasing ID order.
func (g *Dag) NonSources() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if !g.IsSource(NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Arcs returns all arcs, sorted by (From, To).
func (g *Dag) Arcs() []Arc {
	out := make([]Arc, 0, g.NumArcs())
	for u := 0; u < g.n; u++ {
		for _, v := range g.Children(NodeID(u)) {
			out = append(out, Arc{NodeID(u), v})
		}
	}
	return out
}

// HasArc reports whether the arc (u -> v) is present.
func (g *Dag) HasArc(u, v NodeID) bool {
	_, found := slices.BinarySearch(g.Children(u), v)
	return found
}

// Connected reports whether the dag is connected when arc orientations are
// ignored (§2.1).  The empty dag is vacuously connected.
func (g *Dag) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Children(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, v := range g.Parents(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// Dual returns the dual dag: same nodes, every arc reversed, so sources and
// sinks interchange (§2.3.2).  Labels are preserved.  The dual shares g's
// storage, both directions swapped, so it costs O(1).
func (g *Dag) Dual() *Dag {
	return &Dag{n: g.n, cOff: g.pOff, cAdj: g.pAdj, pOff: g.cOff, pAdj: g.cAdj, labels: g.labels}
}

// Sum returns the disjoint sum g + h (§2.3.1, footnote 4): the nodes of h
// are renumbered to follow those of g; no arcs are added between the parts.
func Sum(g, h *Dag) *Dag {
	s := &Dag{n: g.n + h.n}
	s.cOff, s.cAdj = sumRows(g.n, g.cOff, g.cAdj, h.n, h.cOff, h.cAdj)
	s.pOff, s.pAdj = sumRows(g.n, g.pOff, g.pAdj, h.n, h.pOff, h.pAdj)
	if g.labels != nil || h.labels != nil {
		s.labels = make([]string, s.n)
		for v := 0; v < g.n; v++ {
			s.labels[v] = g.Label(NodeID(v))
		}
		for v := 0; v < h.n; v++ {
			s.labels[g.n+v] = h.Label(NodeID(v))
		}
	}
	return s
}

// sumRows concatenates two CSR directions, shifting the second's node IDs
// by gn and its offsets by the first's arc count.
func sumRows(gn int, gOff []int32, gAdj []NodeID, hn int, hOff []int32, hAdj []NodeID) ([]int32, []NodeID) {
	off := make([]int32, gn+hn+1)
	copy(off, gOff)
	m := int32(len(gAdj))
	for v := 1; v <= hn; v++ {
		off[gn+v] = hOff[v] + m
	}
	adj := make([]NodeID, len(gAdj)+len(hAdj))
	copy(adj, gAdj)
	for i, x := range hAdj {
		adj[len(gAdj)+i] = x + NodeID(gn)
	}
	return off, adj
}

// TopoOrder returns a topological order of the nodes (Kahn's algorithm,
// smallest-ID-first for determinism).
func (g *Dag) TopoOrder() []NodeID {
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = g.InDegree(NodeID(v))
	}
	// A simple binary heap keyed by NodeID keeps the order deterministic.
	var heap nodeHeap
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			heap.push(NodeID(v))
		}
	}
	order := make([]NodeID, 0, g.n)
	for heap.len() > 0 {
		u := heap.pop()
		order = append(order, u)
		for _, v := range g.Children(u) {
			indeg[v]--
			if indeg[v] == 0 {
				heap.push(v)
			}
		}
	}
	return order
}

// Depths returns, for every node, the length of the longest path from any
// source to that node (sources have depth 0).
func (g *Dag) Depths() []int {
	depth := make([]int, g.n)
	for _, u := range g.TopoOrder() {
		for _, v := range g.Children(u) {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
			}
		}
	}
	return depth
}

// Heights returns, for every node, the length of the longest path from that
// node to any sink (sinks have height 0).
func (g *Dag) Heights() []int {
	height := make([]int, g.n)
	order := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range g.Children(u) {
			if height[v]+1 > height[u] {
				height[u] = height[v] + 1
			}
		}
	}
	return height
}

// CriticalPathLen returns the number of nodes on a longest source-to-sink
// path (0 for the empty dag).
func (g *Dag) CriticalPathLen() int {
	if g.n == 0 {
		return 0
	}
	best := 0
	for _, d := range g.Depths() {
		if d > best {
			best = d
		}
	}
	return best + 1
}

// Reachable returns the set of nodes reachable from u (excluding u itself)
// as a boolean slice indexed by NodeID.
func (g *Dag) Reachable(u NodeID) []bool {
	seen := make([]bool, g.n)
	stack := []NodeID{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Children(x) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// Equal reports whether g and h are identical as labeled graphs on the same
// node IDs (same node count and same arc set; labels are ignored).
func Equal(g, h *Dag) bool {
	if g.n != h.n {
		return false
	}
	// Rows are sorted and duplicate-free, so the children CSR is canonical.
	return g.n == 0 || slices.Equal(g.cOff, h.cOff) && slices.Equal(g.cAdj, h.cAdj)
}

// DOT renders the dag in Graphviz DOT syntax, for visual comparison with
// the paper's figures.
func (g *Dag) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=BT;\n", name)
	for v := 0; v < g.n; v++ {
		fmt.Fprintf(&b, "  %d [label=%q];\n", v, g.Name(NodeID(v)))
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.Children(NodeID(u)) {
			fmt.Fprintf(&b, "  %d -> %d;\n", u, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a compact structural summary.
func (g *Dag) String() string {
	return fmt.Sprintf("dag{nodes:%d arcs:%d sources:%d sinks:%d}",
		g.n, g.NumArcs(), len(g.Sources()), len(g.Sinks()))
}

// errCycle is returned by Builder.Build when the arc set contains a cycle.
var errCycle = errors.New("dag: arc set contains a cycle")

// Builder incrementally assembles a Dag.  The zero Builder is ready to use.
type Builder struct {
	n      int
	arcs   []Arc
	labels map[NodeID]string
}

// NewBuilder returns a Builder pre-sized for n nodes.
func NewBuilder(n int) *Builder {
	b := &Builder{}
	b.AddNodes(n)
	return b
}

// AddNode adds one node and returns its ID.
func (b *Builder) AddNode() NodeID {
	id := NodeID(b.n)
	b.n++
	return id
}

// AddNodes adds k nodes and returns the ID of the first.
func (b *Builder) AddNodes(k int) NodeID {
	id := NodeID(b.n)
	b.n += k
	return id
}

// AddLabeledNode adds one node carrying the given label.
func (b *Builder) AddLabeledNode(label string) NodeID {
	id := b.AddNode()
	b.SetLabel(id, label)
	return id
}

// SetLabel attaches a label to an existing node.
func (b *Builder) SetLabel(v NodeID, label string) {
	if b.labels == nil {
		b.labels = make(map[NodeID]string)
	}
	b.labels[v] = label
}

// AddArc records the dependency (u -> v).  Duplicate arcs are coalesced at
// Build time.
func (b *Builder) AddArc(u, v NodeID) {
	b.arcs = append(b.arcs, Arc{u, v})
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return b.n }

// Build validates and freezes the dag.  It fails if an arc endpoint or a
// labeled node is out of range, if a self-loop is present, or if the arc
// set contains a cycle.  It runs in O(n + m) time: two counting sorts
// order the arcs by (From, To) without comparisons.
func (b *Builder) Build() (*Dag, error) {
	n := b.n
	if len(b.arcs) > math.MaxInt32 {
		return nil, fmt.Errorf("dag: %d arcs exceed the %d a dag can hold", len(b.arcs), math.MaxInt32)
	}
	// Validate, and count each node's arcs in both directions.
	pOff := make([]int32, n+1)
	cOff := make([]int32, n+1)
	for _, a := range b.arcs {
		if a.From < 0 || int(a.From) >= n || a.To < 0 || int(a.To) >= n {
			return nil, fmt.Errorf("dag: arc (%d->%d) out of range [0,%d)", a.From, a.To, n)
		}
		if a.From == a.To {
			return nil, fmt.Errorf("dag: self-loop at node %d", a.From)
		}
		pOff[a.To+1]++
		cOff[a.From+1]++
	}
	if err := b.checkLabels(); err != nil {
		return nil, err
	}
	prefixSum(pOff)
	prefixSum(cOff)

	// First pass: bucket each arc's tail under its head.  Second pass:
	// walk the heads in increasing order and append each one to its
	// tails' rows, so every children row comes out sorted, duplicates
	// adjacent.
	cur := make([]int32, n)
	tails := make([]NodeID, len(b.arcs))
	copy(cur, pOff)
	for _, a := range b.arcs {
		tails[cur[a.To]] = a.From
		cur[a.To]++
	}
	cAdj := make([]NodeID, len(b.arcs))
	copy(cur, cOff)
	for v := 0; v < n; v++ {
		for _, u := range tails[pOff[v]:pOff[v+1]] {
			cAdj[cur[u]] = NodeID(v)
			cur[u]++
		}
	}
	// Drop the duplicates in place, compacting the rows leftwards.
	w := int32(0)
	for u := 0; u < n; u++ {
		lo, hi := cOff[u], cOff[u+1]
		cOff[u] = w
		for i := lo; i < hi; i++ {
			if i == lo || cAdj[i] != cAdj[w-1] {
				cAdj[w] = cAdj[i]
				w++
			}
		}
	}
	cOff[n] = w
	cAdj = cAdj[:w]

	// Parents: one pass over the children rows in increasing From order
	// fills every parents row sorted.  The tails buffer is reused.
	clear(pOff)
	for _, v := range cAdj {
		pOff[v+1]++
	}
	prefixSum(pOff)
	pAdj := tails[:w]
	copy(cur, pOff)
	for u := 0; u < n; u++ {
		for _, v := range cAdj[cOff[u]:cOff[u+1]] {
			pAdj[cur[v]] = NodeID(u)
			cur[v]++
		}
	}

	g := &Dag{n: n, cOff: cOff, cAdj: cAdj, pOff: pOff, pAdj: pAdj}
	if !g.acyclic(cur) {
		return nil, errCycle
	}
	if len(b.labels) > 0 {
		g.labels = make([]string, n)
		for v, l := range b.labels {
			g.labels[v] = l
		}
	}
	return g, nil
}

// checkLabels reports the smallest labeled node outside [0, n), if any.
func (b *Builder) checkLabels() error {
	bad, found := NodeID(0), false
	for v := range b.labels {
		if (v < 0 || int(v) >= b.n) && (!found || v < bad) {
			bad, found = v, true
		}
	}
	if found {
		return fmt.Errorf("dag: label on node %d out of range [0,%d)", bad, b.n)
	}
	return nil
}

// prefixSum turns per-node counts stored at off[v+1] into row offsets.
func prefixSum(off []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// acyclic runs Kahn's count over a plain stack: the dag is acyclic iff
// every node is eventually popped.  indeg is scratch of length n.
func (g *Dag) acyclic(indeg []int32) bool {
	stack := make([]NodeID, 0, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = int32(g.InDegree(NodeID(v)))
		if indeg[v] == 0 {
			stack = append(stack, NodeID(v))
		}
	}
	popped := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		popped++
		for _, v := range g.Children(u) {
			indeg[v]--
			if indeg[v] == 0 {
				stack = append(stack, v)
			}
		}
	}
	return popped == g.n
}

// MustBuild is Build but panics on error; for use with statically correct
// constructions (the paper's closed dag families).
func (b *Builder) MustBuild() *Dag {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// nodeHeap is a minimal binary min-heap of NodeIDs.
type nodeHeap struct{ xs []NodeID }

func (h *nodeHeap) len() int { return len(h.xs) }

func (h *nodeHeap) push(v NodeID) {
	h.xs = append(h.xs, v)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.xs[p] <= h.xs[i] {
			break
		}
		h.xs[p], h.xs[i] = h.xs[i], h.xs[p]
		i = p
	}
}

func (h *nodeHeap) pop() NodeID {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.xs) && h.xs[l] < h.xs[small] {
			small = l
		}
		if r < len(h.xs) && h.xs[r] < h.xs[small] {
			small = r
		}
		if small == i {
			break
		}
		h.xs[i], h.xs[small] = h.xs[small], h.xs[i]
		i = small
	}
	return top
}
