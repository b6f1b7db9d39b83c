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
// Nodes are dense integer IDs in [0, N).  All structural slices returned by
// query methods are shared, read-only views; callers must not mutate them.
package dag

import (
	"errors"
	"fmt"
	"sort"
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
type Dag struct {
	n        int
	children [][]NodeID // children[u] = sorted list of v with (u->v)
	parents  [][]NodeID // parents[v]  = sorted list of u with (u->v)
	labels   []string   // optional node labels ("" when unset)
	arcCount int
}

// NumNodes returns the number of nodes.
func (g *Dag) NumNodes() int { return g.n }

// NumArcs returns the number of arcs.
func (g *Dag) NumArcs() int { return g.arcCount }

// Children returns the children of u (nodes that depend on u).
// The returned slice is shared and must not be mutated.
func (g *Dag) Children(u NodeID) []NodeID { return g.children[u] }

// Parents returns the parents of v (nodes v depends on).
// The returned slice is shared and must not be mutated.
func (g *Dag) Parents(v NodeID) []NodeID { return g.parents[v] }

// InDegree returns the number of parents of v.
func (g *Dag) InDegree(v NodeID) int { return len(g.parents[v]) }

// OutDegree returns the number of children of u.
func (g *Dag) OutDegree(u NodeID) int { return len(g.children[u]) }

// IsSource reports whether v has no parents.
func (g *Dag) IsSource(v NodeID) bool { return len(g.parents[v]) == 0 }

// IsSink reports whether v has no children.
func (g *Dag) IsSink(v NodeID) bool { return len(g.children[v]) == 0 }

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
	out := make([]Arc, 0, g.arcCount)
	for u := 0; u < g.n; u++ {
		for _, v := range g.children[u] {
			out = append(out, Arc{NodeID(u), v})
		}
	}
	return out
}

// HasArc reports whether the arc (u -> v) is present.
func (g *Dag) HasArc(u, v NodeID) bool {
	cs := g.children[u]
	i := sort.Search(len(cs), func(i int) bool { return cs[i] >= v })
	return i < len(cs) && cs[i] == v
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
		for _, v := range g.children[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, v := range g.parents[u] {
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
// sinks interchange (§2.3.2).  Labels are preserved.
func (g *Dag) Dual() *Dag {
	d := &Dag{
		n:        g.n,
		children: make([][]NodeID, g.n),
		parents:  make([][]NodeID, g.n),
		arcCount: g.arcCount,
	}
	for v := 0; v < g.n; v++ {
		d.children[v] = append([]NodeID(nil), g.parents[v]...)
		d.parents[v] = append([]NodeID(nil), g.children[v]...)
	}
	if g.labels != nil {
		d.labels = append([]string(nil), g.labels...)
	}
	return d
}

// Sum returns the disjoint sum g + h (§2.3.1, footnote 4): the nodes of h
// are renumbered to follow those of g; no arcs are added between the parts.
func Sum(g, h *Dag) *Dag {
	s := &Dag{
		n:        g.n + h.n,
		children: make([][]NodeID, g.n+h.n),
		parents:  make([][]NodeID, g.n+h.n),
		arcCount: g.arcCount + h.arcCount,
	}
	for v := 0; v < g.n; v++ {
		s.children[v] = append([]NodeID(nil), g.children[v]...)
		s.parents[v] = append([]NodeID(nil), g.parents[v]...)
	}
	off := NodeID(g.n)
	shift := func(xs []NodeID) []NodeID {
		out := make([]NodeID, len(xs))
		for i, x := range xs {
			out[i] = x + off
		}
		return out
	}
	for v := 0; v < h.n; v++ {
		s.children[g.n+v] = shift(h.children[v])
		s.parents[g.n+v] = shift(h.parents[v])
	}
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

// TopoOrder returns a topological order of the nodes (Kahn's algorithm,
// smallest-ID-first for determinism).
func (g *Dag) TopoOrder() []NodeID {
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.parents[v])
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
		for _, v := range g.children[u] {
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
		for _, v := range g.children[u] {
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
		for _, v := range g.children[u] {
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
		for _, v := range g.children[x] {
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
	if g.n != h.n || g.arcCount != h.arcCount {
		return false
	}
	for u := 0; u < g.n; u++ {
		a, b := g.children[u], h.children[u]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
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
		for _, v := range g.children[u] {
			fmt.Fprintf(&b, "  %d -> %d;\n", u, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a compact structural summary.
func (g *Dag) String() string {
	return fmt.Sprintf("dag{nodes:%d arcs:%d sources:%d sinks:%d}",
		g.n, g.arcCount, len(g.Sources()), len(g.Sinks()))
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

// Build validates and freezes the dag.  It fails if an arc endpoint is out
// of range, if a self-loop is present, or if the arc set contains a cycle.
func (b *Builder) Build() (*Dag, error) {
	g := &Dag{
		n:        b.n,
		children: make([][]NodeID, b.n),
		parents:  make([][]NodeID, b.n),
	}
	for _, a := range b.arcs {
		if a.From < 0 || int(a.From) >= b.n || a.To < 0 || int(a.To) >= b.n {
			return nil, fmt.Errorf("dag: arc (%d->%d) out of range [0,%d)", a.From, a.To, b.n)
		}
		if a.From == a.To {
			return nil, fmt.Errorf("dag: self-loop at node %d", a.From)
		}
	}
	sort.Slice(b.arcs, func(i, j int) bool {
		if b.arcs[i].From != b.arcs[j].From {
			return b.arcs[i].From < b.arcs[j].From
		}
		return b.arcs[i].To < b.arcs[j].To
	})
	var prev Arc
	first := true
	for _, a := range b.arcs {
		if !first && a == prev {
			continue // coalesce duplicates
		}
		first, prev = false, a
		g.children[a.From] = append(g.children[a.From], a.To)
		g.parents[a.To] = append(g.parents[a.To], a.From)
		g.arcCount++
	}
	for v := range g.parents {
		sort.Slice(g.parents[v], func(i, j int) bool { return g.parents[v][i] < g.parents[v][j] })
	}
	if len(g.TopoOrder()) != g.n {
		return nil, errCycle
	}
	if len(b.labels) > 0 {
		g.labels = make([]string, g.n)
		for v, l := range b.labels {
			g.labels[v] = l
		}
	}
	return g, nil
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
