package dag

// Transitive closure and reduction.  User-supplied workflow dags (package
// dagio) often carry redundant arcs; the reduction canonicalizes them
// without changing the dependency relation.  Because every removed arc
// (u -> v) is implied by a longer path, a node's parents in the reduction
// are all executed exactly when its parents in the original are, so every
// legal schedule of g is legal for the reduction with an identical
// eligibility profile — a property the test suite checks on random dags.

// TransitiveClosure returns the dag with an arc (u -> v) for every
// nonempty path u ⇝ v of g.
func (g *Dag) TransitiveClosure() *Dag {
	b := NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		reach := g.Reachable(NodeID(u))
		for v := 0; v < g.n; v++ {
			if reach[v] {
				b.AddArc(NodeID(u), NodeID(v))
			}
		}
	}
	return b.MustBuild()
}

// TransitiveReduction returns the unique minimal dag with the same
// reachability relation as g: an arc (u -> v) is kept iff no longer path
// u ⇝ v exists.
func (g *Dag) TransitiveReduction() *Dag {
	b := NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Children(NodeID(u)) {
			if !g.reachesAvoidingDirectArc(NodeID(u), v) {
				b.AddArc(NodeID(u), v)
			}
		}
	}
	red := b.MustBuild()
	if g.labels != nil {
		// Rebuild with labels preserved.
		lb := NewBuilder(g.n)
		for _, a := range red.Arcs() {
			lb.AddArc(a.From, a.To)
		}
		for v := 0; v < g.n; v++ {
			if l := g.labels[v]; l != "" {
				lb.SetLabel(NodeID(v), l)
			}
		}
		return lb.MustBuild()
	}
	return red
}

// reachesAvoidingDirectArc reports whether v is reachable from u via a
// path of length >= 2 (i.e. not using the direct arc u -> v alone).
func (g *Dag) reachesAvoidingDirectArc(u, v NodeID) bool {
	seen := make([]bool, g.n)
	var stack []NodeID
	for _, c := range g.Children(u) {
		if c != v {
			stack = append(stack, c)
			seen[c] = true
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		for _, c := range g.Children(x) {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}
