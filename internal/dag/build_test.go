package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refDag is what refBuild produces: the per-node rows of the sort-based
// construction Build used before it became linear.
type refDag struct {
	children, parents [][]NodeID
	arcs              int
	labels            []string // nil when no label was set
}

// refBuild is the reference for Build: validate, sort the arcs,
// coalesce duplicates, sort every parents row, then reject a cycle.
func refBuild(n int, arcs []Arc, labels map[NodeID]string) (*refDag, error) {
	for _, a := range arcs {
		if a.From < 0 || int(a.From) >= n || a.To < 0 || int(a.To) >= n {
			return nil, fmt.Errorf("dag: arc (%d->%d) out of range [0,%d)", a.From, a.To, n)
		}
		if a.From == a.To {
			return nil, fmt.Errorf("dag: self-loop at node %d", a.From)
		}
	}
	var bad []NodeID
	for v := range labels {
		if v < 0 || int(v) >= n {
			bad = append(bad, v)
		}
	}
	if len(bad) > 0 {
		sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
		return nil, fmt.Errorf("dag: label on node %d out of range [0,%d)", bad[0], n)
	}
	sorted := append([]Arc(nil), arcs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	r := &refDag{children: make([][]NodeID, n), parents: make([][]NodeID, n)}
	for i, a := range sorted {
		if i > 0 && a == sorted[i-1] {
			continue
		}
		r.children[a.From] = append(r.children[a.From], a.To)
		r.parents[a.To] = append(r.parents[a.To], a.From)
		r.arcs++
	}
	for _, ps := range r.parents {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	}
	indeg := make([]int, n)
	var ready []NodeID
	for v := range indeg {
		indeg[v] = len(r.parents[v])
		if indeg[v] == 0 {
			ready = append(ready, NodeID(v))
		}
	}
	seen := 0
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		seen++
		for _, v := range r.children[u] {
			if indeg[v]--; indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if seen != n {
		return nil, errCycle
	}
	if len(labels) > 0 {
		r.labels = make([]string, n)
		for v, l := range labels {
			r.labels[v] = l
		}
	}
	return r, nil
}

// fuzzInput decodes bytes into a node count, labels and arcs.  Byte 0
// gives n ≤ 23 and byte 1 the number of labels; every later byte b names
// the node b%(n+3)-1, so one endpoint in n+3 is out of range (-1, n or
// n+1).  Labels come first, then (From, To) pairs.
func fuzzInput(data []byte) (n int, labels map[NodeID]string, arcs []Arc) {
	if len(data) < 2 {
		return 0, nil, nil
	}
	n, nl := int(data[0])%24, int(data[1])%4
	data = data[2:]
	node := func(b byte) NodeID { return NodeID(int(b)%(n+3) - 1) }
	for ; nl > 0 && len(data) > 0; nl-- {
		if labels == nil {
			labels = make(map[NodeID]string)
		}
		labels[node(data[0])] = fmt.Sprintf("L%d", len(labels))
		data = data[1:]
	}
	for ; len(data) >= 2; data = data[2:] {
		arcs = append(arcs, Arc{node(data[0]), node(data[1])})
	}
	return n, labels, arcs
}

// fuzzBytes is fuzzInput's inverse for -1 ≤ node ≤ n+1.
func fuzzBytes(n int, labels []NodeID, arcs ...Arc) []byte {
	out := []byte{byte(n), byte(len(labels))}
	for _, v := range labels {
		out = append(out, byte(v+1))
	}
	for _, a := range arcs {
		out = append(out, byte(a.From+1), byte(a.To+1))
	}
	return out
}

func rowsEqual(a, b []NodeID) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }

// FuzzBuild checks the linear Build against refBuild: the same rows,
// arc count and labels, or the same error text.
func FuzzBuild(f *testing.F) {
	f.Add(fuzzBytes(0, nil))
	f.Add(fuzzBytes(0, []NodeID{0}))
	f.Add(fuzzBytes(3, nil, Arc{0, 1}, Arc{0, 2}, Arc{0, 1}, Arc{0, 2})) // duplicates
	f.Add(fuzzBytes(3, nil, Arc{2, 1}, Arc{2, 0}, Arc{1, 0}, Arc{2, 1})) // unsorted duplicates
	f.Add(fuzzBytes(3, nil, Arc{0, 1}, Arc{1, 1}))                       // self-loop
	f.Add(fuzzBytes(3, nil, Arc{0, 1}, Arc{1, 3}))                       // arc out of range
	f.Add(fuzzBytes(3, nil, Arc{-1, 1}))                                 // negative endpoint
	f.Add(fuzzBytes(3, []NodeID{1, 4}, Arc{0, 1}))                       // label out of range
	f.Add(fuzzBytes(3, []NodeID{-1}, Arc{0, 1}))                         // negative label
	f.Add(fuzzBytes(4, nil, Arc{0, 1}, Arc{1, 2}, Arc{2, 3}, Arc{3, 1})) // cycle
	f.Add(fuzzBytes(5, []NodeID{0, 4}, Arc{3, 4}, Arc{0, 4}, Arc{0, 1})) // labeled, unsorted
	f.Add(fuzzBytes(6, []NodeID{2}, Arc{5, 0}, Arc{4, 0}, Arc{3, 0}, Arc{5, 1}, Arc{5, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, labels, arcs := fuzzInput(data)
		b := NewBuilder(n)
		for _, a := range arcs {
			b.AddArc(a.From, a.To)
		}
		for v, l := range labels {
			b.SetLabel(v, l)
		}
		g, err := b.Build()
		want, werr := refBuild(n, arcs, labels)
		if err != nil || werr != nil {
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Fatalf("Build error %v, reference error %v", err, werr)
			}
			return
		}
		if g.NumNodes() != n || g.NumArcs() != want.arcs {
			t.Fatalf("%v, reference has %d nodes and %d arcs", g, n, want.arcs)
		}
		if g.Labeled() != (want.labels != nil) {
			t.Fatalf("Labeled() = %v, reference labels %q", g.Labeled(), want.labels)
		}
		for v := 0; v < n; v++ {
			id := NodeID(v)
			if !rowsEqual(g.Children(id), want.children[v]) || !rowsEqual(g.Parents(id), want.parents[v]) {
				t.Fatalf("node %d: children %v parents %v, reference %v and %v",
					v, g.Children(id), g.Parents(id), want.children[v], want.parents[v])
			}
			if want.labels != nil && g.Label(id) != want.labels[v] {
				t.Fatalf("node %d: label %q, reference %q", v, g.Label(id), want.labels[v])
			}
		}
	})
}

func TestBuildRejectsBadLabel(t *testing.T) {
	for _, tc := range []struct {
		label NodeID
		want  string
	}{
		{2, "dag: label on node 2 out of range [0,2)"},
		{-1, "dag: label on node -1 out of range [0,2)"},
	} {
		b := NewBuilder(2)
		b.AddArc(0, 1)
		b.SetLabel(0, "ok")
		b.SetLabel(tc.label, "bad")
		if _, err := b.Build(); err == nil || err.Error() != tc.want {
			t.Errorf("SetLabel(%d): Build error %v, want %q", tc.label, err, tc.want)
		}
	}
}

// snapshotRows copies every children and parents row of g.
func snapshotRows(g *Dag) [][]NodeID {
	var rows [][]NodeID
	for v := 0; v < g.NumNodes(); v++ {
		rows = append(rows, slices.Clone(g.Children(NodeID(v))), slices.Clone(g.Parents(NodeID(v))))
	}
	return rows
}

// TestViewsAreCapped appends to every row view of a built dag, of its
// dual (which shares the built dag's arrays) and of a sum: no append may
// show up in any other row of any of them.
func TestViewsAreCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Duplicates leave spare capacity behind the last row; keep some.
	b := NewBuilder(40)
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if u < v {
			b.AddArc(NodeID(u), NodeID(v))
			b.AddArc(NodeID(u), NodeID(v))
		}
	}
	g := b.MustBuild()
	d := g.Dual()
	s := Sum(g, Random(rng, 15, 0.3))
	dags := []*Dag{g, d, s}
	before := make([][][]NodeID, len(dags))
	for i, h := range dags {
		before[i] = snapshotRows(h)
	}
	for _, h := range dags {
		for v := 0; v < h.NumNodes(); v++ {
			_ = append(h.Children(NodeID(v)), -7)
			_ = append(h.Parents(NodeID(v)), -7)
		}
	}
	for i, h := range dags {
		if after := snapshotRows(h); !slices.EqualFunc(before[i], after, rowsEqual) {
			t.Fatalf("dag %d: appending to a row view changed another row", i)
		}
	}
	for v := 0; v < d.NumNodes(); v++ {
		if !rowsEqual(d.Children(NodeID(v)), g.Parents(NodeID(v))) || !rowsEqual(d.Parents(NodeID(v)), g.Children(NodeID(v))) {
			t.Fatalf("node %d: dual rows are not the reversed rows", v)
		}
	}
}
