package dag

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// vee builds the Vee dag V of Fig. 1: one source w with two children.
func vee(t *testing.T) *Dag {
	t.Helper()
	b := NewBuilder(3)
	b.AddArc(0, 1)
	b.AddArc(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build vee: %v", err)
	}
	return g
}

func TestEmptyDag(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumNodes() != 0 || g.NumArcs() != 0 {
		t.Fatalf("empty dag got %v", g)
	}
	if !g.Connected() {
		t.Fatal("empty dag should be vacuously connected")
	}
	if g.CriticalPathLen() != 0 {
		t.Fatalf("critical path of empty dag = %d", g.CriticalPathLen())
	}
}

func TestSingleNode(t *testing.T) {
	g := NewBuilder(1).MustBuild()
	if !g.IsSource(0) || !g.IsSink(0) {
		t.Fatal("isolated node must be both source and sink")
	}
	if got := g.CriticalPathLen(); got != 1 {
		t.Fatalf("critical path = %d, want 1", got)
	}
}

func TestVeeStructure(t *testing.T) {
	g := vee(t)
	if g.NumNodes() != 3 || g.NumArcs() != 2 {
		t.Fatalf("vee shape wrong: %v", g)
	}
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 2 {
		t.Fatalf("sinks = %v", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(1) != 1 || g.InDegree(2) != 1 {
		t.Fatal("degrees wrong")
	}
	if !g.HasArc(0, 1) || g.HasArc(1, 0) || g.HasArc(1, 2) {
		t.Fatal("HasArc wrong")
	}
	if !g.Connected() {
		t.Fatal("vee is connected")
	}
}

func TestParentsAndString(t *testing.T) {
	g := vee(t)
	if ps := g.Parents(1); len(ps) != 1 || ps[0] != 0 {
		t.Fatalf("parents = %v", ps)
	}
	if ps := g.Parents(0); len(ps) != 0 {
		t.Fatalf("root parents = %v", ps)
	}
	if s := g.String(); !strings.Contains(s, "nodes:3") || !strings.Contains(s, "arcs:2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBuilderNumNodes(t *testing.T) {
	b := NewBuilder(2)
	if b.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", b.NumNodes())
	}
	b.AddNode()
	if b.NumNodes() != 3 {
		t.Fatalf("NumNodes after AddNode = %d", b.NumNodes())
	}
}

func TestDualInterchangesSourcesAndSinks(t *testing.T) {
	g := vee(t)
	d := g.Dual()
	if len(d.Sources()) != 2 || len(d.Sinks()) != 1 {
		t.Fatalf("dual of vee should be lambda: sources=%v sinks=%v", d.Sources(), d.Sinks())
	}
	if !d.HasArc(1, 0) || !d.HasArc(2, 0) {
		t.Fatal("dual arcs wrong")
	}
}

func TestDualOfDualIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Random(r, 2+r.Intn(12), 0.3)
		return Equal(g, g.Dual().Dual())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestDualPreservesCounts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Random(r, 1+r.Intn(15), 0.4)
		d := g.Dual()
		return d.NumNodes() == g.NumNodes() && d.NumArcs() == g.NumArcs() &&
			len(d.Sources()) == len(g.Sinks()) && len(d.Sinks()) == len(g.Sources())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSum(t *testing.T) {
	g := vee(t)
	h := vee(t)
	s := Sum(g, h)
	if s.NumNodes() != 6 || s.NumArcs() != 4 {
		t.Fatalf("sum shape: %v", s)
	}
	if !s.HasArc(3, 4) || !s.HasArc(3, 5) {
		t.Fatal("offset arcs missing")
	}
	if s.Connected() {
		t.Fatal("disjoint sum of two dags must be disconnected")
	}
	if len(s.Sources()) != 2 || len(s.Sinks()) != 4 {
		t.Fatal("sum sources/sinks wrong")
	}
}

func TestSumWithEmpty(t *testing.T) {
	g := vee(t)
	e := NewBuilder(0).MustBuild()
	if s := Sum(g, e); !Equal(s, g) {
		t.Fatal("g + empty != g")
	}
	if s := Sum(e, g); !Equal(s, g) {
		t.Fatal("empty + g != g")
	}
}

func TestCycleRejected(t *testing.T) {
	b := NewBuilder(3)
	b.AddArc(0, 1)
	b.AddArc(1, 2)
	b.AddArc(2, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not rejected")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	b := NewBuilder(2)
	b.AddArc(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop not rejected")
	}
}

func TestOutOfRangeArcRejected(t *testing.T) {
	b := NewBuilder(2)
	b.AddArc(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range arc not rejected")
	}
	b2 := NewBuilder(2)
	b2.AddArc(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("negative arc endpoint not rejected")
	}
}

func TestDuplicateArcsCoalesced(t *testing.T) {
	b := NewBuilder(2)
	b.AddArc(0, 1)
	b.AddArc(0, 1)
	b.AddArc(0, 1)
	g := b.MustBuild()
	if g.NumArcs() != 1 {
		t.Fatalf("duplicates not coalesced: %d arcs", g.NumArcs())
	}
}

func TestTopoOrderIsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Random(r, 1+r.Intn(20), 0.3)
		order := g.TopoOrder()
		if len(order) != g.NumNodes() {
			return false
		}
		pos := make([]int, g.NumNodes())
		for i, v := range order {
			pos[v] = i
		}
		for _, a := range g.Arcs() {
			if pos[a.From] >= pos[a.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthsAndHeights(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3.
	b := NewBuilder(4)
	b.AddArc(0, 1)
	b.AddArc(1, 2)
	b.AddArc(2, 3)
	g := b.MustBuild()
	wantD := []int{0, 1, 2, 3}
	wantH := []int{3, 2, 1, 0}
	d, h := g.Depths(), g.Heights()
	for i := range wantD {
		if d[i] != wantD[i] || h[i] != wantH[i] {
			t.Fatalf("depth/height[%d] = %d/%d, want %d/%d", i, d[i], h[i], wantD[i], wantH[i])
		}
	}
	if g.CriticalPathLen() != 4 {
		t.Fatalf("critical path = %d", g.CriticalPathLen())
	}
}

func TestDepthPlusHeightBoundsCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Random(r, 1+r.Intn(15), 0.35)
		d, h := g.Depths(), g.Heights()
		cp := g.CriticalPathLen()
		for v := 0; v < g.NumNodes(); v++ {
			if d[v]+h[v]+1 > cp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReachable(t *testing.T) {
	g := vee(t)
	r := g.Reachable(0)
	if !r[1] || !r[2] || r[0] {
		t.Fatalf("reachable from root = %v", r)
	}
	r = g.Reachable(1)
	if r[0] || r[1] || r[2] {
		t.Fatalf("leaf should reach nothing: %v", r)
	}
}

func TestLabels(t *testing.T) {
	b := &Builder{}
	w := b.AddLabeledNode("w")
	x := b.AddNode()
	b.AddArc(w, x)
	g := b.MustBuild()
	if g.Label(w) != "w" || g.Label(x) != "" {
		t.Fatal("labels wrong")
	}
	if g.Name(w) != "w" || g.Name(x) != "n1" {
		t.Fatalf("names wrong: %q %q", g.Name(w), g.Name(x))
	}
	if !g.Labeled() {
		t.Fatal("labeled dag reports no labels")
	}
	plain := NewBuilder(12).MustBuild()
	if plain.Labeled() || plain.Name(11) != "n11" || DefaultName(-3) != "n-3" {
		t.Fatalf("unlabeled dag: Labeled %v, Name(11) %q", plain.Labeled(), plain.Name(11))
	}
}

func TestDOTContainsAllNodesAndArcs(t *testing.T) {
	g := vee(t)
	dot := g.DOT("vee")
	for _, want := range []string{"digraph", "0 -> 1", "0 -> 2"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestEqual(t *testing.T) {
	g := vee(t)
	h := vee(t)
	if !Equal(g, h) {
		t.Fatal("identical dags not Equal")
	}
	b := NewBuilder(3)
	b.AddArc(0, 1)
	if Equal(g, b.MustBuild()) {
		t.Fatal("different dags Equal")
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := RandomConnected(r, 1+r.Intn(20), 0.1)
		return g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomLayered(rng, []int{3, 5, 2}, 2)
	if g.NumNodes() != 10 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every non-first-layer node must have at least one parent.
	for v := 3; v < 10; v++ {
		if g.InDegree(NodeID(v)) == 0 {
			t.Fatalf("layered node %d has no parent", v)
		}
	}
	// First layer nodes are sources.
	for v := 0; v < 3; v++ {
		if !g.IsSource(NodeID(v)) {
			t.Fatalf("layer-0 node %d is not a source", v)
		}
	}
}

func TestNonSinksNonSources(t *testing.T) {
	g := vee(t)
	if ns := g.NonSinks(); len(ns) != 1 || ns[0] != 0 {
		t.Fatalf("nonsinks = %v", ns)
	}
	if ns := g.NonSources(); len(ns) != 2 {
		t.Fatalf("nonsources = %v", ns)
	}
}

func TestArcsSorted(t *testing.T) {
	b := NewBuilder(4)
	b.AddArc(2, 3)
	b.AddArc(0, 1)
	b.AddArc(0, 3)
	g := b.MustBuild()
	arcs := g.Arcs()
	want := []Arc{{0, 1}, {0, 3}, {2, 3}}
	if len(arcs) != len(want) {
		t.Fatalf("arcs = %v", arcs)
	}
	for i := range want {
		if arcs[i] != want[i] {
			t.Fatalf("arcs = %v, want %v", arcs, want)
		}
	}
}
