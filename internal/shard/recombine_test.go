package shard

import (
	"math/rand"
	"testing"

	"icsched/internal/butterfly"
	"icsched/internal/compose"
	"icsched/internal/dag"
	"icsched/internal/dltdag"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/sched"
	"icsched/internal/trees"
	"icsched/internal/workflows"
)

// TestRecombinedRunMatchesSingleServer is the Theorem 2.1 witness on
// the paper's families: every cut, by every partitioner and K from 1 to
// 5, recombines the family's IC-optimal schedule into itself when the
// shards interleave in the global order, and into some legal schedule
// when they interleave at random (internal/difftest repeats this over
// its random instances).
func TestRecombinedRunMatchesSingleServer(t *testing.T) {
	outTree := trees.CompleteOutTree(2, 4)
	montage := workflows.Montage(6)
	families := []struct {
		name     string
		g        *dag.Dag
		nonsinks []dag.NodeID
	}{
		{"grid 8x8", mesh.Grid(8, 8), mesh.GridDiagonalNonsinks(8, 8)},
		{"outmesh 6", mesh.OutMesh(6), mesh.OutMeshNonsinks(6)},
		{"inmesh 6", mesh.InMesh(6), mesh.InMeshNonsinks(6)},
		{"butterfly 3", butterfly.Network(3), butterfly.Nonsinks(3)},
		{"prefix 16", prefix.Network(16), prefix.Nonsinks(16)},
		{"outtree 4", outTree, trees.OutTreeNonsinks(outTree)},
		{"montage 6", montage, sched.AnyTopoNonsinks(montage)},
	}
	rng := rand.New(rand.NewSource(1))
	for _, f := range families {
		order := sched.Complete(f.g, f.nonsinks)
		for k := 1; k <= 5; k++ {
			for _, cut := range []func() (*Partition, error){
				func() (*Partition, error) { return ByOrder(f.g, k, order) },
				func() (*Partition, error) { return ByOrder(f.g, k, f.g.TopoOrder()) },
				func() (*Partition, error) { return ByLevels(f.g, k) },
			} {
				p, err := cut()
				if err != nil {
					t.Fatalf("%s K=%d: %v", f.name, k, err)
				}
				if err := CheckRecombination(f.g, p, order, rng); err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
			}
		}
	}
}

// TestRecombineBlockCuts runs the property on cuts along ⇑-composition
// blocks, under each composition's own Theorem 2.1 schedule.
func TestRecombineBlockCuts(t *testing.T) {
	outMesh, err := mesh.OutMeshAsWComposition(6)
	if err != nil {
		t.Fatal(err)
	}
	dlt, err := dltdag.L(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for name, c := range map[string]*compose.Composer{"outmesh 6": outMesh, "dlt 8": dlt} {
		g, err := c.Dag()
		if err != nil {
			t.Fatal(err)
		}
		order, err := c.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 4; k++ {
			p, err := ByBlocks(c, k)
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			if err := CheckRecombination(g, p, order, rng); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestRecombinationCatchesBrokenCuts shows the property can fail: on a
// chain cut one node per shard, a cut with one cross arc recorded
// backwards stalls the global interleaving, and a cut whose tasks do not
// wait for their cross-shard parents lets a random interleaving run a
// child first.
func TestRecombinationCatchesBrokenCuts(t *testing.T) {
	const n = 4
	b := dag.NewBuilder(n)
	for v := 0; v < n-1; v++ {
		b.AddArc(dag.NodeID(v), dag.NodeID(v+1))
	}
	g := b.MustBuild()
	order := g.TopoOrder()
	cut := func() *Partition {
		p, err := ByOrder(g, n, order)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckRecombination(g, p, order, rand.New(rand.NewSource(3))); err != nil {
			t.Fatalf("intact cut: %v", err)
		}
		return p
	}

	reversed := cut() // arc 1 -> 2 recorded as 2 -> 1
	reversed.needIn[reversed.ShardOf[2]][reversed.LocalOf[2]]--
	reversed.needIn[reversed.ShardOf[1]][reversed.LocalOf[1]]++
	reversed.crossOut[1] = nil
	reversed.crossOut[2] = []dag.NodeID{1, 3}
	if err := CheckRecombination(g, reversed, order, rand.New(rand.NewSource(3))); err == nil {
		t.Fatal("a cut with a reversed cross arc passed")
	}

	ungated := cut()
	for i := range ungated.needIn {
		ungated.needIn[i] = map[dag.NodeID]int{}
	}
	if err := CheckRecombination(g, ungated, order, rand.New(rand.NewSource(3))); err == nil {
		t.Fatal("a cut whose tasks ignore their cross-shard parents passed")
	}
}
