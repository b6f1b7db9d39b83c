package heur_test

import (
	"math/rand"
	"testing"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/mesh"
)

// quadMaxNew is the per-pick rescan MAX-NEW-ELIGIBLE used before its
// scores were kept incrementally, kept as the differential oracle: every
// Next recounts each pooled node's children whose remaining count is 1.
type quadMaxNew struct {
	g         *dag.Dag
	byOffer   bool
	remaining []int
	seq       []int // offer sequence per node
	offers    int
	pool      []dag.NodeID
}

type quadMaxNewPolicy struct{ tie heur.TieBreak }

func (p quadMaxNewPolicy) Name() string { return "quadratic MAX-NEW-ELIGIBLE/" + string(p.tie) }

func (p quadMaxNewPolicy) Start(g *dag.Dag) heur.Instance {
	q := &quadMaxNew{g: g, byOffer: p.tie == heur.TieByOffer,
		remaining: make([]int, g.NumNodes()), seq: make([]int, g.NumNodes())}
	for v := range q.remaining {
		q.remaining[v] = g.InDegree(dag.NodeID(v))
	}
	return q
}

func (q *quadMaxNew) Offer(nodes []dag.NodeID) {
	for _, v := range nodes {
		q.seq[v] = q.offers
		q.offers++
	}
	q.pool = append(q.pool, nodes...)
}

func (q *quadMaxNew) key(v dag.NodeID) int {
	if q.byOffer {
		return q.seq[v]
	}
	return int(v)
}

func (q *quadMaxNew) Next() (dag.NodeID, bool) {
	if len(q.pool) == 0 {
		return 0, false
	}
	best, bestScore := 0, -1
	for i, v := range q.pool {
		score := 0
		for _, c := range q.g.Children(v) {
			if q.remaining[c] == 1 {
				score++
			}
		}
		if score > bestScore || (score == bestScore && q.key(v) < q.key(q.pool[best])) {
			best, bestScore = i, score
		}
	}
	v := q.pool[best]
	q.pool[best] = q.pool[len(q.pool)-1]
	q.pool = q.pool[:len(q.pool)-1]
	for _, c := range q.g.Children(v) {
		q.remaining[c]--
	}
	return v, true
}

var tieBreaks = []heur.TieBreak{heur.TieByID, heur.TieByOffer}

// checkMaxNewRun requires RunOrder under both tie-breaks to match the
// quadratic oracle step for step.
func checkMaxNewRun(t *testing.T, name string, g *dag.Dag) {
	t.Helper()
	for _, tie := range tieBreaks {
		got, err := heur.RunOrder(g, heur.MaxNewEligibleBy(tie))
		if err != nil {
			t.Fatal(err)
		}
		want, err := heur.RunOrder(g, quadMaxNewPolicy{tie})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s, ties by %s: step %d allocates %d, the quadratic scan %d", name, tie, i, got[i], want[i])
			}
		}
	}
}

// checkMaxNewScript builds a dag of 1..64 nodes from arcBytes (a byte
// pair per arc, oriented from the smaller ID) and drives the instance
// and the oracle through the same Offer/Next interleaving, as
// checkPoolScript does: an op byte below 128 is a Next, any other offers
// 1..8 not-yet-offered nodes picked by the following bytes, whether or
// not their parents were allocated.  When the script ends the rest is
// offered and both are drained.
func checkMaxNewScript(t *testing.T, n int, arcBytes, ops []byte, tie heur.TieBreak) {
	t.Helper()
	n = 1 + n%64
	b := dag.NewBuilder(n)
	for i := 0; i+1 < len(arcBytes); i += 2 {
		u, v := dag.NodeID(int(arcBytes[i])%n), dag.NodeID(int(arcBytes[i+1])%n)
		if u > v {
			u, v = v, u
		}
		if u != v {
			b.AddArc(u, v)
		}
	}
	g := b.MustBuild()
	checkMaxNewRun(t, "fuzzed dag", g)
	inst, oracle := heur.MaxNewEligibleBy(tie).Start(g), quadMaxNewPolicy{tie}.Start(g)
	next := func() bool {
		got, gotOK := inst.Next()
		want, wantOK := oracle.Next()
		if got != want || gotOK != wantOK {
			t.Fatalf("%v, ties by %s: Next = (%d, %v), quadratic oracle (%d, %v)", g.Arcs(), tie, got, gotOK, want, wantOK)
		}
		return gotOK
	}
	unoffered := make([]dag.NodeID, n)
	for v := range unoffered {
		unoffered[v] = dag.NodeID(v)
	}
	var packet []dag.NodeID
	for i := 0; i < len(ops); i++ {
		if ops[i] < 128 {
			next()
			continue
		}
		packet = packet[:0]
		for size := int(ops[i]&7) + 1; size > 0 && len(unoffered) > 0 && i+1 < len(ops); size-- {
			i++
			j := int(ops[i]) % len(unoffered)
			packet = append(packet, unoffered[j])
			unoffered[j] = unoffered[len(unoffered)-1]
			unoffered = unoffered[:len(unoffered)-1]
		}
		inst.Offer(packet)
		oracle.Offer(packet)
	}
	inst.Offer(unoffered)
	oracle.Offer(unoffered)
	for next() {
	}
}

// TestMaxNewEligibleMatchesQuadratic pins both tie-breaks to the rescan
// on the difftest shapes, grids and butterflies, and on random scripts.
func TestMaxNewEligibleMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	dags := map[string]*dag.Dag{
		"gnp":             dag.Random(rng, 60, 0.15),
		"connected":       dag.RandomConnected(rng, 60, 0.1),
		"layered":         dag.RandomLayered(rng, []int{9, 14, 11, 13}, 3),
		"series-parallel": dag.RandomSeriesParallel(rng, 50),
		"composed":        composedDag(t),
		"butterfly-5":     butterfly.Network(5),
		"grid-24":         mesh.Grid(24, 24),
		"outmesh-9":       mesh.OutMesh(9),
	}
	for name, g := range dags {
		checkMaxNewRun(t, name, g)
	}
	for i := 0; i < 300; i++ {
		arcs := make([]byte, 2*rng.Intn(200))
		ops := make([]byte, rng.Intn(200))
		rng.Read(arcs)
		rng.Read(ops)
		checkMaxNewScript(t, rng.Intn(64), arcs, ops, tieBreaks[i%2])
	}
}

// FuzzMaxNewEligible drives the incremental instance against the
// quadratic one; the low bit of tie picks the tie-break.
func FuzzMaxNewEligible(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 0, 2, 1, 3, 2, 3, 3, 4}, []byte{200, 0, 1, 2, 0, 0, 255, 3, 4, 0, 0, 0}, uint8(0))
	f.Add(uint8(9), []byte{0, 3, 1, 3, 1, 4, 2, 4, 3, 6, 4, 6, 4, 7, 5, 7, 6, 8}, []byte{130, 9, 8, 7, 0, 0, 131, 1, 2, 3, 4, 0}, uint8(1))
	f.Add(uint8(40), []byte{}, []byte{255, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, n uint8, arcBytes, ops []byte, tie uint8) {
		checkMaxNewScript(t, int(n), arcBytes, ops, tieBreaks[tie&1])
	})
}

// twoLayer is w sources each feeding its own sink: every pick scores 1,
// so the whole run is ties, and a frontier w wide.
func twoLayer(w int) *dag.Dag {
	b := dag.NewBuilder(2 * w)
	for i := 0; i < w; i++ {
		b.AddArc(dag.NodeID(i), dag.NodeID(w+i))
	}
	return b.MustBuild()
}

// BenchmarkMaxNewEligible runs MAX-NEW-ELIGIBLE (ties by ID) to
// completion on a two-layer dag w = 40,000 wide, the 112×112 grid and a
// random layered dag.
func BenchmarkMaxNewEligible(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	layers := make([]int, 40)
	for i := range layers {
		layers[i] = 200 + rng.Intn(300)
	}
	for _, c := range []struct {
		name string
		g    *dag.Dag
	}{
		{"two-layer-40k", twoLayer(40000)},
		{"grid-112", mesh.Grid(112, 112)},
		{"random-layered", dag.RandomLayered(rng, layers, 3)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := heur.RunOrder(c.g, heur.MaxNewEligible()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
