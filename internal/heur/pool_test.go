package heur_test

import (
	"math/rand"
	"sort"
	"testing"

	"icsched/internal/blocks"
	"icsched/internal/butterfly"
	"icsched/internal/compose"
	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/sched"
)

// sortedPool is the sort-based Static instance RankPool replaced, kept as
// the differential oracle: it re-sorts its whole pool on every Offer.  Its
// rank table is derived its own way (not through heur.Ranks): the first
// occurrence of a node wins, out-of-range entries are skipped, unlisted
// nodes go after every listed one by ID.
type sortedPool struct {
	rank []int
	pool []dag.NodeID
}

func newSortedPool(n int, order []dag.NodeID) *sortedPool {
	rank := make([]int, n)
	for v := range rank {
		rank[v] = len(order) + v
	}
	for i := len(order) - 1; i >= 0; i-- { // backwards: the first occurrence wins
		if v := order[i]; v >= 0 && int(v) < n {
			rank[v] = i
		}
	}
	return &sortedPool{rank: rank}
}

func (s *sortedPool) Offer(nodes []dag.NodeID) {
	s.pool = append(s.pool, nodes...)
	sort.Slice(s.pool, func(i, j int) bool { return s.rank[s.pool[i]] < s.rank[s.pool[j]] })
}

func (s *sortedPool) Next() (dag.NodeID, bool) {
	if len(s.pool) == 0 {
		return 0, false
	}
	v := s.pool[0]
	s.pool = s.pool[1:]
	return v, true
}

// scanPool is the linear-scan instance the fixed-score policies used
// before they became RankPools, kept as their oracle.
type scanPool struct {
	better func(a, b dag.NodeID) bool
	pool   []dag.NodeID
}

func (s *scanPool) Offer(nodes []dag.NodeID) { s.pool = append(s.pool, nodes...) }

func (s *scanPool) Next() (dag.NodeID, bool) {
	if len(s.pool) == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < len(s.pool); i++ {
		if s.better(s.pool[i], s.pool[best]) {
			best = i
		}
	}
	v := s.pool[best]
	s.pool[best] = s.pool[len(s.pool)-1]
	s.pool = s.pool[:len(s.pool)-1]
	return v, true
}

// scanPolicy is a fixed-score policy on the old scan: larger score first
// when desc, ties by smaller ID.
type scanPolicy struct {
	name  string
	score func(*dag.Dag) []int
	desc  bool
}

func (p scanPolicy) Name() string { return p.name }

func (p scanPolicy) Start(g *dag.Dag) heur.Instance {
	score := p.score(g)
	return &scanPool{better: func(a, b dag.NodeID) bool {
		if score[a] != score[b] {
			return (score[a] > score[b]) == p.desc
		}
		return a < b
	}}
}

func outDegrees(g *dag.Dag) []int {
	deg := make([]int, g.NumNodes())
	for v := range deg {
		deg[v] = g.OutDegree(dag.NodeID(v))
	}
	return deg
}

// scanOracles maps each fixed-score policy of heur.Standard to its old
// implementation; the other four (FIFO, LIFO, RANDOM, MAX-NEW-ELIGIBLE)
// never scanned by a fixed score (MAX-NEW-ELIGIBLE's rescan oracle is in
// maxnew_test.go).
var scanOracles = map[string]heur.Policy{
	"MAX-OUTDEGREE": scanPolicy{"MAX-OUTDEGREE", outDegrees, true},
	"MIN-DEPTH":     scanPolicy{"MIN-DEPTH", (*dag.Dag).Depths, false},
	"MAX-DEPTH":     scanPolicy{"MAX-DEPTH", (*dag.Dag).Depths, true},
	"MAX-HEIGHT":    scanPolicy{"MAX-HEIGHT", (*dag.Dag).Heights, true},
}

// composedDag is a ⇑-composition of the paper's building blocks — the
// fifth difftest shape: each block after the first merges its leading
// sources with the running composite's leading sinks.
func composedDag(t *testing.T) *dag.Dag {
	t.Helper()
	var c compose.Composer
	if err := c.Add(blocks.WBlock(3), nil); err != nil {
		t.Fatal(err)
	}
	for _, next := range []struct {
		b      compose.Block
		merged int
	}{{blocks.ButterflyBlock(), 2}, {blocks.LambdaDBlock(3), 1}, {blocks.VeeDBlock(4), 1}} {
		g, err := c.Dag()
		if err != nil {
			t.Fatal(err)
		}
		var merges []compose.Merge
		for i := 0; i < next.merged; i++ {
			merges = append(merges, compose.Merge{Source: next.b.G.Sources()[i], Sink: g.Sinks()[i]})
		}
		if err := c.Add(next.b, merges); err != nil {
			t.Fatal(err)
		}
	}
	g, err := c.Dag()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScoredPoliciesMatchScan pins the fixed-score policies to the grant
// sequence of the per-grant linear scan they replaced, on the five
// difftest shapes and a butterfly.
func TestScoredPoliciesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dags := map[string]*dag.Dag{
		"gnp":             dag.Random(rng, 60, 0.15),
		"connected":       dag.RandomConnected(rng, 60, 0.1),
		"layered":         dag.RandomLayered(rng, []int{9, 14, 11, 13}, 3),
		"series-parallel": dag.RandomSeriesParallel(rng, 50),
		"composed":        composedDag(t),
		"butterfly-6":     butterfly.Network(6),
	}
	checked := 0
	for _, p := range heur.Standard(1) {
		oracle, ok := scanOracles[p.Name()]
		if !ok {
			continue
		}
		checked++
		for shape, g := range dags {
			got, err := heur.RunOrder(g, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := heur.RunOrder(g, oracle)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s on %s: step %d allocates %d, the scan allocated %d", p.Name(), shape, i, got[i], want[i])
				}
			}
		}
	}
	if checked != len(scanOracles) {
		t.Fatalf("heur.Standard holds %d of the %d fixed-score policies", checked, len(scanOracles))
	}
}

// checkPoolScript drives a RankPool and the sort-based oracle through the
// same Offer/Next interleaving and requires identical Next results.  Each
// order entry is two bytes mapped onto [-4, n+4), so orders come with
// duplicates, gaps and out-of-range entries.  An op byte below 128 is a
// Next; any other offers a packet of 1..8 not-yet-offered nodes, each
// picked by the following byte — in no particular rank order, so the
// pool's low-water hint has to rewind.  When the script ends the rest is
// offered and both pools are drained.
func checkPoolScript(t *testing.T, n int, orderBytes, ops []byte) {
	t.Helper()
	n = 1 + n%300
	order := make([]dag.NodeID, 0, len(orderBytes)/2)
	for i := 0; i+1 < len(orderBytes); i += 2 {
		order = append(order, dag.NodeID((int(orderBytes[i])<<8|int(orderBytes[i+1]))%(n+8)-4))
	}
	pool, oracle := heur.NewRankPool(n, order), newSortedPool(n, order)
	next := func() bool {
		got, gotOK := pool.Next()
		want, wantOK := oracle.Next()
		if got != want || gotOK != wantOK {
			t.Fatalf("n=%d order=%v: Next = (%d, %v), sort-based oracle (%d, %v)", n, order, got, gotOK, want, wantOK)
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
		pool.Offer(packet)
		oracle.Offer(packet)
	}
	pool.Offer(unoffered)
	oracle.Offer(unoffered)
	for next() {
	}
}

func TestStaticPoolMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		orderBytes := make([]byte, 2*rng.Intn(400))
		ops := make([]byte, rng.Intn(600))
		rng.Read(orderBytes)
		rng.Read(ops)
		checkPoolScript(t, rng.Intn(300), orderBytes, ops)
	}
}

// TestStaticPoolRewindsLowWater offers a low rank after the pool has
// advanced past its word.
func TestStaticPoolRewindsLowWater(t *testing.T) {
	pool := heur.NewRankPool(200, nil) // rank = ID
	for _, v := range []dag.NodeID{150, 3, 199, 64, 0} {
		pool.Offer([]dag.NodeID{v})
		if got, ok := pool.Next(); !ok || got != v {
			t.Fatalf("Next = (%d, %v) after offering only %d", got, ok, v)
		}
		if _, ok := pool.Next(); ok {
			t.Fatalf("pool not empty after its only node %d was allocated", v)
		}
	}
}

// TestRanksTotalOnAnyOrder pins the rule every grant core shares.
func TestRanksTotalOnAnyOrder(t *testing.T) {
	rank, byRank := heur.Ranks(6, []dag.NodeID{4, -1, 2, 4, 9, 0, 2})
	wantByRank := []dag.NodeID{4, 2, 0, 1, 3, 5}
	for r, v := range wantByRank {
		if byRank[r] != v || rank[v] != int32(r) {
			t.Fatalf("Ranks: byRank = %v, rank = %v, want byRank %v", byRank, rank, wantByRank)
		}
	}
}

// FuzzStaticPool starts from the scripts in testdata/fuzz/FuzzStaticPool.
func FuzzStaticPool(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, orderBytes, ops []byte) {
		checkPoolScript(t, int(n), orderBytes, ops)
	})
}

// BenchmarkStaticWideFrontier replays the IC-optimal schedule of the d=11
// butterfly (24,576 nodes, frontier 2048 wide) — the shape on which a
// per-Offer cost that grows with the frontier shows.
func BenchmarkStaticWideFrontier(b *testing.B) {
	g := butterfly.Network(11)
	p := heur.Static("IC-OPTIMAL", sched.Complete(g, butterfly.Nonsinks(11)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heur.RunOrder(g, p); err != nil {
			b.Fatal(err)
		}
	}
}
