package opt

import (
	"errors"
	"math/rand"
	"testing"

	"icsched/internal/blocks"
	"icsched/internal/compose"
	"icsched/internal/dag"
	"icsched/internal/mesh"
)

// AnalyzeWorkers is Analyze with an explicit worker count (≤ 1 runs the
// sequential frontier scan), for the worker-invariance checks.
func AnalyzeWorkers(g *dag.Dag, workers int) (*Lattice, error) {
	return analyze(g, workers, defaultBudget)
}

// agreesWithLegacy checks every externally observable answer of the
// frontier lattice against the retained-lattice legacy oracle on the
// same dag: maxE profile, ideal count, admits, witness legality and
// optimality (in both directions), and the schedule counters.
func agreesWithLegacy(t *testing.T, g *dag.Dag, workers int) {
	t.Helper()
	l, err := AnalyzeWorkers(g, workers)
	if err != nil {
		t.Fatalf("AnalyzeWorkers(%d): %v", workers, err)
	}
	ref, err := AnalyzeLegacy(g)
	if err != nil {
		t.Fatalf("AnalyzeLegacy: %v", err)
	}
	gotE, wantE := l.MaxE(), ref.MaxE()
	if len(gotE) != len(wantE) {
		t.Fatalf("MaxE length = %d, legacy %d", len(gotE), len(wantE))
	}
	for i := range gotE {
		if gotE[i] != wantE[i] {
			t.Fatalf("MaxE[%d] = %d, legacy %d (full: %v vs %v)", i, gotE[i], wantE[i], gotE, wantE)
		}
	}
	if l.NumIdeals() != ref.NumIdeals() {
		t.Fatalf("NumIdeals = %d, legacy %d", l.NumIdeals(), ref.NumIdeals())
	}
	if l.Exists() != ref.Exists() {
		t.Fatalf("Exists = %v, legacy %v", l.Exists(), ref.Exists())
	}
	order, ok := l.OptimalSchedule()
	refOrder, refOK := ref.OptimalSchedule()
	if ok != refOK {
		t.Fatalf("OptimalSchedule ok = %v, legacy %v", ok, refOK)
	}
	if ok {
		// Each oracle's witness must be optimal under the other.
		if opt, step, err := ref.IsOptimal(order); err != nil || !opt {
			t.Fatalf("legacy rejects frontier witness %v: opt=%v step=%d err=%v", order, opt, step, err)
		}
		if opt, step, err := l.IsOptimal(refOrder); err != nil || !opt {
			t.Fatalf("frontier rejects legacy witness %v: opt=%v step=%d err=%v", refOrder, opt, step, err)
		}
	}
	if got, want := l.CountSchedules(), ref.CountSchedules(); got.Cmp(want) != 0 {
		t.Fatalf("CountSchedules = %v, legacy %v", got, want)
	}
	if got, want := l.CountOptimal(), ref.CountOptimal(); got.Cmp(want) != 0 {
		t.Fatalf("CountOptimal = %v, legacy %v", got, want)
	}
}

// randomComposition draws a ⇑-composition of up to three of the paper's
// building blocks (§2.3.1, Fig. 1), merging a random subset of the
// composite's sinks with the incoming block's sources.
func randomComposition(t *testing.T, rng *rand.Rand) *dag.Dag {
	t.Helper()
	var c compose.Composer
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		var b compose.Block
		switch rng.Intn(4) {
		case 0:
			b = blocks.VeeDBlock(2 + rng.Intn(3))
		case 1:
			b = blocks.LambdaDBlock(2 + rng.Intn(3))
		case 2:
			b = blocks.WBlock(2 + rng.Intn(3))
		default:
			b = blocks.ButterflyBlock()
		}
		var merges []compose.Merge
		if i > 0 {
			g, err := c.Dag()
			if err != nil {
				t.Fatal(err)
			}
			sinks, sources := g.Sinks(), b.G.Sources()
			rng.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
			for j, k := 0, rng.Intn(min(len(sinks), len(sources))+1); j < k; j++ {
				merges = append(merges, compose.Merge{Source: sources[j], Sink: sinks[j]})
			}
		}
		if err := c.Add(b, merges); err != nil {
			t.Fatal(err)
		}
	}
	g, err := c.Dag()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFrontierMatchesLegacyRandom cross-checks the frontier oracle
// against the legacy oracle on seeded random dags of every generator
// family internal/difftest draws from (gnp, connected, layered,
// series-parallel, ⇑-composed), with both a parallel and a workers=1
// (sequential degeneration) frontier run.
func TestFrontierMatchesLegacyRandom(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 120; i++ {
			var g *dag.Dag
			switch i % 5 {
			case 0:
				g = dag.Random(rng, 1+rng.Intn(14), 0.05+0.45*rng.Float64())
			case 1:
				g = dag.RandomConnected(rng, 1+rng.Intn(14), 0.05+0.3*rng.Float64())
			case 2:
				layers := make([]int, 2+rng.Intn(3))
				for j := range layers {
					layers[j] = 1 + rng.Intn(4)
				}
				g = dag.RandomLayered(rng, layers, 1+rng.Intn(3))
			case 3:
				g = dag.RandomSeriesParallel(rng, rng.Intn(12))
			default:
				if g = randomComposition(t, rng); g.NumNodes() > LegacyMaxNodes {
					continue
				}
			}
			agreesWithLegacy(t, g, workers)
		}
	}
}

// TestFrontierMatchesLegacyStructured cross-checks the oracles on the
// paper's structured dags, including ones wide enough to force the
// parallel expansion path.
func TestFrontierMatchesLegacyStructured(t *testing.T) {
	agreesWithLegacy(t, mesh.OutMesh(5), 4) // 15 nodes
	agreesWithLegacy(t, mesh.OutMesh(6), 4) // 21 nodes
	agreesWithLegacy(t, vee(), 3)
	agreesWithLegacy(t, lambda(), 3)
	agreesWithLegacy(t, noOptimalDag(), 2)
}

// TestAnalyzeBeyondLegacyLimit decides a dag larger than the legacy
// 26-node cap: a 33-node random layered dag, which the frontier oracle
// must analyze end to end with a legal, verified witness.
func TestAnalyzeBeyondLegacyLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := dag.RandomLayered(rng, []int{3, 6, 6, 6, 6, 6}, 2)
	if n := g.NumNodes(); n != 33 {
		t.Fatalf("layered dag has %d nodes, want 33", n)
	}
	if g.NumNodes() <= LegacyMaxNodes {
		t.Fatalf("dag must exceed LegacyMaxNodes=%d", LegacyMaxNodes)
	}
	l, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	maxE := l.MaxE()
	if len(maxE) != g.NumNodes()+1 || maxE[g.NumNodes()] != 0 {
		t.Fatalf("malformed maxE profile: %v", maxE)
	}
	order, ok := l.OptimalSchedule()
	if ok {
		if opt, step, err := l.IsOptimal(order); err != nil || !opt {
			t.Fatalf("witness not optimal: opt=%v step=%d err=%v", opt, step, err)
		}
	}
}

// TestAnalyzeBudget checks that a too-wide lattice fails with ErrBudget
// and that a generous budget changes nothing.
func TestAnalyzeBudget(t *testing.T) {
	// 2×8 layered antichain-ish dag: wide middle layers.
	rng := rand.New(rand.NewSource(3))
	g := dag.RandomLayered(rng, []int{8, 8}, 1)
	if _, err := AnalyzeBudget(g, 4); !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget: err = %v, want ErrBudget", err)
	}
	l, err := AnalyzeBudget(g, 1<<24)
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	agree, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if l.NumIdeals() != agree.NumIdeals() {
		t.Fatalf("budgeted NumIdeals = %d, unbudgeted %d", l.NumIdeals(), agree.NumIdeals())
	}
}

// TestWorkerCountInvariance runs the same dag across worker counts and
// requires bit-identical observable results.
func TestWorkerCountInvariance(t *testing.T) {
	g := mesh.OutMesh(6)
	base, err := AnalyzeWorkers(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		l, err := AnalyzeWorkers(g, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if l.NumIdeals() != base.NumIdeals() {
			t.Fatalf("workers=%d: NumIdeals = %d, want %d", w, l.NumIdeals(), base.NumIdeals())
		}
		be, le := base.MaxE(), l.MaxE()
		for i := range be {
			if be[i] != le[i] {
				t.Fatalf("workers=%d: MaxE[%d] = %d, want %d", w, i, le[i], be[i])
			}
		}
		bo, bok := base.OptimalSchedule()
		lo, lok := l.OptimalSchedule()
		if bok != lok || len(bo) != len(lo) {
			t.Fatalf("workers=%d: schedule mismatch", w)
		}
		for i := range bo {
			if bo[i] != lo[i] {
				t.Fatalf("workers=%d: schedule[%d] = %d, want %d", w, i, lo[i], bo[i])
			}
		}
	}
}

// BenchmarkOracleAnalyze times the frontier oracle (parallel and
// workers=1) beside the legacy reference on the same dags; two of
// them are beyond the legacy cap and run frontier-only.
func BenchmarkOracleAnalyze(b *testing.B) {
	for _, bench := range []struct {
		name string
		g    *dag.Dag
	}{
		{"outmesh-21", mesh.OutMesh(6)},
		{"layered-24", dag.RandomLayered(rand.New(rand.NewSource(1)), []int{4, 5, 5, 5, 5}, 3)},
		{"outmesh-28", mesh.OutMesh(7)}, // beyond the legacy 26-node cap
		{"layered-33", dag.RandomLayered(rand.New(rand.NewSource(2)), []int{3, 6, 6, 6, 6, 6}, 2)}, // ditto
	} {
		b.Run("frontier/"+bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(bench.g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("serial/"+bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeWorkers(bench.g, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		if bench.g.NumNodes() <= LegacyMaxNodes {
			b.Run("legacy/"+bench.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := AnalyzeLegacy(bench.g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
