package opt

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"icsched/internal/dag"
	"icsched/internal/mesh"
)

func TestCountVee(t *testing.T) {
	// V has two legal orders (0,1,2 and 0,2,1), both IC-optimal.
	l := mustAnalyze(t, vee())
	if l.CountSchedules().Int64() != 2 {
		t.Fatalf("schedules = %v", l.CountSchedules())
	}
	if l.CountOptimal().Int64() != 2 {
		t.Fatalf("optimal = %v", l.CountOptimal())
	}
}

func TestCountLambda(t *testing.T) {
	l := mustAnalyze(t, lambda())
	if l.CountSchedules().Int64() != 2 || l.CountOptimal().Int64() != 2 {
		t.Fatalf("Λ counts: %v / %v", l.CountOptimal(), l.CountSchedules())
	}
}

func TestCountAntichain(t *testing.T) {
	// Three isolated nodes: 3! = 6 orders; eligibility falls 3,2,1,0
	// whatever the order, so all are optimal.
	l := mustAnalyze(t, dag.NewBuilder(3).MustBuild())
	if l.CountSchedules().Int64() != 6 || l.CountOptimal().Int64() != 6 {
		t.Fatalf("antichain counts: %v / %v", l.CountOptimal(), l.CountSchedules())
	}
}

func TestCountNoOptimal(t *testing.T) {
	l := mustAnalyze(t, noOptimalDag())
	if l.CountOptimal().Sign() != 0 {
		t.Fatalf("no-optimal dag counted %v optimal schedules", l.CountOptimal())
	}
	if l.CountSchedules().Sign() <= 0 {
		t.Fatal("legal schedules must exist")
	}
}

func TestCountVeePlusLambda(t *testing.T) {
	// V + Λ: optimality forces V's root first (E jumps to 4); the optimal
	// count must be strictly below the total.
	g := dag.Sum(vee(), lambda())
	l := mustAnalyze(t, g)
	total := l.CountSchedules()
	optimal := l.CountOptimal()
	if optimal.Sign() <= 0 {
		t.Fatal("V+Λ admits optimal schedules")
	}
	if optimal.Cmp(total) >= 0 {
		t.Fatalf("optimal %v must be < total %v", optimal, total)
	}
}

func TestCountChain(t *testing.T) {
	// A chain has exactly one schedule, trivially optimal.
	b := dag.NewBuilder(4)
	b.AddArc(0, 1)
	b.AddArc(1, 2)
	b.AddArc(2, 3)
	l := mustAnalyze(t, b.MustBuild())
	if l.CountSchedules().Int64() != 1 || l.CountOptimal().Int64() != 1 {
		t.Fatal("chain counts wrong")
	}
}

func TestCountConsistency(t *testing.T) {
	// Properties on random dags: 0 <= optimal <= total; optimal > 0 iff
	// Exists(); total >= 1.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := dag.Random(r, 1+r.Intn(9), 0.35)
		l, err := Analyze(g)
		if err != nil {
			return false
		}
		total := l.CountSchedules()
		optimal := l.CountOptimal()
		if total.Sign() <= 0 || optimal.Sign() < 0 || optimal.Cmp(total) > 0 {
			return false
		}
		return (optimal.Sign() > 0) == l.Exists()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCountEmptyDag(t *testing.T) {
	l := mustAnalyze(t, dag.NewBuilder(0).MustBuild())
	if l.CountSchedules().Cmp(big.NewInt(1)) != 0 {
		t.Fatal("empty dag has exactly the empty schedule")
	}
	if l.CountOptimal().Cmp(big.NewInt(1)) != 0 {
		t.Fatal("the empty schedule is optimal")
	}
}

// TestCountSchedulesUnderLatticeBudget checks that CountSchedules
// re-expands under the budget its lattice was analyzed with: a budget
// of exactly the widest layer counts as an unbounded one does, and one
// entry less fails with ErrBudget.
func TestCountSchedulesUnderLatticeBudget(t *testing.T) {
	g := dag.RandomLayered(rand.New(rand.NewSource(3)), []int{5, 5}, 1)
	var l *Lattice
	widest := 1
	for ; ; widest++ {
		var err error
		if l, err = AnalyzeBudget(g, widest); err == nil {
			break
		} else if !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
	}
	if got, want := l.CountSchedules(), mustAnalyze(t, g).CountSchedules(); got.Cmp(want) != 0 {
		t.Fatalf("count at budget %d = %v, want %v", widest, got, want)
	}
	l.budget = widest - 1
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrBudget) {
			t.Fatalf("count over budget: recovered %v, want ErrBudget", err)
		}
	}()
	l.CountSchedules()
}

// countSink keeps the benchmarked counts live.
var countSink *big.Int

// BenchmarkCountSchedules times both counters on the oracle benchmark's
// dags beyond the legacy cap and on a 32-node layered dag whose widest
// lattice layer (925,214 ideals) is 88% of the default budget.
func BenchmarkCountSchedules(b *testing.B) {
	for _, bench := range []struct {
		name string
		g    *dag.Dag
	}{
		{"outmesh-28", mesh.OutMesh(7)},
		{"layered-33", dag.RandomLayered(rand.New(rand.NewSource(2)), []int{3, 6, 6, 6, 6, 6}, 2)},
		{"layered-32", dag.RandomLayered(rand.New(rand.NewSource(3)), []int{16, 16}, 2)},
	} {
		l, err := Analyze(bench.g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("all/"+bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				countSink = l.CountSchedules()
			}
		})
		b.Run("optimal/"+bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				countSink = l.CountOptimal()
			}
		})
	}
}
