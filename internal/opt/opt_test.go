package opt

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"icsched/internal/dag"
	"icsched/internal/sched"
)

func mustAnalyze(t *testing.T, g *dag.Dag) *Lattice {
	t.Helper()
	l, err := Analyze(g)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return l
}

func vee() *dag.Dag {
	b := dag.NewBuilder(3)
	b.AddArc(0, 1)
	b.AddArc(0, 2)
	return b.MustBuild()
}

func lambda() *dag.Dag {
	b := dag.NewBuilder(3)
	b.AddArc(0, 2)
	b.AddArc(1, 2)
	return b.MustBuild()
}

func TestMaxEVee(t *testing.T) {
	l := mustAnalyze(t, vee())
	want := []int{1, 2, 1, 0}
	got := l.MaxE()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("maxE = %v, want %v", got, want)
		}
	}
}

func TestMaxELambda(t *testing.T) {
	l := mustAnalyze(t, lambda())
	want := []int{2, 1, 1, 0}
	got := l.MaxE()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("maxE = %v, want %v", got, want)
		}
	}
}

func TestEveryVeeScheduleOptimal(t *testing.T) {
	// §3.1: "easily, every schedule for an out-tree is IC optimal!"
	l := mustAnalyze(t, vee())
	for _, order := range [][]dag.NodeID{{0, 1, 2}, {0, 2, 1}} {
		ok, step, err := l.IsOptimal(order)
		if err != nil || !ok {
			t.Fatalf("order %v: ok=%v step=%d err=%v", order, ok, step, err)
		}
	}
}

func TestLambdaSchedulesAllOptimal(t *testing.T) {
	l := mustAnalyze(t, lambda())
	for _, order := range [][]dag.NodeID{{0, 1, 2}, {1, 0, 2}} {
		ok, _, err := l.IsOptimal(order)
		if err != nil || !ok {
			t.Fatalf("order %v not optimal: %v", order, err)
		}
	}
}

func TestIsOptimalRejectsIllegalOrders(t *testing.T) {
	l := mustAnalyze(t, vee())
	if _, _, err := l.IsOptimal([]dag.NodeID{1, 0, 2}); err == nil {
		t.Fatal("ineligible-first order accepted")
	}
	if _, _, err := l.IsOptimal([]dag.NodeID{0, 0, 1}); err == nil {
		t.Fatal("repeated node accepted")
	}
	if _, _, err := l.IsOptimal([]dag.NodeID{0}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, _, err := l.IsOptimal([]dag.NodeID{0, 1, 7}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestSuboptimalScheduleDetected(t *testing.T) {
	// V + Λ (disjoint): executing a Λ-source first is suboptimal at t=1
	// because executing V's root yields 4 eligible vs 2.
	g := dag.Sum(vee(), lambda())
	l := mustAnalyze(t, g)
	ok, step, err := l.IsOptimal([]dag.NodeID{3, 4, 0, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("suboptimal schedule accepted")
	}
	if step != 1 {
		t.Fatalf("first shortfall at step %d, want 1", step)
	}
	// The V-root-first order is optimal.
	ok, _, err = l.IsOptimal([]dag.NodeID{0, 3, 4, 1, 2, 5})
	if err != nil || !ok {
		t.Fatalf("V-first order should be optimal (err=%v)", err)
	}
}

func TestOptimalScheduleSynthesis(t *testing.T) {
	g := dag.Sum(vee(), lambda())
	l := mustAnalyze(t, g)
	order, ok := l.OptimalSchedule()
	if !ok {
		t.Fatal("V+Λ admits an IC-optimal schedule")
	}
	good, step, err := l.IsOptimal(order)
	if err != nil || !good {
		t.Fatalf("synthesized schedule not optimal: step=%d err=%v", step, err)
	}
	if err := sched.Validate(g, order); err != nil {
		t.Fatalf("synthesized schedule illegal: %v", err)
	}
}

// noOptimalDag returns a dag that admits no IC-optimal schedule:
// u -> {x, y}, v -> {x, y}, w -> z.  maxE(1)=3 is attained only by
// executing w first, but maxE(2)=3 is attained only by the ideal {u, v}.
func noOptimalDag() *dag.Dag {
	b := dag.NewBuilder(6) // 0=u 1=v 2=w 3=x 4=y 5=z
	b.AddArc(0, 3)
	b.AddArc(0, 4)
	b.AddArc(1, 3)
	b.AddArc(1, 4)
	b.AddArc(2, 5)
	return b.MustBuild()
}

func TestDagWithNoOptimalSchedule(t *testing.T) {
	l := mustAnalyze(t, noOptimalDag())
	if l.MaxE()[1] != 3 || l.MaxE()[2] != 3 {
		t.Fatalf("maxE = %v; the construction relies on maxE(1)=maxE(2)=3", l.MaxE())
	}
	if l.Exists() {
		t.Fatal("this dag must not admit an IC-optimal schedule")
	}
	if _, ok := l.OptimalSchedule(); ok {
		t.Fatal("OptimalSchedule must fail")
	}
}

func TestSingleNodeAndEmpty(t *testing.T) {
	l := mustAnalyze(t, dag.NewBuilder(1).MustBuild())
	order, ok := l.OptimalSchedule()
	if !ok || len(order) != 1 {
		t.Fatalf("single node: %v %v", order, ok)
	}
	l0 := mustAnalyze(t, dag.NewBuilder(0).MustBuild())
	order, ok = l0.OptimalSchedule()
	if !ok || len(order) != 0 {
		t.Fatalf("empty dag: %v %v", order, ok)
	}
}

func TestAnalyzeRejectsHugeDag(t *testing.T) {
	if _, err := Analyze(dag.NewBuilder(maxNodes + 1).MustBuild()); !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized dag: err = %v, want ErrBudget", err)
	}
}

// TestAnalyzeDefaultBudget checks that the default layer budget stops a
// 36-node antichain — C(36,18) ≈ 9·10⁹ ideals in its widest layer — at
// a layer of about 2·10⁶ instead of exhausting memory.
func TestAnalyzeDefaultBudget(t *testing.T) {
	if _, err := Analyze(dag.NewBuilder(maxNodes).MustBuild()); !errors.Is(err, ErrBudget) {
		t.Fatalf("36-node antichain: err = %v, want ErrBudget", err)
	}
}

func TestMaxEDominatesEveryLegalProfile(t *testing.T) {
	// Property: for random dags and random legal schedules, the realized
	// profile never exceeds maxE at any step.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := dag.Random(r, 1+r.Intn(10), 0.3)
		l, err := Analyze(g)
		if err != nil {
			return false
		}
		maxE := l.MaxE()
		// Random legal schedule.
		s := sched.NewState(g)
		var order []dag.NodeID
		for !s.Done() {
			el := s.Eligible()
			v := el[r.Intn(len(el))]
			if _, err := s.Execute(v); err != nil {
				return false
			}
			order = append(order, v)
		}
		prof, err := sched.Profile(g, order)
		if err != nil {
			return false
		}
		for t := range prof {
			if prof[t] > maxE[t] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizedScheduleOptimalOnRandomDags(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := dag.Random(r, 1+r.Intn(10), 0.35)
		l, err := Analyze(g)
		if err != nil {
			return false
		}
		order, ok := l.OptimalSchedule()
		if !ok {
			return true // admitting no optimal schedule is legitimate
		}
		good, _, err := l.IsOptimal(order)
		return err == nil && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestIdealCountsChain(t *testing.T) {
	// A chain a->b->c has exactly one ideal per size.
	b := dag.NewBuilder(3)
	b.AddArc(0, 1)
	b.AddArc(1, 2)
	l := mustAnalyze(t, b.MustBuild())
	if l.NumIdeals() != 4 {
		t.Fatalf("chain ideals = %d, want 4", l.NumIdeals())
	}
}

func TestIdealCountsAntichain(t *testing.T) {
	// Three isolated nodes: every subset is an ideal -> 8 ideals.
	l := mustAnalyze(t, dag.NewBuilder(3).MustBuild())
	if l.NumIdeals() != 8 {
		t.Fatalf("antichain ideals = %d, want 8", l.NumIdeals())
	}
}
