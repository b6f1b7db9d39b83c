package exec_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/exec"
	"icsched/internal/mesh"
	"icsched/internal/obs"
	"icsched/internal/sched"
)

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := dag.Random(rng, 1+rng.Intn(50), 0.15)
		counts := make([]int32, g.NumNodes())
		rank, err := exec.RankFromOrder(g, g.TopoOrder())
		if err != nil {
			t.Fatal(err)
		}
		_, err = exec.Run(g, rank, 4, func(v dag.NodeID) error {
			atomic.AddInt32(&counts[v], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for v, c := range counts {
			if c != 1 {
				t.Fatalf("node %d ran %d times", v, c)
			}
		}
	}
}

func TestRunRespectsDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := dag.Random(rng, 2+rng.Intn(40), 0.2)
		var mu sync.Mutex
		done := make([]bool, g.NumNodes())
		rank, err := exec.RankFromOrder(g, g.TopoOrder())
		if err != nil {
			t.Fatal(err)
		}
		_, err = exec.Run(g, rank, 8, func(v dag.NodeID) error {
			mu.Lock()
			defer mu.Unlock()
			for _, p := range g.Parents(v) {
				if !done[p] {
					return errors.New("parent not done")
				}
			}
			done[v] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleWorkerFollowsSchedule(t *testing.T) {
	// With one worker, tasks start exactly in schedule order.
	g := mesh.OutMesh(6)
	order := sched.Complete(g, mesh.OutMeshNonsinks(6))
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		t.Fatal(err)
	}
	started, err := exec.Run(g, rank, 1, func(dag.NodeID) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if started[i] != order[i] {
			t.Fatalf("start order diverged at %d: got %v want %v", i, started[i], order[i])
		}
	}
}

func TestStartOrderIsLegalSchedule(t *testing.T) {
	// Whatever interleaving the workers produce, the start order must be a
	// legal schedule of the dag.
	g := mesh.Grid(8, 8)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(8, 8))
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		t.Fatal(err)
	}
	started, err := exec.Run(g, rank, 6, func(dag.NodeID) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, started); err != nil {
		t.Fatalf("start order illegal: %v", err)
	}
}

func TestErrorAbortsRun(t *testing.T) {
	// A long chain: failing early must prevent later tasks from starting.
	n := 100
	b := dag.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddArc(dag.NodeID(i), dag.NodeID(i+1))
	}
	g := b.MustBuild()
	var ran int32
	boom := errors.New("boom")
	rank, err := exec.RankFromOrder(g, g.TopoOrder())
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec.Run(g, rank, 4, func(v dag.NodeID) error {
		atomic.AddInt32(&ran, 1)
		if v == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran > 10 {
		t.Fatalf("%d tasks ran after failure at node 5", ran)
	}
}

func TestRunValidation(t *testing.T) {
	g := dag.NewBuilder(2).MustBuild()
	if _, err := exec.Run(g, []int{0, 1}, 0, func(dag.NodeID) error { return nil }); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := exec.Run(g, []int{0}, 1, func(dag.NodeID) error { return nil }); err == nil {
		t.Fatal("short rank accepted")
	}
}

func TestEmptyDag(t *testing.T) {
	g := dag.NewBuilder(0).MustBuild()
	started, err := exec.Run(g, nil, 2, func(dag.NodeID) error { return nil })
	if err != nil || len(started) != 0 {
		t.Fatalf("empty dag: %v %v", started, err)
	}
}

func TestParallelSpeedupSurface(t *testing.T) {
	// Not a timing assertion (CI-safe): just exercise a wide dag with many
	// workers to shake out races under -race.
	g := mesh.Grid(20, 20)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(20, 20))
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	_, err = exec.Run(g, rank, 16, func(v dag.NodeID) error {
		atomic.AddInt64(&sum, int64(v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumNodes())
	if sum != n*(n-1)/2 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestRunRetryRecoversTransientFailures(t *testing.T) {
	// Every task fails twice before succeeding; with 3 attempts allowed
	// the run must complete, with dependents seeing only successes.
	levels := 6
	g := mesh.OutMesh(levels)
	rank, err := exec.RankFromOrder(g, g.TopoOrder())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fails := make(map[dag.NodeID]int)
	succeeded := make(map[dag.NodeID]bool)
	started, err := exec.RunRetry(g, rank, 4, 3, func(v dag.NodeID) error {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range g.Parents(v) {
			if !succeeded[p] {
				return errors.New("dependency violated: parent attempt not successful")
			}
		}
		if fails[v] < 2 {
			fails[v]++
			return errors.New("transient")
		}
		succeeded[v] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * g.NumNodes(); len(started) != want {
		t.Fatalf("%d starts recorded, want %d (2 retries per task)", len(started), want)
	}
}

func TestRunRetryExhaustionYieldsTaskError(t *testing.T) {
	b := dag.NewBuilder(3)
	b.AddArc(0, 1)
	b.AddArc(1, 2)
	g := b.MustBuild()
	rank, err := exec.RankFromOrder(g, g.TopoOrder())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var tries int32
	_, err = exec.RunRetry(g, rank, 2, 4, func(v dag.NodeID) error {
		if v == 1 {
			atomic.AddInt32(&tries, 1)
			return boom
		}
		return nil
	})
	var te *exec.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TaskError", err)
	}
	if te.Task != 1 || te.Attempts != 4 {
		t.Fatalf("TaskError = %+v, want task 1 after 4 attempts", te)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err chain %v does not wrap boom", err)
	}
	if tries != 4 {
		t.Fatalf("task 1 tried %d times, want 4", tries)
	}
}

func TestRunReportsTypedTaskError(t *testing.T) {
	g := dag.NewBuilder(1).MustBuild()
	boom := errors.New("boom")
	_, err := exec.Run(g, []int{0}, 1, func(dag.NodeID) error { return boom })
	var te *exec.TaskError
	if !errors.As(err, &te) || te.Attempts != 1 {
		t.Fatalf("Run error = %v, want single-attempt *TaskError", err)
	}
}

func TestRunRetryValidation(t *testing.T) {
	g := dag.NewBuilder(1).MustBuild()
	if _, err := exec.RunRetry(g, []int{0}, 1, 0, func(dag.NodeID) error { return nil }); err == nil {
		t.Fatal("0 attempts accepted")
	}
}

func TestRankFromOrderValidation(t *testing.T) {
	b := dag.NewBuilder(3)
	b.AddArc(0, 1)
	g := b.MustBuild()
	if _, err := exec.RankFromOrder(g, []dag.NodeID{0, 1, 1}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := exec.RankFromOrder(g, []dag.NodeID{0, 3}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := exec.RankFromOrder(g, []dag.NodeID{0, dag.NodeID(-1)}); err == nil {
		t.Fatal("negative node accepted")
	}
	rank, err := exec.RankFromOrder(g, []dag.NodeID{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if rank[2] != 0 || rank[0] != 1 || rank[1] <= rank[0] {
		t.Fatalf("partial-order ranks %v", rank)
	}
}

// TestSerialTraceMatchesProfileOracle is the observability layer's
// verification against the paper's quality model: the eligibility
// profile reconstructed from the trace of a serial run must equal
// sched.Profile for the same order, bit-identical.
func TestSerialTraceMatchesProfileOracle(t *testing.T) {
	levels := 8
	g := mesh.OutMesh(levels)
	order := sched.Complete(g, mesh.OutMeshNonsinks(levels))
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	started, err := exec.RunRetryObserved(g, rank, 1, 1, func(dag.NodeID) error { return nil }, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.EligibilityProfile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.Profile(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("trace profile has %d steps, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("profile[%d] = %d from trace, %d from sched.Profile\ntrace:  %v\noracle: %v",
				i, got[i], want[i], got, want)
		}
	}
	// The serial start order is the schedule itself; spans must cover it.
	if len(started) != g.NumNodes() {
		t.Fatalf("%d starts for %d nodes", len(started), g.NumNodes())
	}
}

// TestObserverSeesRetries checks the retry/failed phases and that
// observer events balance: one start per attempt, one terminal event per
// start.
func TestObserverSeesRetries(t *testing.T) {
	b := dag.NewBuilder(2)
	b.AddArc(0, 1)
	g := b.MustBuild()
	rank, err := exec.RankFromOrder(g, g.TopoOrder())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	var failOnce int32
	_, err = exec.RunRetryObserved(g, rank, 2, 3, func(v dag.NodeID) error {
		if v == 0 && atomic.CompareAndSwapInt32(&failOnce, 0, 1) {
			return errors.New("transient")
		}
		return nil
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.Phase]int{}
	for _, ev := range tr.Events() {
		counts[ev.Phase]++
	}
	if counts[obs.PhaseStart] != 3 || counts[obs.PhaseDone] != 2 || counts[obs.PhaseRetry] != 1 {
		t.Fatalf("phase counts %v, want 3 starts, 2 dones, 1 retry", counts)
	}
	if counts[obs.PhaseRunStart] != 1 || counts[obs.PhaseRunEnd] != 1 {
		t.Fatalf("phase counts %v, want run-start and run-end", counts)
	}
}

// BenchmarkRunSerial is the bench harness's serial reference run: the
// d=11 butterfly (24,576 nodes) in IC-optimal rank order on one worker
// with an empty task, so the ready pool and the dag walk are the cost.
func BenchmarkRunSerial(b *testing.B) {
	g := butterfly.Network(11)
	rank, err := exec.RankFromOrder(g, sched.Complete(g, butterfly.Nonsinks(11)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(g, rank, 1, func(dag.NodeID) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
