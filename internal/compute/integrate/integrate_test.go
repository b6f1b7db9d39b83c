package integrate_test

import (
	"errors"
	"math"
	"testing"

	"icsched/internal/compute/integrate"
	"icsched/internal/opt"
	"icsched/internal/trees"
)

func TestPolynomialTrapezoid(t *testing.T) {
	// ∫₀¹ x² dx = 1/3.
	res, err := integrate.Integrate(func(x float64) float64 { return x * x }, 0, 1,
		integrate.Options{Rule: integrate.Trapezoid, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1.0/3) > 1e-5 {
		t.Fatalf("∫x² = %g, want 1/3", res.Value)
	}
}

func TestSineSimpson(t *testing.T) {
	// ∫₀^π sin x dx = 2; Simpson converges with few splits.
	res, err := integrate.Integrate(math.Sin, 0, math.Pi,
		integrate.Options{Rule: integrate.Simpson, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-2) > 1e-8 {
		t.Fatalf("∫sin = %.12f, want 2", res.Value)
	}
}

func TestIrregularTreeFromSpikyFunction(t *testing.T) {
	// A narrow spike forces deep refinement near 0.5 only — the paper's
	// "possibly quite irregular binary out-tree".
	spike := func(x float64) float64 { return 1 / (1e-4 + (x-0.5)*(x-0.5)) }
	res, err := integrate.Integrate(spike, 0, 1,
		integrate.Options{Rule: integrate.Simpson, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Exact: (1/ε)·(atan((1-c)/ε) + atan(c/ε)) with ε=1e-2, c=0.5.
	eps := 1e-2
	exact := (math.Atan(0.5/eps) + math.Atan(0.5/eps)) / eps
	if math.Abs(res.Value-exact)/exact > 1e-4 {
		t.Fatalf("spike integral = %g, want %g", res.Value, exact)
	}
	if res.Leaves < 8 {
		t.Fatalf("expected substantial refinement, got %d leaves", res.Leaves)
	}
	// The tree must be a proper binary out-tree.
	if !trees.IsOutTree(res.Tree) {
		t.Fatal("adaptive tree is not an out-tree")
	}
	if arity, ok := trees.ProperArity(res.Tree); !ok || arity != 2 {
		t.Fatalf("adaptive tree not proper binary: %d %v", arity, ok)
	}
	// Irregular: leaf depths must vary.
	depths := res.Tree.Depths()
	minD, maxD := 1<<30, 0
	for _, v := range res.Tree.Sinks() {
		if depths[v] < minD {
			minD = depths[v]
		}
		if depths[v] > maxD {
			maxD = depths[v]
		}
	}
	if minD == maxD {
		t.Fatalf("tree is regular (all leaves at depth %d); spike should make it irregular", minD)
	}
}

func TestMatchesReference(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x) * math.Cos(3*x) }
	opts := integrate.Options{Rule: integrate.Simpson, Tol: 1e-9}
	res, err := integrate.Integrate(f, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := integrate.Reference(f, 0, 2, opts)
	if math.Abs(res.Value-ref) > 1e-12 {
		t.Fatalf("dag execution %g vs reference %g", res.Value, ref)
	}
}

func TestWorkerCountDoesNotChangeResult(t *testing.T) {
	// The dag fixes the association of every sum, so the result is
	// bit-identical for any worker count.
	f := func(x float64) float64 { return math.Sqrt(math.Abs(x)) }
	var base float64
	for i, w := range []int{1, 2, 8} {
		res, err := integrate.Integrate(f, -1, 1,
			integrate.Options{Rule: integrate.Trapezoid, Tol: 1e-5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res.Value
		} else if res.Value != base {
			t.Fatalf("workers=%d changed the value: %g vs %g", w, res.Value, base)
		}
	}
}

func TestDiamondOptimalityOnSmallRun(t *testing.T) {
	// For a gently refined run the diamond is small enough for the exact
	// oracle: the Theorem 2.1 schedule must be IC-optimal.
	res, err := integrate.Integrate(func(x float64) float64 { return x * x * x }, 0, 1,
		integrate.Options{Rule: integrate.Trapezoid, Tol: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	l, err := opt.Analyze(res.Diamond)
	if errors.Is(err, opt.ErrBudget) {
		t.Skipf("diamond too large for oracle (%d nodes): %v", res.Diamond.NumNodes(), err)
	}
	if err != nil {
		t.Fatal(err)
	}
	ok, step, err := l.IsOptimal(res.Order)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("integration schedule not IC-optimal at step %d", step)
	}
}

func TestValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := integrate.Integrate(f, 1, 0, integrate.Options{}); err == nil {
		t.Fatal("inverted interval accepted")
	}
	if _, err := integrate.Integrate(f, 0, 1, integrate.Options{Tol: -1}); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestMaxDepthBoundsTree(t *testing.T) {
	// A pathological integrand with a tiny tolerance must stop at MaxDepth.
	f := func(x float64) float64 {
		if x == 0 {
			return 0
		}
		return math.Sin(1 / x)
	}
	res, err := integrate.Integrate(f, 1e-3, 1, integrate.Options{
		Rule: integrate.Trapezoid, Tol: 1e-12, MaxDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp := res.Tree.CriticalPathLen(); cp > 9 {
		t.Fatalf("tree depth %d exceeds MaxDepth+1", cp)
	}
}
