// Package icsched_test benchmarks every exhibit of the paper: one bench
// per figure/table of "Applying IC-Scheduling Theory to Familiar Classes
// of Computations" (see DESIGN.md §4 for the exhibit → bench index, and
// EXPERIMENTS.md for recorded results).
package icsched_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"icsched/internal/batch"
	"icsched/internal/blocks"
	"icsched/internal/butterfly"
	"icsched/internal/coarsen"
	"icsched/internal/compute/fftconv"
	"icsched/internal/compute/graphpaths"
	"icsched/internal/compute/integrate"
	"icsched/internal/compute/linalg"
	"icsched/internal/compute/scan"
	"icsched/internal/compute/sortnet"
	"icsched/internal/compute/wavefront"
	"icsched/internal/compute/zt"
	"icsched/internal/dag"
	"icsched/internal/dltdag"
	"icsched/internal/exec"
	"icsched/internal/heur"
	"icsched/internal/icsim"
	"icsched/internal/matmuldag"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/prio"
	"icsched/internal/sched"
	"icsched/internal/trees"
	"icsched/internal/workflows"
)

// --- Fig. 1 / §2.3: building blocks and the priority relation ----------

func BenchmarkFig1Blocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := blocks.Vee()
		l := blocks.Lambda()
		if v.NumNodes()+l.NumNodes() != 6 {
			b.Fatal("bad blocks")
		}
	}
}

func BenchmarkEq21PriorityCheck(b *testing.B) {
	g1 := blocks.W(64)
	g2 := blocks.W(128)
	s1 := blocks.SourcesLeftToRight(g1)
	s2 := blocks.SourcesLeftToRight(g2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := prio.Holds(g1, s1, g2, s2)
		if err != nil || !ok {
			b.Fatal("W64 ▷ W128 must hold")
		}
	}
}

// --- Fig. 2–3 / Table 1: expansion-reduction dags ----------------------

func BenchmarkFig2Diamond(b *testing.B) {
	for _, height := range []int{6, 10} {
		b.Run(fmt.Sprintf("height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := trees.Diamond(trees.CompleteOutTree(2, height))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Schedule(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1AlternatingChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var parts []trees.Part
		for d := 0; d < 6; d++ {
			t := trees.CompleteOutTree(2, 3)
			parts = append(parts, trees.OutPart(t), trees.InPart(t.Dual()))
		}
		c, err := trees.Alternating(parts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec32Integrate(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-20 * (x - 0.4) * (x - 0.4)) }
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := integrate.Integrate(f, 0, 1, integrate.Options{
					Rule: integrate.Simpson, Tol: 1e-9, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 5–7: wavefront dags -------------------------------------------

func BenchmarkFig5OutMeshSchedule(b *testing.B) {
	for _, levels := range []int{32, 128} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mesh.OutMesh(levels)
				order := sched.Complete(g, mesh.OutMeshNonsinks(levels))
				if _, err := sched.Profile(g, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6WComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := mesh.OutMeshAsWComposition(48)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MeshCoarsen(b *testing.B) {
	g := mesh.OutMesh(96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, k, _ := coarsen.MeshBlocks(96, 4)
		if _, _, err := coarsen.Quotient(g, part, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec4Wavefront(b *testing.B) {
	a := randomStringN(300, 1)
	c := randomStringN(300, 2)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("editdist/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wavefront.EditDistance(a, c, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("editdist/blocked-16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := wavefront.EditDistanceBlocked(a, c, 16, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig. 8–10 / §5.2: butterfly-structured computations ----------------

func BenchmarkFig9Butterfly(b *testing.B) {
	for _, d := range []int{6, 10} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := butterfly.Network(d)
				order := sched.Complete(g, butterfly.Nonsinks(d))
				if _, err := sched.Profile(g, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSec52SortNet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("n=1024/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sortnet.Sort(xs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSec52FFT(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]complex128, 1024)
	for i := range xs {
		xs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("n=1024/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fftconv.FFT(xs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSec52Convolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := make([]float64, 512)
	q := make([]float64, 512)
	for i := range p {
		p[i] = rng.NormFloat64()
		q[i] = rng.NormFloat64()
	}
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fftconv.Convolve(p, q, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fftconv.NaiveConvolve(p, q)
		}
	})
}

// --- Fig. 11–12 / §6.1: parallel prefix ---------------------------------

func BenchmarkFig11Prefix(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := prefix.Network(n)
				order := sched.Complete(g, prefix.Nonsinks(n))
				if _, err := sched.Profile(g, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig12NComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := prefix.AsNComposition(128)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec61Scan(b *testing.B) {
	xs := make([]int64, 256)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	add := func(a, c int64) int64 { return a + c }
	b.Run("parallel-dag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scan.Parallel(add, xs, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan.Serial(add, xs)
		}
	})
}

// --- Fig. 13–15 / §6.2.1: the DLT ---------------------------------------

func BenchmarkFig13DLTDag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := dltdag.L(256)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec621DLT(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]complex128, 64)
	for i := range xs {
		xs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	omega := complex(0.99, 0.05)
	b.Run("via-prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := zt.ViaPrefix(xs, omega, 8, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-powertree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := zt.ViaPowerTree(xs, omega, 8, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			zt.Naive(xs, omega, 8)
		}
	})
}

// --- Fig. 16 / §6.2.2: paths in a graph ---------------------------------

func BenchmarkFig16GraphPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := scan.NewBoolMatrix(32)
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if rng.Float64() < 0.1 {
				a.Set(i, j, true)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphpaths.Compute(a, 8, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 17 / §7: matrix multiplication --------------------------------

func BenchmarkFig17MatMulDag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := matmuldag.New()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec7MatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m1 := linalg.Random(rng, 128)
	m2 := linalg.Random(rng, 128)
	b.Run("recursive-dag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.MulRecursive(m1, m2, 16, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.MulNaive(m1, m2)
		}
	})
}

// --- assessment machinery ([15],[19]-style) ------------------------------

// BenchmarkProfileReuse measures the zero-allocation replay core: a
// reused bitset State profiling a 24-node schedule versus the
// allocate-per-call package function.
func BenchmarkProfileReuse(b *testing.B) {
	g := dag.RandomLayered(rand.New(rand.NewSource(1)), []int{4, 5, 5, 5, 5}, 3)
	order := sched.Complete(g, sched.AnyTopoNonsinks(g))
	b.Run("profile-into", func(b *testing.B) {
		st := sched.NewState(g)
		prof := make([]int, 0, len(order)+1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if prof, err = st.ProfileInto(order, prof); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profile-alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.Profile(g, order); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHeuristicsOnMesh(b *testing.B) {
	g := mesh.OutMesh(40)
	for _, p := range heur.Standard(1) {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := heur.RunOrder(g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBatchPlanning(b *testing.B) {
	g := mesh.OutMesh(16)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := batch.Greedy(g, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	small := mesh.OutMesh(6)
	b.Run("exact-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := batch.Exact(small, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSimulation(b *testing.B) {
	g := workflows.Montage(32)
	cfg := icsim.Config{Clients: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := icsim.Run(g, heur.FIFO(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorScaling(b *testing.B) {
	g := mesh.Grid(64, 64)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(64, 64))
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		b.Fatal(err)
	}
	work := func(v int32) error {
		s := 0.0
		for k := 0; k < 200; k++ {
			s += math.Sqrt(float64(int(v) + k))
		}
		_ = s
		return nil
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(g, rank, workers, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func randomStringN(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(4))
	}
	return string(out)
}
