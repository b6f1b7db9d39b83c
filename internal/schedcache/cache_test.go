package schedcache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icsched/internal/dag"
)

// chain returns a path dag with n nodes; every n yields a distinct
// shape, making shape counts easy to control in tables.
func chain(n int) *dag.Dag {
	b := dag.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddArc(dag.NodeID(i), dag.NodeID(i+1))
	}
	return b.MustBuild()
}

func topoCompute(g *dag.Dag) func() ([]dag.NodeID, string, error) {
	return func() ([]dag.NodeID, string, error) {
		return g.TopoOrder(), "topo", nil
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := New(Options{Capacity: 8})
	g := chain(5)
	res, err := c.GetOrCompute(g, "t", topoCompute(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || !res.Exact {
		t.Fatalf("first lookup: %+v", res)
	}
	res2, err := c.GetOrCompute(g, "t", topoCompute(g))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Hit || !res2.Exact {
		t.Fatalf("second lookup: %+v", res2)
	}
	for i := range res.Order {
		if res.Order[i] != res2.Order[i] {
			t.Fatalf("warm order diverges at %d", i)
		}
	}
	for i := range res.Profile {
		if res.Profile[i] != res2.Profile[i] {
			t.Fatalf("warm profile diverges at %d", i)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Analyses != 1 || st.Evictions != 0 || st.Collisions != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// A different class never shares the entry.
	res3, err := c.GetOrCompute(g, "other", topoCompute(g))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Hit {
		t.Fatalf("class partition violated: %+v", res3)
	}
}

func TestCacheEvictionTable(t *testing.T) {
	cases := []struct {
		name      string
		capacity  int
		shapes    int
		passes    int
		minEvict  uint64
		wantAnaly uint64
	}{
		{name: "fits", capacity: 8, shapes: 6, passes: 3, minEvict: 0, wantAnaly: 6},
		{name: "overflow", capacity: 4, shapes: 9, passes: 1, minEvict: 5, wantAnaly: 9},
		{name: "overflow-rescan", capacity: 3, shapes: 5, passes: 2, minEvict: 2, wantAnaly: 6},
		{name: "overflow-wide", capacity: 8, shapes: 32, passes: 1, minEvict: 24, wantAnaly: 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Options{Capacity: tc.capacity})
			for p := 0; p < tc.passes; p++ {
				for s := 0; s < tc.shapes; s++ {
					g := chain(2 + s)
					if _, err := c.GetOrCompute(g, "t", topoCompute(g)); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := c.Stats()
			if c.Len() > tc.capacity {
				t.Fatalf("LRU bound violated: %d resident > capacity %d", c.Len(), tc.capacity)
			}
			if st.Evictions < tc.minEvict {
				t.Fatalf("evictions = %d, want >= %d (stats %+v)", st.Evictions, tc.minEvict, st)
			}
			if st.Hits+st.Misses != uint64(tc.shapes*tc.passes) {
				t.Fatalf("lookups unaccounted: %+v", st)
			}
			if tc.name == "fits" && st.Analyses != tc.wantAnaly {
				t.Fatalf("analyses = %d want %d", st.Analyses, tc.wantAnaly)
			}
		})
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := New(Options{Capacity: 2})
	a, b, d := chain(2), chain(3), chain(4)
	mustGet := func(g *dag.Dag) Result {
		t.Helper()
		r, err := c.GetOrCompute(g, "t", topoCompute(g))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mustGet(a)
	mustGet(b)
	mustGet(a) // refresh a: b is now least recently used
	mustGet(d) // evicts b
	if !mustGet(a).Hit {
		t.Fatalf("a was evicted despite refresh")
	}
	if mustGet(b).Hit {
		t.Fatalf("b should have been the LRU victim")
	}
	if c.Stats().Evictions < 2 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

// TestSingleflightOneAnalysisPerShape: concurrent lookups of one shape
// wait on the cache lock behind the first caller's analysis and hit.
func TestSingleflightOneAnalysisPerShape(t *testing.T) {
	c := New(Options{Capacity: 64})
	const (
		shapes     = 6
		goroutines = 8
	)
	var computes [shapes]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, shapes*goroutines)
	for s := 0; s < shapes; s++ {
		g := chain(4 + s)
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(s int, g *dag.Dag) {
				defer wg.Done()
				<-start
				_, err := c.GetOrCompute(g, "t", func() ([]dag.NodeID, string, error) {
					computes[s].Add(1)
					time.Sleep(2 * time.Millisecond) // widen the race window
					return g.TopoOrder(), "topo", nil
				})
				errs <- err
			}(s, g)
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < shapes; s++ {
		if n := computes[s].Load(); n != 1 {
			t.Fatalf("shape %d analyzed %d times", s, n)
		}
	}
	st := c.Stats()
	if st.Analyses != shapes || st.Misses != shapes {
		t.Fatalf("stats: %+v", st)
	}
	if st.Hits+st.Shared != shapes*(goroutines-1) {
		t.Fatalf("hits %d + shared %d != %d (stats %+v)", st.Hits, st.Shared, shapes*(goroutines-1), st)
	}
}

func TestCacheConcurrentMixedShapes(t *testing.T) {
	c := New(Options{Capacity: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				g := chain(2 + rng.Intn(24))
				res, err := c.GetOrCompute(g, "t", topoCompute(g))
				if err != nil {
					panic(err)
				}
				want := g.TopoOrder()
				for j := range want {
					if res.Order[j] != want[j] {
						panic(fmt.Sprintf("wrong order for %d-chain at %d", g.NumNodes(), j))
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("LRU bound violated under concurrency: %d", c.Len())
	}
	st := c.Stats()
	if st.Lookups() != 8*200 {
		t.Fatalf("lookups unaccounted: %+v", st)
	}
}

// TestCacheStatsDuringCompute: the analysis runs under the cache lock,
// but the counters are atomic, so Stats answers while it is in flight.
func TestCacheStatsDuringCompute(t *testing.T) {
	c := New(Options{Capacity: 8})
	g := chain(4)
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.GetOrCompute(g, "t", func() ([]dag.NodeID, string, error) {
			close(entered)
			<-release
			return g.TopoOrder(), "topo", nil
		})
		done <- err
	}()
	<-entered
	got := make(chan Stats, 1)
	go func() { got <- c.Stats() }()
	select {
	case st := <-got:
		if st.Analyses != 1 || st.Misses != 0 {
			t.Errorf("stats mid-compute: %+v", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked behind a running analysis")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats after compute: %+v", st)
	}
}

func TestCacheCollisionGuard(t *testing.T) {
	c := New(Options{Capacity: 8})
	g1, g2 := chain(4), chain(5)
	s1, p1 := Canonicalize(g1)
	s2, p2 := Canonicalize(g2)
	const h = 12345 // force both shapes onto one key
	r1, err := c.getOrCompute(time.Now(), g1, s1, p1, h, topoCompute(g1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hit {
		t.Fatalf("first insert hit")
	}
	r2, err := c.getOrCompute(time.Now(), g2, s2, p2, h, topoCompute(g2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Hit {
		t.Fatalf("collision served a wrong-shape entry")
	}
	want := g2.TopoOrder()
	for i := range want {
		if r2.Order[i] != want[i] {
			t.Fatalf("collision fallback returned a foreign order")
		}
	}
	st := c.Stats()
	if st.Collisions != 1 {
		t.Fatalf("collisions = %d, stats %+v", st.Collisions, st)
	}
	// The resident entry kept its slot and still hits.
	r3, err := c.getOrCompute(time.Now(), g1, s1, p1, h, topoCompute(g1))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Hit {
		t.Fatalf("resident entry lost after collision")
	}
}

func TestCacheComputeErrorNotCached(t *testing.T) {
	c := New(Options{Capacity: 8})
	g := chain(3)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute(g, "t", func() ([]dag.NodeID, string, error) { return nil, "", boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	res, err := c.GetOrCompute(g, "t", topoCompute(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatalf("error was cached")
	}
	// An illegal order is rejected, not cached.
	bad := []dag.NodeID{2, 1, 0}
	if _, err := c.GetOrCompute(chain(3), "bad", func() ([]dag.NodeID, string, error) { return bad, "x", nil }); err == nil {
		t.Fatalf("illegal schedule accepted")
	}
}

func TestCacheIsomorphicHitTranslates(t *testing.T) {
	// A twin with permuted labels (consistent with the canonical
	// numbering) hits and receives a legal order in its own labels.
	b := dag.NewBuilder(5)
	b.AddArc(3, 1)
	b.AddArc(3, 4)
	b.AddArc(1, 0)
	b.AddArc(4, 0)
	b.AddArc(2, 0)
	g := b.MustBuild()
	_, perm := Canonicalize(g)
	twin := relabelCanonical(g, perm)

	c := New(Options{Capacity: 8})
	cold, err := c.GetOrCompute(g, "t", topoCompute(g))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.GetOrCompute(twin, "t", func() ([]dag.NodeID, string, error) {
		t.Fatalf("compute ran on an isomorphic hit")
		return nil, "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit {
		t.Fatalf("isomorphic twin missed")
	}
	if warm.Exact {
		t.Fatalf("differently-labeled twin reported exact")
	}
	for i := range cold.Profile {
		if warm.Profile[i] != cold.Profile[i] {
			t.Fatalf("profile not shape-invariant at step %d", i)
		}
	}
	// The translated order must be a legal schedule of the twin.
	if _, err := c.GetOrCompute(twin, "check", func() ([]dag.NodeID, string, error) {
		return warm.Order, "translated", nil
	}); err != nil {
		t.Fatalf("translated order illegal on twin: %v", err)
	}
}
