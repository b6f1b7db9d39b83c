package shard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/sched"
)

// driveGlobal executes the global order one task at a time against the
// owning shard, pumping the bus after every completion.  Per Theorem
// 2.1 each shard — running the restriction of the order — must grant
// exactly the restriction's next task, so the recombined run IS the
// global order.  Any deviation fails the test.
func driveGlobal(t *testing.T, c *Coordinator, order []dag.NodeID, from, to int) {
	t.Helper()
	p := c.Partition()
	for idx := from; idx < to; idx++ {
		v := order[idx]
		s := p.ShardOf[v]
		srv := c.Server(s)
		got, state := srv.Allocate()
		if state != icserver.AllocOK {
			t.Fatalf("order[%d]=global %d: shard %d alloc state %v, want a grant", idx, v, s, state)
		}
		if got != p.LocalOf[v] {
			t.Fatalf("order[%d]: shard %d granted local %d (global %d), want local %d (global %d)",
				idx, s, got, p.Global(s, got), p.LocalOf[v], v)
		}
		if _, err := srv.Complete(got); err != nil {
			t.Fatalf("order[%d]: complete: %v", idx, err)
		}
		c.Pump()
	}
}

func gridCase(t *testing.T, rows, cols, k int) (*dag.Dag, []dag.NodeID, *Partition) {
	t.Helper()
	g := mesh.Grid(rows, cols)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(rows, cols))
	p, err := ByOrder(g, k, g.TopoOrder())
	if err != nil {
		t.Fatal(err)
	}
	return g, order, p
}

// TestRecombinedRunMatchesSingleServer is the package-level Theorem
// 2.1 witness: the sharded run realizes the global IC-optimal order
// exactly, so its eligibility profile is bit-identical to the
// single-server profile (difftest repeats this across the whole
// corpus).
func TestRecombinedRunMatchesSingleServer(t *testing.T) {
	g, order, p := gridCase(t, 6, 8, 3)
	c, err := New(g, order, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kill()
	driveGlobal(t, c, order, 0, len(order))
	if !c.Finished() {
		t.Fatal("coordinator not finished after driving the full order")
	}
	if _, err := sched.Profile(g, order); err != nil {
		t.Fatalf("recombined order is not a legal schedule: %v", err)
	}
	st := c.Status()
	if st.Completed != g.NumNodes() {
		t.Fatalf("completed %d of %d", st.Completed, g.NumNodes())
	}
	if st.ArcsForwarded == 0 {
		t.Fatal("no cross-shard arcs forwarded on a 3-shard grid")
	}
}

// TestWorkerFleetHTTP runs a worker fleet over HTTP against the
// coordinator handler: home-pinned workers with stealing must complete
// the dag and tally every task exactly once.
func TestWorkerFleetHTTP(t *testing.T) {
	g, order, p := gridCase(t, 10, 10, 4)
	c, err := New(g, order, p, Config{Lease: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kill()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	var mu sync.Mutex
	counts := make([]int, g.NumNodes())
	var wg sync.WaitGroup
	stats := make([]WorkerStats, 6)
	errs := make([]error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &Worker{
				BaseURL: ts.URL,
				Shards:  p.K,
				Home:    w % p.K,
				Batch:   8,
				Seed:    int64(w + 1),
				Compute: func(shard int, task dag.NodeID, name string) error {
					gv := p.Global(shard, task)
					mu.Lock()
					counts[gv]++
					mu.Unlock()
					return nil
				},
			}
			stats[w], errs[w] = wk.Run(context.Background())
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for v, n := range counts {
		if n != 1 {
			t.Fatalf("global task %d computed %d times", v, n)
		}
	}
	if !c.Finished() {
		t.Fatal("coordinator not finished")
	}
	completed := 0
	for _, s := range stats {
		completed += s.Completed
	}
	if completed != g.NumNodes() {
		t.Fatalf("fleet acked %d completions, dag has %d nodes", completed, g.NumNodes())
	}
}

// TestWorkerSteals pins a lone worker to the last shard of a chain-like
// cut: its home frontier is empty until earlier shards finish, so every
// early batch is a steal.
func TestWorkerSteals(t *testing.T) {
	g, order, p := gridCase(t, 4, 4, 4)
	c, err := New(g, order, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kill()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	wk := &Worker{BaseURL: ts.URL, Shards: p.K, Home: p.K - 1, Batch: 4, Seed: 7}
	stats, err := wk.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != g.NumNodes() {
		t.Fatalf("completed %d of %d", stats.Completed, g.NumNodes())
	}
	if stats.Steals == 0 {
		t.Fatal("worker homed on the final shard finished without stealing")
	}
	if !c.Finished() {
		t.Fatal("coordinator not finished")
	}
}

// TestHandlerEndpoints exercises the aggregated /status, /healthz and
// /metrics mounts plus the per-shard dispatch.
func TestHandlerEndpoints(t *testing.T) {
	g, order, p := gridCase(t, 4, 4, 2)
	c, err := New(g, order, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kill()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	driveGlobal(t, c, order, 0, 4)

	var st Status
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Shards != p.K || st.Total != g.NumNodes() || st.Completed != 4 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.PerShard) != p.K {
		t.Fatalf("status lists %d shards, want %d", len(st.PerShard), p.K)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"icshard_shards", "icshard_eligible{shard=\"0\"}", "icshard_executed{shard=\"1\"}",
		"icshard_arcs_forwarded_total", "icshard_arcs_deduplicated_total",
		"icshard_forward_latency_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}

	// Per-shard mounts speak the full icserver protocol.
	resp, err = http.Get(ts.URL + "/shard/0/status")
	if err != nil {
		t.Fatal(err)
	}
	var ss icserver.Status
	if err := json.NewDecoder(resp.Body).Decode(&ss); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ss.Total != len(p.Globals[0]) {
		t.Fatalf("shard 0 reports %d nodes, partition gave it %d", ss.Total, len(p.Globals[0]))
	}
	for _, path := range []string{"/shard/9/status", "/shard/x/status", "/shard/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestShardKillRecover kills one shard mid-run and recovers it from its
// journal: the epoch bumps, forwarded credits are re-delivered, and the
// remainder of the global order still drives through unchanged — the
// recombined run stays bit-identical.
func TestShardKillRecover(t *testing.T) {
	g, order, p := gridCase(t, 6, 6, 3)
	c, err := New(g, order, p, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kill()
	half := len(order) / 2
	driveGlobal(t, c, order, 0, half)

	victim := p.ShardOf[order[half]]
	before := c.Server(victim).Epoch()
	c.KillShard(victim)
	if _, state := c.Server(victim).Allocate(); state != icserver.AllocEmpty {
		t.Fatalf("killed shard allocated (state %v)", state)
	}
	if err := c.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	if after := c.Server(victim).Epoch(); after <= before {
		t.Fatalf("epoch %d -> %d: recovery did not fence", before, after)
	}
	driveGlobal(t, c, order, half, len(order))
	if !c.Finished() {
		t.Fatal("coordinator not finished after recovery")
	}
	if st := c.Status(); st.Quarantined != 0 || st.Completed != g.NumNodes() {
		t.Fatalf("status after recovery = %+v", st)
	}
}

// TestFullRestartRecovery kills the whole coordinator mid-run and
// rebuilds it on the same journal root: every shard replays its WAL,
// the bus replays or reconciles its forwarded set, and the remainder of
// the order drives through to completion with no task re-executed.
func TestFullRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	g, order, p := gridCase(t, 6, 6, 3)
	c, err := New(g, order, p, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cut := 2 * len(order) / 3
	driveGlobal(t, c, order, 0, cut)
	c.Kill()

	c2, err := New(g, order, p, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Kill()
	if st := c2.Status(); st.Completed != cut {
		t.Fatalf("recovered %d completions, expected %d", st.Completed, cut)
	}
	driveGlobal(t, c2, order, cut, len(order))
	if !c2.Finished() {
		t.Fatal("coordinator not finished after restart")
	}
	if st := c2.Status(); st.Completed != g.NumNodes() || st.Quarantined != 0 {
		t.Fatalf("status after restart = %+v", st)
	}
}

// TestRestartReconcilesUnjournaledArc stages the crash window between a
// source shard's durable completion and the bus's KindArc record: the
// boundary completion lands, the coordinator dies before (or as) the
// bus syncs, and the successor must still deliver the credit — via bus
// replay if the record landed, via reconciliation against the shard
// journals if it did not.
func TestRestartReconcilesUnjournaledArc(t *testing.T) {
	dir := t.TempDir()
	const n = 2
	b := dag.NewBuilder(n)
	b.AddArc(0, 1)
	g := b.MustBuild()
	order := g.TopoOrder()
	p, err := ByOrder(g, 2, order)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(g, order, p, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := c.Server(0)
	if v, state := srv.Allocate(); state != icserver.AllocOK || v != 0 {
		t.Fatalf("bootstrap grant = %d, %v", v, state)
	}
	if _, err := srv.Complete(0); err != nil {
		t.Fatal(err)
	}
	// Kill immediately: the hook has enqueued, the async pump may or may
	// not have journaled the arc yet.  Both outcomes must recover.
	c.Kill()

	c2, err := New(g, order, p, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Kill()
	driveGlobal(t, c2, order, 1, len(order))
	if !c2.Finished() {
		t.Fatal("gated task never became eligible after restart")
	}
}

// TestCreditDeduplication re-delivers forwarded credits (as recovery
// does) and checks the receiving shard counts each (task, source) pair
// once.
func TestCreditDeduplication(t *testing.T) {
	g := mesh.Grid(4, 4)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(4, 4))
	// Partition by the drive order so its first chunk is exactly the
	// drive's prefix: draining that prefix drains shard 0.
	p, err := ByOrder(g, 2, order)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(g, order, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kill()
	driveGlobal(t, c, order, 0, len(p.Globals[0]))
	forwarded := c.Status().ArcsForwarded
	if forwarded != len(p.Cross) {
		t.Fatalf("forwarded %d of %d cross arcs after shard 0 drained", forwarded, len(p.Cross))
	}
	// Re-deliver everything; every credit must dedup.
	for _, a := range p.Cross {
		c.creditTargets(a.From)
	}
	st := c.Status()
	if st.ArcsForwarded != forwarded {
		t.Fatalf("re-delivery raised forwarded %d -> %d", forwarded, st.ArcsForwarded)
	}
	if st.ArcsDeduplicated == 0 {
		t.Fatal("re-delivery counted no dedups")
	}
	driveGlobal(t, c, order, len(p.Globals[0]), len(order))
	if !c.Finished() {
		t.Fatal("not finished")
	}
}
