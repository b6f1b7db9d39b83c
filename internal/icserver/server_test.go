package icserver_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/faults"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/sched"
	"icsched/internal/workflows"
)

func optimalMeshPolicy(levels int) heur.Policy {
	g := mesh.OutMesh(levels)
	return heur.Static("IC-OPTIMAL", sched.Complete(g, mesh.OutMeshNonsinks(levels)))
}

func TestDistributedMeshExecution(t *testing.T) {
	levels := 10
	g := mesh.OutMesh(levels)
	srv := icserver.New(g, optimalMeshPolicy(levels))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var executed int64
	var wg sync.WaitGroup
	const clients = 6
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &icserver.Client{
				BaseURL: ts.URL,
				Compute: func(dag.NodeID, string) error {
					atomic.AddInt64(&executed, 1)
					return nil
				},
			}
			_, errs[i] = c.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if !srv.Finished() {
		t.Fatal("server not finished")
	}
	if executed != int64(g.NumNodes()) {
		t.Fatalf("executed %d of %d tasks", executed, g.NumNodes())
	}
	st := srv.Status()
	if st.Completed != g.NumNodes() || st.Allocated != 0 || st.Eligible != 0 {
		t.Fatalf("final status: %+v", st)
	}
}

func TestStatusEndpoint(t *testing.T) {
	g := workflows.Montage(6)
	srv := icserver.New(g, heur.FIFO())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, err := icserver.FetchStatus(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != g.NumNodes() || st.Completed != 0 || st.Eligible != len(g.Sources()) {
		t.Fatalf("initial status: %+v", st)
	}
}

func TestAllocationFollowsPolicyOrder(t *testing.T) {
	// With a single in-process consumer, allocations must come out in the
	// static schedule order.
	levels := 6
	g := mesh.OutMesh(levels)
	order := sched.Complete(g, mesh.OutMeshNonsinks(levels))
	srv := icserver.New(g, heur.Static("IC-OPTIMAL", order))
	for i := 0; ; i++ {
		v, state := srv.Allocate()
		if state != icserver.AllocOK {
			break
		}
		if v != order[i] {
			t.Fatalf("allocation %d = %v, want %v", i, v, order[i])
		}
		if _, err := srv.Complete(v); err != nil {
			t.Fatal(err)
		}
	}
	if !srv.Finished() {
		t.Fatal("not finished")
	}
}

func TestLeaseReissue(t *testing.T) {
	// A client takes a task and vanishes; after the lease expires the
	// task is reissued and the computation still completes.
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := dag.NewBuilder(2)
	b.AddArc(0, 1)
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO(), icserver.WithLease(10*time.Second), icserver.WithClock(clock))

	v1, _ := srv.Allocate() // vanished client takes task 0
	if v1 != 0 {
		t.Fatalf("first allocation = %d", v1)
	}
	// Another client polls: nothing eligible (task 0 leased, task 1 blocked).
	if _, state := srv.Allocate(); state != icserver.AllocEmpty {
		t.Fatal("expected empty allocation while lease held")
	}
	// Lease expires; the same task is reissued.
	now = now.Add(11 * time.Second)
	v2, state := srv.Allocate()
	if state != icserver.AllocOK || v2 != 0 {
		t.Fatalf("reissue = %d (state %d)", v2, state)
	}
	if _, err := srv.Complete(0); err != nil {
		t.Fatal(err)
	}
	// The original (vanished) client's late completion is idempotent.
	if _, err := srv.Complete(0); err != nil {
		t.Fatalf("late duplicate completion: %v", err)
	}
	if srv.Status().Reissues != 1 {
		t.Fatalf("reissues = %d", srv.Status().Reissues)
	}
	v3, _ := srv.Allocate()
	if v3 != 1 {
		t.Fatalf("next allocation = %d", v3)
	}
	if _, err := srv.Complete(1); err != nil {
		t.Fatal(err)
	}
	if !srv.Finished() {
		t.Fatal("not finished")
	}
}

func TestCompleteValidation(t *testing.T) {
	g := dag.NewBuilder(2).MustBuild()
	srv := icserver.New(g, heur.FIFO())
	if _, err := srv.Complete(5); err == nil {
		t.Fatal("out-of-range completion accepted")
	}
	if _, err := srv.Complete(0); err == nil {
		t.Fatal("unallocated completion accepted")
	}
}

func TestStallCounting(t *testing.T) {
	// Chain: a second concurrent request must stall.
	b := dag.NewBuilder(3)
	b.AddArc(0, 1)
	b.AddArc(1, 2)
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO(), icserver.WithLease(0))
	if v, _ := srv.Allocate(); v != 0 {
		t.Fatal("bad first allocation")
	}
	if _, state := srv.Allocate(); state != icserver.AllocEmpty {
		t.Fatal("expected stall")
	}
	if srv.Status().Stalls != 1 {
		t.Fatalf("stalls = %d", srv.Status().Stalls)
	}
}

func TestDistributedComputationWithValues(t *testing.T) {
	// End-to-end over HTTP with real task payloads: Pascal accumulation
	// over a small mesh, values guarded by a mutex on the client side.
	levels := 7
	g := mesh.OutMesh(levels)
	srv := icserver.New(g, optimalMeshPolicy(levels))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mu sync.Mutex
	vals := make([]int64, g.NumNodes())
	compute := func(v dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		if g.IsSource(v) {
			vals[v] = 1
			return nil
		}
		var sum int64
		for _, p := range g.Parents(v) {
			sum += vals[p]
		}
		vals[v] = sum
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &icserver.Client{BaseURL: ts.URL, Compute: compute}
			if _, err := c.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Row i holds binomials; check the row sums are 2^i.
	for i := 0; i < levels; i++ {
		var sum int64
		for j := 0; j <= i; j++ {
			sum += vals[mesh.TriID(i, j)]
		}
		if sum != 1<<uint(i) {
			t.Fatalf("row %d sum = %d, want %d", i, sum, 1<<uint(i))
		}
	}
}

func TestFailedRequeuesAheadOfPolicy(t *testing.T) {
	// diamond: 0 -> {1,2} -> 3
	b := dag.NewBuilder(4)
	b.AddArc(0, 1)
	b.AddArc(0, 2)
	b.AddArc(1, 3)
	b.AddArc(2, 3)
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO())
	if v, _ := srv.Allocate(); v != 0 {
		t.Fatal("bad first allocation")
	}
	if _, err := srv.Complete(0); err != nil {
		t.Fatal(err)
	}
	v1, _ := srv.Allocate() // task 1 to a client that will fail it
	requeued, quarantined, err := srv.Fail(v1)
	if err != nil || !requeued || quarantined {
		t.Fatalf("Fail(%d) = %v %v %v", v1, requeued, quarantined, err)
	}
	// The handed-back task goes out again before the policy's next pick.
	v2, _ := srv.Allocate()
	if v2 != v1 {
		t.Fatalf("after a hand-back, allocation = %d, want requeued %d", v2, v1)
	}
	st := srv.Status()
	if st.Failed != 1 || st.Reissues != 1 {
		t.Fatalf("status after fail/requeue: %+v", st)
	}
}

func TestQuarantineAfterMaxAttempts(t *testing.T) {
	b := dag.NewBuilder(2)
	b.AddArc(0, 1)
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO(), icserver.WithMaxAttempts(3))
	for i := 0; i < 3; i++ {
		v, state := srv.Allocate()
		if state != icserver.AllocOK || v != 0 {
			t.Fatalf("attempt %d: alloc %d (state %d)", i, v, state)
		}
		_, q, err := srv.Fail(0)
		if err != nil {
			t.Fatal(err)
		}
		if wantQ := i == 2; q != wantQ {
			t.Fatalf("attempt %d: quarantined = %v", i, q)
		}
	}
	// Task 0 quarantined, task 1 blocked behind it, nothing in flight:
	// the computation is terminal-degraded, not hung.
	if _, state := srv.Allocate(); state != icserver.AllocFinished {
		t.Fatal("quarantined computation should report finished (degraded)")
	}
	if !srv.Finished() {
		t.Fatal("Finished() false on degraded-terminal execution")
	}
	st := srv.Status()
	if st.Quarantined != 1 || st.Completed != 0 {
		t.Fatalf("degraded status: %+v", st)
	}
}

func TestLateCompletionRescuesQuarantinedTask(t *testing.T) {
	b := dag.NewBuilder(2)
	b.AddArc(0, 1)
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO(), icserver.WithMaxAttempts(1))
	if v, _ := srv.Allocate(); v != 0 {
		t.Fatal("bad allocation")
	}
	if _, q, _ := srv.Fail(0); !q {
		t.Fatal("MaxAttempts(1) task not quarantined on first failure")
	}
	// A slow original lease-holder reports success after quarantine.
	if _, err := srv.Complete(0); err != nil {
		t.Fatalf("late completion of quarantined task: %v", err)
	}
	st := srv.Status()
	if st.Quarantined != 0 || st.Completed != 1 {
		t.Fatalf("after rescue: %+v", st)
	}
	if v, _ := srv.Allocate(); v != 1 {
		t.Fatal("child not allocatable after rescue")
	}
}

func TestLeaseHeapReissuesInExpiryOrder(t *testing.T) {
	// Three independent tasks leased at staggered times must come back in
	// lease-grant order once expired.
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	g := dag.NewBuilder(3).MustBuild()
	srv := icserver.New(g, heur.FIFO(),
		icserver.WithLease(10*time.Second), icserver.WithClock(clock))
	var order []dag.NodeID
	for i := 0; i < 3; i++ {
		v, _ := srv.Allocate()
		order = append(order, v)
		now = now.Add(time.Second)
	}
	now = now.Add(20 * time.Second) // all three leases expired
	for i := 0; i < 3; i++ {
		v, state := srv.Allocate()
		if state != icserver.AllocOK || v != order[i] {
			t.Fatalf("reissue %d = %d (state %d), want %d", i, v, state, order[i])
		}
	}
	if srv.Status().Reissues != 3 {
		t.Fatalf("reissues = %d", srv.Status().Reissues)
	}
}

// TestRequestBodyLimits pins the request-body bound on both POST
// endpoints: an empty body, and a body past the 64 KiB MaxBytesReader
// bound whether it is one padded object or one huge array, all answer
// 400.
func TestRequestBodyLimits(t *testing.T) {
	g := dag.NewBuilder(2).MustBuild()
	srv := icserver.New(g, heur.FIFO())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// > 64 KiB of valid JSON; distinct ids, so only the bound can 400 it.
	var ids strings.Builder
	ids.WriteString("0")
	for i := 1; ids.Len() <= 64<<10; i++ {
		fmt.Fprintf(&ids, ",%d", i)
	}
	bodies := []struct{ name, body string }{
		{"empty", ""},
		{"padded object", `{"k": 1, "done": [], "epoch": 1, "pad": "` + strings.Repeat("x", 70<<10) + `"}`},
		{"huge array", `{"done": [` + ids.String() + `], "k": 1, "epoch": 1}`},
	}
	for _, path := range []string{"/tasks", "/report"} {
		for _, b := range bodies {
			t.Run(path[1:]+"/"+b.name, func(t *testing.T) {
				if code, _ := postJSON(t, ts.URL+path, b.body); code != http.StatusBadRequest {
					t.Fatalf("%s body -> %d, want 400", b.name, code)
				}
			})
		}
	}
}

func TestHealthzAndDrain(t *testing.T) {
	g := dag.NewBuilder(2).MustBuild()
	srv := icserver.New(g, heur.FIFO())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	status, code, err := icserver.FetchHealth(ctx, nil, ts.URL)
	if err != nil || status != "ok" || code != http.StatusOK {
		t.Fatalf("healthz = %q %d %v", status, code, err)
	}

	// Take a task, then drain: Shutdown must block until the in-flight
	// lease completes, and /tasks must refuse new work meanwhile.
	v, _ := srv.Allocate()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	waitDraining := func() {
		for i := 0; i < 200; i++ {
			if _, code, _ := icserver.FetchHealth(ctx, nil, ts.URL); code == http.StatusServiceUnavailable {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("server never reported draining")
	}
	waitDraining()
	resp, err := http.Post(ts.URL+"/tasks", "application/json", strings.NewReader(`{"k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /tasks -> %d, want 503", resp.StatusCode)
	}
	// /status keeps answering while draining, so operators and resyncing
	// clients can still see progress and the epoch.
	st, err := icserver.FetchStatus(ctx, nil, ts.URL)
	if err != nil || st.Total != 2 || st.Epoch == 0 {
		t.Fatalf("draining /status = %+v, %v", st, err)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a lease in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := srv.Complete(v); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}

	// Shutdown with a stuck lease times out with an error.
	srv2 := icserver.New(dag.NewBuilder(1).MustBuild(), heur.FIFO())
	srv2.Allocate()
	ctx2, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv2.Shutdown(ctx2); err == nil {
		t.Fatal("Shutdown with stuck lease returned nil")
	}
}

func TestClientIdleBackoffGrows(t *testing.T) {
	// A server that answers four empty grants, then 410: the client's
	// idle polls must back off instead of hammering at a fixed cadence.
	var polls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/tasks" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if polls.Add(1) <= 4 {
			_, _ = io.WriteString(w, `{"epoch":1,"tasks":[]}`)
			return
		}
		w.WriteHeader(http.StatusGone)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := &icserver.Client{BaseURL: ts.URL, IdleWait: 4 * time.Millisecond, IdleWaitMax: 64 * time.Millisecond}
	start := time.Now()
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.IdlePolls != 4 {
		t.Fatalf("idle polls = %d, want 4", stats.IdlePolls)
	}
	// Exponential backoff with equal jitter sleeps at least
	// 4/2 + 8/2 + 16/2 + 32/2 = 30ms across the four idle polls; a fixed
	// 4ms wait would take ~16ms.
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("4 idle polls finished in %v: backoff not growing", elapsed)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	// The first request fails twice (once 500, once mid-flight) before
	// succeeding; the client must retry and still run the whole dag.
	g := dag.NewBuilder(2).MustBuild()
	srv := icserver.New(g, heur.FIFO())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plan := faults.NewPlan(0, faults.Rates{})
	plan.Schedule(faults.HTTPError, 0)
	plan.Schedule(faults.DropResponse, 1)
	c := &icserver.Client{
		BaseURL:   ts.URL,
		HTTP:      &http.Client{Transport: plan.Transport(nil)},
		RetryWait: time.Millisecond,
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 2 {
		t.Fatalf("completed %d of 2 tasks", stats.Completed)
	}
	if stats.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2", stats.Retries)
	}
	if !srv.Finished() {
		t.Fatal("server not finished")
	}
}

func TestClientComputeErrorHandsTaskBack(t *testing.T) {
	// First execution of task 0 fails; the client hands it back and the
	// (re-computable) task succeeds on reissue.
	b := dag.NewBuilder(2)
	b.AddArc(0, 1)
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var firstTry atomic.Bool
	firstTry.Store(true)
	c := &icserver.Client{
		BaseURL: ts.URL,
		Compute: func(v dag.NodeID, _ string) error {
			if v == 0 && firstTry.Swap(false) {
				return errors.New("flaky computation")
			}
			return nil
		},
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Completed != 2 {
		t.Fatalf("stats = %+v, want 1 failed hand-back and 2 completions", stats)
	}
	st := srv.Status()
	if st.Completed != 2 || st.Failed != 1 || st.Quarantined != 0 {
		t.Fatalf("server status = %+v", st)
	}
}

func TestClientCrashSentinelVanishes(t *testing.T) {
	g := dag.NewBuilder(1).MustBuild()
	srv := icserver.New(g, heur.FIFO(), icserver.WithLease(time.Hour))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &icserver.Client{
		BaseURL: ts.URL,
		Compute: func(dag.NodeID, string) error { return icserver.ErrCrash },
	}
	_, err := c.Run(context.Background())
	if !errors.Is(err, icserver.ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	// The crash reported nothing: the lease is still outstanding.
	st := srv.Status()
	if st.Allocated != 1 || st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("status after crash = %+v", st)
	}
}
