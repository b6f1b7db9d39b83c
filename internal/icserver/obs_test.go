package icserver_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/obs"
	"icsched/internal/sched"
)

// TestLeaseExpiryQuarantinesAtMaxAttempts covers the recovery path where
// the *lease-expiry* scan (not a hand-back) exhausts MaxAttempts:
// the expired task must be quarantined, and — being the last task in
// flight with its child blocked behind it — the very same Allocate call
// must land on the degraded-terminal AllocFinished state instead of
// stalling forever.
func TestLeaseExpiryQuarantinesAtMaxAttempts(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := dag.NewBuilder(2)
	b.AddArc(0, 1)
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO(),
		icserver.WithLease(time.Second),
		icserver.WithMaxAttempts(1),
		icserver.WithClock(clock))

	if v, state := srv.Allocate(); state != icserver.AllocOK || v != 0 {
		t.Fatalf("initial allocation: task %d (state %d)", v, state)
	}
	now = now.Add(5 * time.Second) // lease long expired; attempts already at max

	v, state := srv.Allocate()
	if state != icserver.AllocFinished {
		t.Fatalf("after expiry at MaxAttempts: alloc %d (state %d), want AllocFinished", v, state)
	}
	if !srv.Finished() {
		t.Fatal("Finished() false after degraded-terminal allocation")
	}
	st := srv.Status()
	if st.Quarantined != 1 || st.Completed != 0 || st.Allocated != 0 {
		t.Fatalf("degraded status: %+v", st)
	}
}

// scrapeMetrics fetches /metrics and parses every sample line into a
// name -> value map (histogram sample lines included, untyped).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	samples := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable metrics line %q", line)
		}
		val, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		samples[line[:i]] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsAgreeWithStatus is the acceptance check that a /metrics
// scrape and Status() tell the same story after a failure-heavy run:
// flaky clients hand tasks back, leases reissue, and at quiescence every
// mirrored series must equal its Status field exactly.
func TestMetricsAgreeWithStatus(t *testing.T) {
	levels := 8
	g := mesh.OutMesh(levels)
	srv := icserver.New(g, optimalMeshPolicy(levels), icserver.WithMaxAttempts(10))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mu sync.Mutex
	failures := make(map[dag.NodeID]int)
	var wg sync.WaitGroup
	const clients = 4
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &icserver.Client{
				BaseURL: ts.URL,
				ID:      fmt.Sprintf("client-%d", i),
				Seed:    int64(i + 1),
				Compute: func(v dag.NodeID, name string) error {
					mu.Lock()
					defer mu.Unlock()
					if failures[v] == 0 && int(v)%3 == i%3 {
						failures[v]++
						return errors.New("flaky")
					}
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

	st := srv.Status()
	if st.Completed != st.Total {
		t.Fatalf("run did not complete: %+v", st)
	}
	m := scrapeMetrics(t, ts.URL)
	checks := []struct {
		series string
		want   int
	}{
		{"icserver_completions_total", st.Completed},
		// Counted once per request: every task's first grant plus every
		// reissue (nothing is quarantined at MaxAttempts 10).
		{"icserver_allocations_total", st.Total + st.Reissues},
		{"icserver_completed", st.Completed},
		{"icserver_stalls_total", st.Stalls},
		{"icserver_reissues_total", st.Reissues},
		{"icserver_failed_total", st.Failed},
		{"icserver_quarantined", st.Quarantined},
		{"icserver_eligible", st.Eligible},
		{"icserver_leases", st.Allocated},
	}
	for _, c := range checks {
		got, ok := m[c.series]
		if !ok {
			t.Fatalf("series %s missing from /metrics", c.series)
		}
		if got != float64(c.want) {
			t.Errorf("%s = %g, Status says %d", c.series, got, c.want)
		}
	}
	if m[`icserver_http_requests_total{path="/tasks"}`] == 0 ||
		m[`icserver_http_requests_total{path="/report"}`] == 0 {
		t.Fatalf("per-path request counters missing or zero: %v", m)
	}
}

// TestLatencyHistogramsResolveMicroseconds pins the sub-50µs bounds of
// the lock-hold and per-endpoint histograms: a lock hold on the grant
// core is a few microseconds, below the old first bucket.
func TestLatencyHistogramsResolveMicroseconds(t *testing.T) {
	srv := icserver.New(mesh.OutMesh(4), optimalMeshPolicy(4))
	if _, state := srv.AllocateBatch(2); state != icserver.AllocOK {
		t.Fatalf("allocate state %d", state)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	m := scrapeMetrics(t, ts.URL)
	for _, fam := range []string{"icserver_lock_hold_seconds_bucket{", `icserver_request_seconds_bucket{path="/report",`} {
		for _, le := range []string{"1e-06", "2.5e-06", "5e-06", "1e-05", "2.5e-05", "5e-05"} {
			if _, ok := m[fam+`le="`+le+`"}`]; !ok {
				t.Errorf(`%sle="%s"} missing from /metrics`, fam, le)
			}
		}
	}
	if m["icserver_lock_hold_seconds_count"] != 1 {
		t.Fatalf("lock-hold observations = %v, want 1", m["icserver_lock_hold_seconds_count"])
	}
}

// TestServerTraceMatchesProfileOracle drives the server serially in
// process (allocate, complete, repeat) and checks the trace-reconstructed
// eligibility profile against sched.Profile for the allocation order —
// the same oracle identity the executor trace satisfies.
func TestServerTraceMatchesProfileOracle(t *testing.T) {
	levels := 7
	g := mesh.OutMesh(levels)
	tr := obs.NewTrace()
	srv := icserver.New(g, optimalMeshPolicy(levels), icserver.WithTrace(tr))
	var order []dag.NodeID
	for {
		v, state := srv.Allocate()
		if state == icserver.AllocFinished {
			break
		}
		if state != icserver.AllocOK {
			t.Fatalf("serial drive stalled (state %d) after %d tasks", state, len(order))
		}
		order = append(order, v)
		if _, err := srv.Complete(v); err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("profile[%d] = %d from trace, %d from sched.Profile", i, got[i], want[i])
		}
	}
}

// TestServerTraceAttributesClients checks actor attribution end to end:
// events carry the X-IC-Client name, the run brackets with
// run-start/run-end, and allocate/done pair up per task.
func TestServerTraceAttributesClients(t *testing.T) {
	levels := 5
	g := mesh.OutMesh(levels)
	tr := obs.NewTrace()
	srv := icserver.New(g, optimalMeshPolicy(levels), icserver.WithTrace(tr))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &icserver.Client{
		BaseURL: ts.URL,
		ID:      "worker-a",
		Seed:    1,
		Compute: func(dag.NodeID, string) error { return nil },
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	counts := map[obs.Phase]int{}
	for _, ev := range tr.Events() {
		counts[ev.Phase]++
		switch ev.Phase {
		case obs.PhaseAllocate, obs.PhaseDone:
			if ev.Actor != "worker-a" {
				t.Fatalf("%s event for task %d has actor %q, want worker-a", ev.Phase, ev.Task, ev.Actor)
			}
		}
	}
	n := g.NumNodes()
	if counts[obs.PhaseAllocate] != n || counts[obs.PhaseDone] != n {
		t.Fatalf("phase counts %v, want %d allocates and dones", counts, n)
	}
	if counts[obs.PhaseRunStart] != 1 || counts[obs.PhaseRunEnd] != 1 {
		t.Fatalf("phase counts %v, want one run-start and one run-end", counts)
	}
}
