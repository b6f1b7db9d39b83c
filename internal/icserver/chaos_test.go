package icserver_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/faults"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
)

// TestChaosConcurrentClients drives 8 real clients over HTTP through a
// fault-injecting transport — dropped responses, injected 500s, latency
// spikes — plus compute failures and outright client crashes (respawned
// like a real fleet), and asserts the wavefront still computes the exact
// Pascal-triangle values with nothing lost.  Run with -race.
func TestChaosConcurrentClients(t *testing.T) {
	const (
		levels  = 12
		clients = 8
		seed    = 424242
	)
	g := mesh.OutMesh(levels)
	srv := icserver.New(g, optimalMeshPolicy(levels),
		icserver.WithLease(150*time.Millisecond),
		icserver.WithMaxAttempts(25))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plan := faults.NewPlan(seed, faults.Rates{
		Crash:        0.08,
		ComputeError: 0.08,
		DropResponse: 0.05,
		HTTPError:    0.05,
		Latency:      0.05,
	})

	var mu sync.Mutex
	vals := make([]int64, g.NumNodes())
	compute := func(v dag.NodeID, _ string) error {
		if plan.Decide(faults.Crash) {
			return icserver.ErrCrash
		}
		if plan.Decide(faults.ComputeError) {
			return errors.New("injected compute failure")
		}
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

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var crashMu sync.Mutex
	crashes := 0
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A crashed client is replaced by a fresh one, as a real IC
			// fleet replaces vanished volunteers.
			for {
				c := &icserver.Client{
					BaseURL:   ts.URL,
					HTTP:      &http.Client{Transport: plan.Transport(nil)},
					Compute:   compute,
					IdleWait:  time.Millisecond,
					RetryWait: time.Millisecond,
				}
				_, err := c.Run(ctx)
				if errors.Is(err, icserver.ErrCrash) {
					crashMu.Lock()
					crashes++
					crashMu.Unlock()
					continue
				}
				errs[i] = err
				return
			}
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
	st := srv.Status()
	if st.Completed != g.NumNodes() {
		t.Fatalf("completed %d of %d tasks", st.Completed, g.NumNodes())
	}
	if st.Quarantined != 0 {
		t.Fatalf("%d tasks quarantined (lost)", st.Quarantined)
	}
	if st.Allocated != 0 {
		t.Fatalf("%d leases outstanding after completion", st.Allocated)
	}
	// Fault pressure must actually have materialized and been recovered.
	if crashes == 0 {
		t.Fatal("no client crashes occurred at an 8% crash rate")
	}
	if st.Failed == 0 {
		t.Fatal("no hand-backs occurred at an 8% compute-error rate")
	}
	if st.Reissues == 0 {
		t.Fatal("no reissues despite crashes and failures")
	}

	// Bit-identical correctness: every mesh cell holds its binomial.
	for i := 0; i < levels; i++ {
		want := int64(1)
		for j := 0; j <= i; j++ {
			if got := vals[mesh.TriID(i, j)]; got != want {
				t.Fatalf("cell (%d,%d) = %d, want C(%d,%d) = %d", i, j, got, i, j, want)
			}
			want = want * int64(i-j) / int64(j+1)
		}
	}
	t.Logf("chaos run: %d crashes, status %+v, plan: %s", crashes, st, plan.Summary())
}

// TestChaosDuplicateDoneIdempotent sends the same completion report
// twice over the wire (a client retrying a dropped response) and checks
// the second is a no-op.
func TestChaosDuplicateDoneIdempotent(t *testing.T) {
	g := dag.NewBuilder(2).MustBuild()
	srv := icserver.New(g, heur.FIFO())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v, state := srv.Allocate()
	if state != icserver.AllocOK {
		t.Fatal("no allocation")
	}
	body := fmt.Sprintf(`{"done": [%d], "epoch": 1}`, v)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("duplicate report attempt %d -> %d", i, resp.StatusCode)
		}
	}
	if st := srv.Status(); st.Completed != 1 {
		t.Fatalf("completed = %d after a duplicate report, want 1", st.Completed)
	}
}
