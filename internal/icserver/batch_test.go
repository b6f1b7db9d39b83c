package icserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/sched"
)

// postJSON posts a raw body and returns status code + decoded-or-raw body.
func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func grantTasks(t *testing.T, base string, k int) (int, []dag.NodeID) {
	t.Helper()
	code, body := postJSON(t, base+"/tasks", fmt.Sprintf(`{"k":%d}`, k))
	if code != http.StatusOK {
		return code, nil
	}
	var resp struct {
		Tasks []dag.NodeID `json:"tasks"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal /tasks response %q: %v", body, err)
	}
	return code, resp.Tasks
}

// TestTasksBatchClampsToEligible walks a fan dag (source 0, leaves 1..5)
// through the batched protocol, checking at every step that a grant is
// the ELIGIBLE prefix of the allocation order: k is clamped to what is
// actually eligible, an oversized k is harmless, an empty grant is a 200
// with an empty list (the batched analog of the legacy 204), and a
// finished run answers 410.
func TestTasksBatchClampsToEligible(t *testing.T) {
	const leaves = 5
	b := dag.NewBuilder(1 + leaves)
	for i := 1; i <= leaves; i++ {
		b.AddArc(0, dag.NodeID(i))
	}
	g := b.MustBuild()
	srv := icserver.New(g, heur.FIFO(), icserver.WithLease(0))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	steps := []struct {
		k         int
		wantGrant []dag.NodeID
		report    string // body for a follow-up /report, "" for none
	}{
		// Only the source is eligible: k=3 must clamp to 1.
		{k: 3, wantGrant: []dag.NodeID{0}, report: `{"done":[0],"failed":[],"epoch":1}`},
		// All five leaves eligible now; a partial ask takes the prefix.
		{k: 2, wantGrant: []dag.NodeID{1, 2}},
		// Oversized ask grants exactly the remaining three.
		{k: 100, wantGrant: []dag.NodeID{3, 4, 5}},
		// Everything leased out: empty grant, not an error.
		{k: 4, wantGrant: []dag.NodeID{},
			report: `{"done":[1,2,3,4,5],"failed":[],"epoch":1}`},
	}
	for i, step := range steps {
		code, got := grantTasks(t, ts.URL, step.k)
		if code != http.StatusOK {
			t.Fatalf("step %d: /tasks k=%d returned %d", i, step.k, code)
		}
		if len(got) != len(step.wantGrant) {
			t.Fatalf("step %d: grant %v, want %v", i, got, step.wantGrant)
		}
		for j := range got {
			if got[j] != step.wantGrant[j] {
				t.Fatalf("step %d: grant %v, want %v (schedule order)", i, got, step.wantGrant)
			}
		}
		if step.report != "" {
			if code, body := postJSON(t, ts.URL+"/report", step.report); code != http.StatusOK {
				t.Fatalf("step %d: /report returned %d: %s", i, code, body)
			}
		}
	}
	if code, _ := grantTasks(t, ts.URL, 1); code != http.StatusGone {
		t.Fatalf("/tasks after completion returned %d, want 410", code)
	}
	if !srv.Finished() {
		t.Fatal("server not finished")
	}
}

// TestBatchProtocolRejections is the table-driven bad-input sweep for
// the two batched endpoints: non-positive k, malformed JSON, duplicate
// acks within one batch, acks of never-allocated tasks, and an ack of a
// leased task without the fencing epoch.
func TestBatchProtocolRejections(t *testing.T) {
	cases := []struct {
		name     string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"k zero", "/tasks", `{"k":0}`, http.StatusBadRequest, "batch size"},
		{"k negative", "/tasks", `{"k":-4}`, http.StatusBadRequest, "batch size"},
		{"tasks malformed", "/tasks", `{"k":`, http.StatusBadRequest, "malformed"},
		{"tasks wrong type", "/tasks", `{"k":"ten"}`, http.StatusBadRequest, "malformed"},
		{"report malformed", "/report", `{"done":[`, http.StatusBadRequest, "malformed"},
		{"report duplicate done", "/report", `{"done":[0,0],"epoch":1}`, http.StatusBadRequest, "twice"},
		{"report done and failed overlap", "/report", `{"done":[0],"failed":[0],"epoch":1}`,
			http.StatusBadRequest, "twice"},
		{"report unknown id", "/report", `{"done":[99],"epoch":1}`, http.StatusConflict, "out of range"},
		{"report never allocated", "/report", `{"done":[1],"epoch":1}`, http.StatusConflict, ""},
		{"report without epoch", "/report", `{"done":[0]}`, http.StatusBadRequest, "without an epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := dag.NewBuilder(2)
			b.AddArc(0, 1)
			srv := icserver.New(b.MustBuild(), heur.FIFO())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			// Lease task 0 so "duplicate" cases fail on duplication, not
			// on never-allocated.
			if _, state := srv.Allocate(); state != icserver.AllocOK {
				t.Fatalf("setup allocate: %v", state)
			}
			code, body := postJSON(t, ts.URL+tc.path, tc.body)
			if code != tc.wantCode {
				t.Fatalf("%s %s: code %d, want %d (%s)", tc.path, tc.body, code, tc.wantCode, body)
			}
			if tc.wantErr != "" && !strings.Contains(string(body), tc.wantErr) {
				t.Fatalf("%s error %q does not mention %q", tc.path, body, tc.wantErr)
			}
			// Rejection must be atomic: nothing in the batch may have
			// been applied.
			if st := srv.Status(); st.Completed != 0 || st.Failed != 0 || st.Quarantined != 0 {
				t.Fatalf("rejected batch mutated state: %+v", st)
			}
		})
	}
}

// TestReportAtomicThenRetry checks that after an all-or-nothing
// rejection the client can fix the batch and re-report successfully,
// and that cross-request duplicate acks remain idempotent (counted, not
// rejected) — the property a retried /report after a dropped response
// depends on.
func TestReportAtomicThenRetry(t *testing.T) {
	b := dag.NewBuilder(3)
	b.AddArc(0, 2)
	b.AddArc(1, 2)
	srv := icserver.New(b.MustBuild(), heur.FIFO())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, got := grantTasks(t, ts.URL, 2); len(got) != 2 {
		t.Fatalf("grant %v, want [0 1]", got)
	}
	// Duplicate inside the batch: whole batch rejected, including the
	// valid ack of task 1.
	if code, _ := postJSON(t, ts.URL+"/report", `{"done":[1,0,1],"epoch":1}`); code != http.StatusBadRequest {
		t.Fatalf("duplicate batch returned %d, want 400", code)
	}
	if st := srv.Status(); st.Completed != 0 {
		t.Fatalf("rejected batch completed %d tasks", st.Completed)
	}
	// Fixed batch applies in full.
	code, body := postJSON(t, ts.URL+"/report", `{"done":[1,0],"epoch":1}`)
	if code != http.StatusOK {
		t.Fatalf("fixed batch returned %d: %s", code, body)
	}
	var rep icserver.BatchReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.NewlyEligible != 1 || rep.Duplicates != 0 {
		t.Fatalf("batch report %+v, want 2 completed unlocking task 2", rep)
	}
	// The same batch again — a retry after a lost response — is an
	// idempotent no-op reported as duplicates.
	code, body = postJSON(t, ts.URL+"/report", `{"done":[1,0],"epoch":1}`)
	if code != http.StatusOK {
		t.Fatalf("replayed batch returned %d: %s", code, body)
	}
	rep = icserver.BatchReport{} // zero counts are omitted on the wire
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 0 || rep.Duplicates != 2 {
		t.Fatalf("replayed batch report %+v, want 2 duplicates", rep)
	}
}

// TestReportPiggybackGrant walks the one-round-trip steady state: a
// /report carrying "k" acks its batch and returns the next grant, the
// grant is the ELIGIBLE prefix exactly as /tasks would give it, the
// terminal piggyback answers "finished" (the 410 analog), a negative k is
// rejected, and a rejected report grants nothing.
func TestReportPiggybackGrant(t *testing.T) {
	const leaves = 3 // fan: source 0, leaves 1..3
	b := dag.NewBuilder(1 + leaves)
	for i := 1; i <= leaves; i++ {
		b.AddArc(0, dag.NodeID(i))
	}
	srv := icserver.New(b.MustBuild(), heur.FIFO(), icserver.WithLease(0))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		icserver.BatchReport
		Tasks    []dag.NodeID `json:"tasks"`
		Finished bool         `json:"finished"`
	}
	report := func(body string) (int, reply) {
		t.Helper()
		code, raw := postJSON(t, ts.URL+"/report", body)
		var resp reply
		if code == http.StatusOK {
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("unmarshal /report response %q: %v", raw, err)
			}
		}
		return code, resp
	}

	if code, body := postJSON(t, ts.URL+"/report", `{"done":[],"k":-1,"epoch":1}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "piggyback") {
		t.Fatalf("negative k returned %d: %s, want 400 piggyback rejection", code, body)
	}
	if _, got := grantTasks(t, ts.URL, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("bootstrap grant %v, want [0]", got)
	}
	// A rejected report must not grant: task 2 was never allocated.
	if code, _ := report(`{"done":[2],"k":3,"epoch":1}`); code != http.StatusConflict {
		t.Fatalf("never-allocated piggyback report returned %d, want 409", code)
	}
	if st := srv.Status(); st.Allocated != 1 {
		t.Fatalf("rejected piggyback report changed leases: %+v", st)
	}
	// Ack the source and take the next two leaves in the same request.
	code, resp := report(`{"done":[0],"k":2,"epoch":1}`)
	if code != http.StatusOK || resp.Completed != 1 || resp.NewlyEligible != leaves {
		t.Fatalf("piggyback ack returned %d %+v", code, resp.BatchReport)
	}
	if len(resp.Tasks) != 2 || resp.Tasks[0] != 1 || resp.Tasks[1] != 2 || resp.Finished {
		t.Fatalf("piggyback grant %+v, want tasks [1 2]", resp)
	}
	// Oversized ask clamps to the one remaining leaf.
	code, resp = report(`{"done":[1,2],"k":100,"epoch":1}`)
	if code != http.StatusOK || len(resp.Tasks) != 1 || resp.Tasks[0] != 3 || resp.Finished {
		t.Fatalf("second piggyback returned %d %+v, want task [3]", code, resp)
	}
	// The terminal ack: nothing left, finished flag set.
	code, resp = report(`{"done":[3],"k":4,"epoch":1}`)
	if code != http.StatusOK || len(resp.Tasks) != 0 || !resp.Finished {
		t.Fatalf("terminal piggyback returned %d %+v, want finished", code, resp)
	}
	if !srv.Finished() {
		t.Fatal("server not finished after terminal piggyback")
	}
}

// TestGaugesAfterBatchGrant pins the wart fix: gauges are reconciled
// once per request, and after a /tasks batch grant the scraped values
// must reflect the whole batch (leases = batch size, eligible shrunk by
// the grant), with grants_per_request recording one sample of size k
// per request, an empty grant included.
func TestGaugesAfterBatchGrant(t *testing.T) {
	t.Run("locked", func(t *testing.T) {
		const leaves = 6
		b := dag.NewBuilder(1 + leaves)
		for i := 1; i <= leaves; i++ {
			b.AddArc(0, dag.NodeID(i))
		}
		srv := icserver.New(b.MustBuild(), heur.FIFO(), icserver.WithLease(time.Minute))
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		if code, body := postJSON(t, ts.URL+"/report", `{"done":[],"epoch":1}`); code != http.StatusOK {
			t.Fatalf("empty report returned %d: %s", code, body)
		}
		if _, got := grantTasks(t, ts.URL, 1); len(got) != 1 {
			t.Fatalf("source grant %v", got)
		}
		// Only the source is eligible and it is leased: k=1 grants nothing.
		if code, got := grantTasks(t, ts.URL, 1); code != http.StatusOK || len(got) != 0 {
			t.Fatalf("k=1 on an empty frontier returned %d %v", code, got)
		}
		if code, _ := postJSON(t, ts.URL+"/report", `{"done":[0],"epoch":1}`); code != http.StatusOK {
			t.Fatal("report source")
		}
		// All six leaves eligible; one request grants four, k=1 a fifth.
		if _, got := grantTasks(t, ts.URL, 4); len(got) != 4 {
			t.Fatalf("batch grant %v, want 4 tasks", got)
		}
		if _, got := grantTasks(t, ts.URL, 1); len(got) != 1 {
			t.Fatalf("k=1 grant %v, want 1 task", got)
		}
		m := scrapeMetrics(t, ts.URL)
		checks := map[string]float64{
			"icserver_leases": 5,
			// ELIGIBLE is the §2.2 measure over *executed* parents: leasing
			// a task does not shrink it, so all six leaves still count.
			"icserver_eligible":                              6,
			"icserver_completed":                             1,
			"icserver_grants_per_request_count":              4, // k=1 grant + empty k=1 + k=4 grant + k=1
			"icserver_grants_per_request_sum":                6,
			`icserver_request_seconds_count{path="/tasks"}`:  4,
			`icserver_request_seconds_count{path="/report"}`: 2,
		}
		for name, want := range checks {
			if got := m[name]; got != want {
				t.Fatalf("%s = %v, want %v\nscrape: %v", name, got, want, m)
			}
		}
	})
}

// TestBatchSingleClockRead pins the other wart fix: one batch request
// reads the injected clock exactly once, however many tasks it grants.
func TestBatchSingleClockRead(t *testing.T) {
	calls := 0
	clock := func() time.Time { calls++; return time.Unix(int64(calls), 0) }
	levels := 4
	g := mesh.OutMesh(levels)
	srv := icserver.New(g, heur.Static("order", sched.Complete(g, mesh.OutMeshNonsinks(levels))),
		icserver.WithLease(time.Hour), icserver.WithClock(clock))
	before := calls
	if batch, state := srv.AllocateBatch(1); state != icserver.AllocOK || len(batch) != 1 {
		t.Fatalf("first grant %v, %v", batch, state)
	}
	if calls != before+1 {
		t.Fatalf("k=1 grant read the clock %d times, want 1", calls-before)
	}
	if _, err := srv.Report([]dag.NodeID{0}, nil); err != nil {
		t.Fatal(err)
	}
	before = calls
	batch, state := srv.AllocateBatch(8)
	if state != icserver.AllocOK || len(batch) < 2 {
		t.Fatalf("batch grant %v, %v", batch, state)
	}
	if calls != before+1 {
		t.Fatalf("k=8 grant of %d tasks read the clock %d times, want 1", len(batch), calls-before)
	}
}

// TestBatchedClientAdaptiveSizing checks the client-side ramp: against a
// wide dag the ask doubles after full grants, so the number of /tasks
// round-trips is far below the task count; against constant starvation
// it resets to 1.  Each row drains its dag twice, once with ONE client
// at cap 1 and once with ONE client at cap 16, and
// counts the HTTP requests the server saw: with a fleet of one both
// counts are functions of the dag and the schedule, not of goroutine
// scheduling, so "batching saves round trips" is an exact assertion
// rather than a throughput ratio.
func TestBatchedClientAdaptiveSizing(t *testing.T) {
	const leaves = 32
	b := dag.NewBuilder(1 + leaves)
	for i := 1; i <= leaves; i++ {
		b.AddArc(0, dag.NodeID(i))
	}
	wave := mesh.Grid(32, 32)
	cases := []struct {
		name   string
		g      *dag.Dag
		policy heur.Policy
		// maxBatches bounds the batched client's non-empty grants.
		maxBatches int
	}{
		// 33 tasks: source alone (ask ramps 1,2,4,... while grants stay
		// clamped), then the leaf layer in doubling batches.  Without
		// ramping this would be 33 batches; with it, far fewer.
		{"fan-32", b.MustBuild(), heur.FIFO(), 11},
		// The 32x32 wavefront under its IC-optimal schedule: frontier
		// 1..32..1, so grants are clamped on the narrow ends and capped
		// at 16 in the middle: at least 8 tasks per grant on average.
		{"wavefront-32x32", wave,
			heur.Static("IC-OPTIMAL", sched.Complete(wave, mesh.GridDiagonalNonsinks(32, 32))), 1024 / 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drain := func(batch int) (icserver.Stats, int) {
				t.Helper()
				srv := icserver.New(tc.g, tc.policy, icserver.WithLease(0))
				h := srv.Handler()
				var requests atomic.Int64
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					requests.Add(1)
					h.ServeHTTP(w, r)
				}))
				defer ts.Close()
				cl := &icserver.Client{BaseURL: ts.URL, Batch: batch, ID: "ramp", Seed: 1}
				st, err := cl.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if st.Completed != tc.g.NumNodes() {
					t.Fatalf("batch %d: completed %d, want %d", batch, st.Completed, tc.g.NumNodes())
				}
				if !srv.Finished() {
					t.Fatalf("batch %d: server not finished", batch)
				}
				return st, int(requests.Load())
			}
			_, single := drain(1)
			st, batched := drain(16)
			if st.Batches > tc.maxBatches {
				t.Fatalf("ramp ineffective: %d tasks took %d batches, want <= %d", st.Completed, st.Batches, tc.maxBatches)
			}
			// A cap-1 client alone on the dag pays one /tasks, then one
			// /report per task, each piggybacking the next one-task grant.
			if single != tc.g.NumNodes()+1 {
				t.Fatalf("cap-1 client drained %d tasks in %d requests, want %d", tc.g.NumNodes(), single, tc.g.NumNodes()+1)
			}
			if 4*batched > single {
				t.Fatalf("cap-16 client needed %d requests, cap-1 client %d: want <= 1/4", batched, single)
			}
			t.Logf("%d tasks: single %d requests, batched %d requests in %d grants", tc.g.NumNodes(), single, batched, st.Batches)
		})
	}
}
