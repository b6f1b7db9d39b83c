package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/icserver"
)

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// ask1 is a /tasks body asking for one task.
var ask1 = map[string]int{"k": 1}

// typedError reads icserver's typed 503 and 409 bodies, which the job
// service sends.
type typedError struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
	Epoch  uint64 `json:"epoch"`
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPFleetEndToEnd streams a mixed multi-tenant job set through
// the real HTTP surface with a shared fleet of batched workers, and
// checks every job's values against the serial reference.
func TestHTTPFleetEndToEnd(t *testing.T) {
	s := New(Config{Lease: time.Minute})
	defer closeServer(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var mu sync.Mutex
	graphs := map[string]*dag.Dag{}
	vals := map[string][]uint64{}
	specs := map[string]Spec{}
	submit := func(req any) string {
		code, body := postJSON(t, ts.URL+"/jobs", req)
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs -> %d: %s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		sp, ok := req.(Spec)
		if !ok { // a raw body: the spec is what the server's decoder sees in it
			if err := json.Unmarshal(req.(json.RawMessage), &sp); err != nil {
				t.Fatal(err)
			}
		}
		g, _, err := buildJob(sp)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		graphs[st.Job], vals[st.Job], specs[st.Job] = g, make([]uint64, g.NumNodes()), sp
		mu.Unlock()
		return st.Job
	}
	for _, req := range []any{
		Spec{Tenant: "a", Family: "wavefront", Size: 6},
		Spec{Tenant: "b", Family: "prefix", Size: 32},
		Spec{Tenant: "c", Family: "fftconv", Size: 3},
		Spec{Tenant: "a", Dag: rawDag(6, [][2]int{{0, 3}, {1, 3}, {2, 4}, {3, 5}, {4, 5}})},
		// A body written for the removed k-relaxed grant path: the key is
		// unknown now, the job is accepted and runs on the exact path.
		json.RawMessage(`{"tenant": "b", "family": "wavefront", "size": 4, "relaxed": 4}`),
		// Likewise a body written for the removed sharded jobs: one server
		// runs it.
		json.RawMessage(`{"tenant": "c", "family": "prefix", "size": 8, "shards": 3}`),
	} {
		submit(req)
	}

	compute := func(job string, task dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		g, ok := graphs[job]
		if !ok {
			return fmt.Errorf("grant for unknown job %s", job)
		}
		vals[job][task] = fnvNodeValue(g, task, vals[job])
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &Client{BaseURL: ts.URL, Compute: compute, Batch: 8,
				ID: fmt.Sprintf("w%d", w), Seed: int64(w + 1),
				IdleWait: 100 * time.Microsecond, IdleWaitMax: 5 * time.Millisecond}
			_, errs[w] = cl.Run(ctx)
		}(w)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var list []JobStatus
		if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK {
			t.Fatalf("GET /jobs -> %d", code)
		}
		finished := 0
		for _, st := range list {
			if st.State == StateFinished {
				finished++
			}
			if st.State == StateFailed {
				t.Fatalf("job failed: %+v", st)
			}
		}
		if finished == len(specs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stalled: %+v", list)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	for w, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	for id, sp := range specs {
		_, want := refVals(t, sp)
		for v, got := range vals[id] {
			if got != want[v] {
				t.Fatalf("job %s node %d = %#x, want %#x", id, v, got, want[v])
			}
		}
	}

	// GET /status: service snapshot plus the job list with epochs.
	var raw json.RawMessage
	var st statusResponse
	if code := getJSON(t, ts.URL+"/status", &raw); code != http.StatusOK {
		t.Fatalf("GET /status -> %d", code)
	}
	if err := json.Unmarshal(raw, &st); err != nil || bytes.Contains(raw, []byte("relaxed")) || bytes.Contains(raw, []byte("shards")) {
		t.Fatalf("GET /status: err %v, body %s", err, raw)
	}
	if st.Finished != len(specs) || len(st.Jobs) != len(specs) || len(st.Tenants) != 3 {
		t.Fatalf("status %+v", st)
	}
	for _, js := range st.Jobs {
		if js.Epoch == 0 {
			t.Fatalf("job %s has no visible epoch in /status", js.Job)
		}
	}
	// GET /jobs/{id} and its 404.
	for id := range specs {
		var one JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id, &one); code != http.StatusOK || one.Job != id {
			t.Fatalf("GET /jobs/%s -> %d %+v", id, code, one)
		}
		break
	}
	if code := getJSON(t, ts.URL+"/jobs/j999", nil); code != http.StatusNotFound {
		t.Fatalf("GET /jobs/j999 -> %d, want 404", code)
	}
}

// TestHTTPTypedErrors pins the wire mapping of the typed service
// errors: 429 backpressure, 409 stale epoch (with the current token in
// the body), 400 duplicate-in-batch, 404 unknown job, 400 on a report
// without a job, without an epoch or past the 64 KiB body bound (none
// applied), 503 with a reason after drain.
func TestHTTPTypedErrors(t *testing.T) {
	s := New(Config{MaxQueued: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/jobs", Spec{Tenant: "a", Dag: rawDag(3, nil)})
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Over the tenant cap: typed 429.
	code, body = postJSON(t, ts.URL+"/jobs", Spec{Tenant: "a", Dag: rawDag(3, nil)})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit -> %d: %s", code, body)
	}
	var busy backpressureResponse
	if err := json.Unmarshal(body, &busy); err != nil || busy.Error != "backpressure" || busy.Tenant != "a" {
		t.Fatalf("429 body %s", body)
	}

	// Grant one task, then report it under a wrong epoch: typed 409
	// carrying the current epoch.
	waitState(t, s, st.Job, StateActive)
	code, body = postJSON(t, ts.URL+"/tasks", ask1)
	if code != http.StatusOK {
		t.Fatalf("/tasks -> %d: %s", code, body)
	}
	var grant icserver.Grant
	if err := json.Unmarshal(body, &grant); err != nil || len(grant.Tasks) != 1 {
		t.Fatalf("grant %s", body)
	}
	code, body = postJSON(t, ts.URL+"/report", icserver.ReportRequest{
		Job: grant.Job, Epoch: grant.Epoch + 5, Done: []dag.NodeID{grant.Tasks[0]}})
	if code != http.StatusConflict {
		t.Fatalf("stale report -> %d: %s", code, body)
	}
	var rej typedError
	if err := json.Unmarshal(body, &rej); err != nil || rej.Error != "stale epoch" || rej.Epoch != grant.Epoch {
		t.Fatalf("409 body %s", body)
	}

	// Duplicate task in one batch: 400.
	v := grant.Tasks[0]
	code, _ = postJSON(t, ts.URL+"/report", icserver.ReportRequest{
		Job: grant.Job, Epoch: grant.Epoch, Done: []dag.NodeID{v, v}})
	if code != http.StatusBadRequest {
		t.Fatalf("duplicate-in-batch -> %d, want 400", code)
	}

	// Unknown job: 404.
	code, _ = postJSON(t, ts.URL+"/report", icserver.ReportRequest{Job: "j999", Done: []dag.NodeID{0}, Epoch: 1})
	if code != http.StatusNotFound {
		t.Fatalf("unknown-job report -> %d, want 404", code)
	}

	// Missing job field: 400.
	code, _ = postJSON(t, ts.URL+"/report", icserver.ReportRequest{Done: []dag.NodeID{0}, Epoch: 1})
	if code != http.StatusBadRequest {
		t.Fatalf("jobless report -> %d, want 400", code)
	}

	// Missing epoch, or a body past the bound: 400, and nothing applied.
	done := fmt.Sprintf(`"job":%q,"done":[%d]`, grant.Job, v)
	for name, raw := range map[string]string{
		"epochless": `{` + done + `}`,
		"oversized": `{` + done + fmt.Sprintf(`,"epoch":%d,"pad":"%s"}`, grant.Epoch, strings.Repeat("x", 70<<10)),
	} {
		if code, body := postJSON(t, ts.URL+"/report", json.RawMessage(raw)); code != http.StatusBadRequest {
			t.Fatalf("%s report -> %d: %s", name, code, body)
		}
		if got, _ := s.JobByID(st.Job); got.Completed != 0 {
			t.Fatalf("the %s report applied: %+v", name, got)
		}
	}

	// A correct report for the same task succeeds (and clears its lease,
	// so the graceful drain below has nothing in flight).
	code, body = postJSON(t, ts.URL+"/report", icserver.ReportRequest{
		Job: grant.Job, Epoch: grant.Epoch, Done: []dag.NodeID{v}})
	if got, _ := s.JobByID(st.Job); code != http.StatusOK || got.Completed != 1 {
		t.Fatalf("valid report -> %d: %s, job %+v", code, body, got)
	}

	// After drain: 503 with the typed reason, while /status still answers
	// and reports draining.
	if err := closeServer(s); err != nil {
		t.Fatalf("close: %v", err)
	}
	code, body = postJSON(t, ts.URL+"/tasks", ask1)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining /tasks -> %d", code)
	}
	var unavail typedError
	if err := json.Unmarshal(body, &unavail); err != nil || unavail.Error != "unavailable" || unavail.Reason != "draining" {
		t.Fatalf("503 body %s", body)
	}
	var sum statusResponse
	if code := getJSON(t, ts.URL+"/status", &sum); code != http.StatusOK || !sum.Draining {
		t.Fatalf("draining /status -> %d %+v", code, sum)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestManifestWriteFailureRefuses severs the manifest under a live fleet,
// as a failed write would.  Reports that need no manifest event still
// land, but the /report that finishes the job needs its finish event, so
// it — and every later submission and grant — gets the typed 503
// journal-failed instead of an answer that pretends the job's end is
// durable.  Recover on the directory then resumes from the manifest's
// valid prefix and retires the job for good.
func TestManifestWriteFailureRefuses(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Lease: time.Minute}
	s, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sp := Spec{Tenant: "a", Family: "wavefront", Size: 8}
	code, body := postJSON(t, ts.URL+"/jobs", sp)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs -> %d: %s", code, body)
	}
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	g, _, err := buildJob(sp)
	if err != nil {
		t.Fatal(err)
	}

	// The fleet severs the manifest once it has computed half the dag, and
	// its transport keeps every /report reply.
	var mu sync.Mutex
	vals := make([]uint64, g.NumNodes())
	computed := 0
	compute := func(_ string, v dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		vals[v] = fnvNodeValue(g, v, vals)
		if computed++; computed == g.NumNodes()/2 {
			s.mu.Lock()
			s.man.kill()
			s.mu.Unlock()
		}
		return nil
	}
	type reply struct {
		code int
		body []byte
	}
	var replies []reply
	transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err != nil || r.URL.Path != "/report" {
			return resp, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		mu.Lock()
		replies = append(replies, reply{resp.StatusCode, data})
		mu.Unlock()
		return resp, err
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const workers = 2
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: transport}, Compute: compute, Batch: 4,
				ID: fmt.Sprintf("w%d", w), Seed: int64(w + 1), MaxAttempts: 3,
				IdleWait: 100 * time.Microsecond, RetryWait: time.Millisecond}
			_, errs[w] = cl.Run(ctx)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil || !strings.Contains(err.Error(), icserver.ReasonJournalFailed) {
			t.Fatalf("worker %d ended with %v, want the 503 journal-failed", w, err)
		}
	}

	isJournalFailed := func(code int, body []byte) bool {
		var u typedError
		return code == http.StatusServiceUnavailable && json.Unmarshal(body, &u) == nil &&
			u.Error == "unavailable" && u.Reason == icserver.ReasonJournalFailed
	}
	refused := 0
	for _, r := range replies {
		switch {
		case r.code == http.StatusOK && bytes.Contains(r.body, []byte(`"jobFinished":true`)):
			t.Fatalf("the job-finishing /report answered 200 without a durable finish event: %s", r.body)
		case isJournalFailed(r.code, r.body):
			refused++
		case r.code != http.StatusOK:
			t.Fatalf("/report -> %d: %s", r.code, r.body)
		}
	}
	if st, _ := s.JobByID(job.Job); refused == 0 || st.State != StateFinished || st.Completed != st.Nodes {
		t.Fatalf("%d /report replies refused, job %+v: want the job-finishing report refused", refused, st)
	}
	for path, req := range map[string]any{"/jobs": sp, "/tasks": ask1} {
		if code, body := postJSON(t, ts.URL+path, req); !isJournalFailed(code, body) {
			t.Fatalf("POST %s after the failed write -> %d: %s", path, code, body)
		}
	}

	s.Kill()
	s2, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer closeServer(s2)
	h := newHarness(t, s2)
	h.track(job.Job, sp)
	h.vals[job.Job] = vals
	h.drain(4)
	h.checkValues(map[string]Spec{job.Job: sp})
	if st, _ := s2.JobByID(job.Job); st.State != StateFinished || st.Completed != st.Nodes || st.Epoch != 2 {
		t.Fatalf("recovered job %+v, want finished at epoch 2", st)
	}
}

// TestClientSeedReachesEngine pins the default-seeding fix.  The old
// client seeded its own rng with Seed as given, so every unseeded fleet
// worker (Seed 0) drew the SAME jitter stream and the fleet backed off in
// lockstep.  The client now hands Seed to the shared engine untouched,
// and the engine gives each unseeded worker the next per-process default
// (that two unseeded engines draw different sequences is asserted where
// the rng lives, in icserver's TestJitterDefaultSeedsDistinct).
func TestClientSeedReachesEngine(t *testing.T) {
	if e := (&Client{}).engine(); e.Seed != 0 || e.Batch != 8 {
		t.Fatalf("unseeded client: engine Seed %d Batch %d, want 0 (engine picks a default) and 8", e.Seed, e.Batch)
	}
	if e := (&Client{Seed: 42, Batch: 3}).engine(); e.Seed != 42 || e.Batch != 3 {
		t.Fatalf("seeded client: engine Seed %d Batch %d, want 42 and 3", e.Seed, e.Batch)
	}
}
