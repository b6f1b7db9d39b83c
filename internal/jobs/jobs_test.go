package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/icserver"
	"icsched/internal/wal"
)

// closeServer bounds the graceful drain so a test bug (an unreported
// lease) fails fast instead of hanging the suite.
func closeServer(s *Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Close(ctx)
}

// fnvNodeValue mirrors the difftest ground truth: FNV-1a over
// the node ID and its parents' values — order-independent, so any
// execution respecting the dependencies computes identical values.
func fnvNodeValue(g *dag.Dag, v dag.NodeID, vals []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(v))
	for _, p := range g.Parents(v) {
		mix(vals[p])
	}
	return h
}

// refVals executes a job's analyzed order serially — the reference the
// fleet's values must match bit for bit.
func refVals(t *testing.T, sp Spec) (*dag.Dag, []uint64) {
	t.Helper()
	g, nonsinks, err := buildJob(sp)
	if err != nil {
		t.Fatalf("buildJob: %v", err)
	}
	order, _, err := analyzeJob(g, nonsinks)
	if err != nil {
		t.Fatalf("analyzeJob: %v", err)
	}
	vals := make([]uint64, g.NumNodes())
	for _, v := range order {
		vals[v] = fnvNodeValue(g, v, vals)
	}
	return g, vals
}

// harness drives the in-process fleet loop: allocate, compute (FNV into
// per-job value slices), report, until every job is terminal.
type harness struct {
	t      *testing.T
	s      *Server
	graphs map[string]*dag.Dag
	vals   map[string][]uint64
}

func newHarness(t *testing.T, s *Server) *harness {
	return &harness{t: t, s: s,
		graphs: make(map[string]*dag.Dag), vals: make(map[string][]uint64)}
}

// track registers a submitted job's dag so compute can hash into it.
func (h *harness) track(id string, sp Spec) {
	g, _, err := buildJob(sp)
	if err != nil {
		h.t.Fatalf("track %s: %v", id, err)
	}
	h.graphs[id] = g
	if h.vals[id] == nil {
		h.vals[id] = make([]uint64, g.NumNodes())
	}
}

func (h *harness) submit(sp Spec) string {
	h.t.Helper()
	st, err := h.s.Submit(sp)
	if err != nil {
		h.t.Fatalf("submit: %v", err)
	}
	h.track(st.Job, sp)
	return st.Job
}

// compute hashes one granted task (idempotent across re-grants).
func (h *harness) compute(job string, task dag.NodeID) {
	g := h.graphs[job]
	h.vals[job][task] = fnvNodeValue(g, task, h.vals[job])
}

// drain loops allocate→compute→report until every tracked job is
// terminal (or the deadline passes).  Returns grants per tenant.
func (h *harness) drain(k int) map[string]int {
	h.t.Helper()
	granted := make(map[string]int)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			h.t.Fatalf("drain: jobs still unfinished: %+v", h.s.Jobs())
		}
		grant, err := h.s.Allocate(k)
		if err != nil {
			h.t.Fatalf("allocate: %v", err)
		}
		if len(grant.Tasks) == 0 {
			if h.allTerminal() {
				return granted
			}
			time.Sleep(time.Millisecond) // pipeline still building
			continue
		}
		if st, ok := h.s.JobByID(grant.Job); ok {
			granted[st.Tenant] += len(grant.Tasks)
		}
		for _, v := range grant.Tasks {
			h.compute(grant.Job, v)
		}
		if _, err := h.s.Report(grant.Job, grant.Tasks, nil, grant.Epoch, 0); err != nil {
			h.t.Fatalf("report %s: %v", grant.Job, err)
		}
	}
}

func (h *harness) allTerminal() bool {
	for _, st := range h.s.Jobs() {
		if st.State != StateFinished && st.State != StateFailed {
			return false
		}
	}
	return len(h.s.Jobs()) > 0
}

// checkValues asserts every tracked job computed the serial reference
// bit for bit.
func (h *harness) checkValues(specs map[string]Spec) {
	h.t.Helper()
	for id, sp := range specs {
		_, want := refVals(h.t, sp)
		for v, got := range h.vals[id] {
			if got != want[v] {
				h.t.Fatalf("job %s node %d = %#x, want %#x (serial reference)", id, v, got, want[v])
			}
		}
	}
}

func rawDag(nodes int, arcs [][2]int) json.RawMessage {
	doc := struct {
		Nodes int      `json:"nodes"`
		Arcs  [][2]int `json:"arcs"`
	}{nodes, arcs}
	data, _ := json.Marshal(doc)
	return data
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	cases := []struct {
		name string
		sp   Spec
	}{
		{"no tenant", Spec{Family: "prefix", Size: 8}},
		{"family and dag", Spec{Tenant: "a", Family: "prefix", Size: 8, Dag: rawDag(2, nil)}},
		{"neither family nor dag", Spec{Tenant: "a"}},
		{"negative weight", Spec{Tenant: "a", Family: "prefix", Size: 8, Weight: -1}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.sp); err == nil {
			t.Errorf("%s: submission accepted, want error", c.name)
		}
	}
	// Build-stage rejections surface asynchronously as failed jobs.
	for _, sp := range []Spec{
		{Tenant: "a", Family: "nosuch", Size: 8},
		{Tenant: "a", Family: "wavefront", Size: 100000},
		{Tenant: "a", Dag: rawDag(0, nil)},
	} {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitState(t, s, st.Job, StateFailed)
	}
}

func waitState(t *testing.T, s *Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.JobByID(id)
		if ok && st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineRunsJobsToCompletion drives a mixed three-family +
// raw-dag stream through the in-process API and checks every job's
// values against the serial reference.
func TestPipelineRunsJobsToCompletion(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	specs := map[string]Spec{}
	for _, sp := range []Spec{
		{Tenant: "a", Family: "wavefront", Size: 4},
		{Tenant: "a", Family: "fftconv", Size: 3},
		{Tenant: "b", Family: "prefix", Size: 16},
		{Tenant: "b", Dag: rawDag(5, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}})},
	} {
		specs[h.submit(sp)] = sp
	}
	h.drain(4)
	h.checkValues(specs)
	for id := range specs {
		st, _ := s.JobByID(id)
		if st.State != StateFinished {
			t.Fatalf("job %s state %q", id, st.State)
		}
		if st.Completed != st.Nodes || st.Nodes == 0 {
			t.Fatalf("job %s completed %d of %d", id, st.Completed, st.Nodes)
		}
		if st.Epoch == 0 {
			t.Fatalf("job %s finished without a visible epoch", id)
		}
		if st.LatencyMillis < 0 || st.FinishedMillis < st.SubmittedMillis {
			t.Fatalf("job %s timestamps: %+v", id, st)
		}
	}
	sum := s.ServiceStatus()
	if sum.Finished != 4 || sum.Active != 0 || sum.Failed != 0 {
		t.Fatalf("service status %+v", sum)
	}
	var completed int
	for _, ts := range sum.Tenants {
		completed += ts.CompletedJobs
	}
	if completed != 4 {
		t.Fatalf("tenant completed-jobs sum %d, want 4", completed)
	}
}

// TestWeightedFairShare pins the stride policy: with wide-open dags
// (every task eligible at once) a weight-2 tenant receives twice the
// grant rate of a weight-1 tenant while both have work.
func TestWeightedFairShare(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	flat := rawDag(64, nil) // 64 independent tasks: fairness is the only limiter
	for i := 0; i < 3; i++ {
		h.submit(Spec{Tenant: "heavy", Weight: 2, Dag: flat})
		h.submit(Spec{Tenant: "light", Weight: 1, Dag: flat})
	}
	// Wait until all six jobs are active so the counted prefix is
	// contended from the first grant to the last: 120 grants at 2:1 take
	// 80 tasks from heavy, more than one of its jobs holds, and the grant
	// loop can outrun the analyzer that activates the next one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sum := s.ServiceStatus()
		active := 0
		for _, ts := range sum.Tenants {
			active += ts.ActiveJobs
		}
		if active == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the six jobs never all became active")
		}
		time.Sleep(time.Millisecond)
	}
	granted := map[string]int{}
	for i := 0; i < 120; i++ {
		grant, err := s.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Tasks) == 0 {
			t.Fatalf("empty grant at %d with both tenants loaded", i)
		}
		st, _ := s.JobByID(grant.Job)
		granted[st.Tenant] += len(grant.Tasks)
		done := []dag.NodeID{grant.Tasks[0]}
		h.compute(grant.Job, done[0])
		if _, err := s.Report(grant.Job, done, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
	ratio := float64(granted["heavy"]) / float64(granted["light"])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("heavy:light grant ratio = %.2f (%d:%d), want ~2.0",
			ratio, granted["heavy"], granted["light"])
	}
	h.drain(8) // finish everything so Close is clean
}

func TestBackpressurePerTenant(t *testing.T) {
	s := New(Config{MaxQueued: 2})
	defer closeServer(s)
	sp := Spec{Tenant: "a", Family: "prefix", Size: 8}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(sp); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(sp)
	var busy BackpressureError
	if !errors.As(err, &busy) || busy.Tenant != "a" {
		t.Fatalf("third submission: %v, want BackpressureError{a}", err)
	}
	// Another tenant is unaffected: the cap is per tenant.
	if _, err := s.Submit(Spec{Tenant: "b", Family: "prefix", Size: 8}); err != nil {
		t.Fatalf("tenant b refused: %v", err)
	}
}

// TestReportFencingAndFinishedIdempotence pins the job-scoped report
// edge cases: a stale epoch is rejected with the current token, a
// duplicate task ID within one batch is rejected whole, and reports to
// an already-finished job are absorbed as idempotent duplicates.
func TestReportFencingAndFinishedIdempotence(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	sp := Spec{Tenant: "a", Dag: rawDag(3, nil)}
	id := h.submit(sp)
	waitState(t, s, id, StateActive)
	grant, err := s.Allocate(1)
	if err != nil || len(grant.Tasks) != 1 {
		t.Fatalf("allocate: %v %+v", err, grant)
	}
	// Stale epoch: rejected, current epoch carried for resync.
	_, err = s.Report(id, []dag.NodeID{grant.Tasks[0]}, nil, grant.Epoch+7, 0)
	var stale StaleEpochError
	if !errors.As(err, &stale) || stale.Epoch != grant.Epoch {
		t.Fatalf("stale report: %v, want StaleEpochError{%d}", err, grant.Epoch)
	}
	// Duplicate task IDs in one batch: the whole batch is rejected.
	v := grant.Tasks[0]
	if _, err := s.Report(id, []dag.NodeID{v, v}, nil, grant.Epoch, 0); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate-in-batch report: %v, want twice-in-one-batch rejection", err)
	}
	// Unknown job.
	if _, err := s.Report("j999", []dag.NodeID{0}, nil, 0, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job report: %v", err)
	}
	// Report the granted task correctly so its lease clears and drain can
	// finish the job.
	h.compute(id, v)
	if _, err := s.Report(id, []dag.NodeID{v}, nil, grant.Epoch, 0); err != nil {
		t.Fatalf("valid report: %v", err)
	}
	h.drain(4)
	// Report to the finished job: pure duplicates, no error, flagged
	// finished so the client stops retrying.
	res, err := s.Report(id, []dag.NodeID{0, 1}, nil, 0, 0)
	if err != nil || res.Duplicates != 2 || !res.JobFinished {
		t.Fatalf("finished-job report: %+v, %v", res, err)
	}
}

// TestRecoverMidStream kills the service with jobs in flight and checks
// the successor rebuilds the whole multi-job state: finished jobs keep
// their accounting, active jobs resume under a bumped epoch with their
// journaled completions intact, and the combined execution stays
// bit-identical to the serial reference.
func TestRecoverMidStream(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Wal: wal.Options{SyncEvery: 1}}
	s, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, s)
	specs := map[string]Spec{}
	quick := Spec{Tenant: "a", Family: "prefix", Size: 8}
	// Big enough that it cannot finish while the quick job drains, even
	// with fairness splitting the grants.
	slow := Spec{Tenant: "b", Family: "wavefront", Size: 16}
	qid := h.submit(quick)
	specs[qid] = quick
	sid := h.submit(slow)
	specs[sid] = slow

	// Finish the quick job entirely, then run the slow one partway.
	waitState(t, s, qid, StateActive)
	waitState(t, s, sid, StateActive)
	for {
		st, _ := s.JobByID(qid)
		if st.State == StateFinished {
			break
		}
		grant, err := s.Allocate(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Tasks) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, v := range grant.Tasks {
			h.compute(grant.Job, v)
		}
		if _, err := s.Report(grant.Job, grant.Tasks, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
	slowSt, _ := s.JobByID(sid)
	if slowSt.State != StateActive {
		t.Fatalf("slow job already %s before the kill; grow its size", slowSt.State)
	}
	if slowSt.Epoch != 1 {
		t.Fatalf("pre-kill epoch %d, want 1", slowSt.Epoch)
	}
	preDone := slowSt.Completed

	s.Kill()
	if _, err := s.Submit(quick); !errors.As(err, &UnavailableError{}) && err == nil {
		t.Fatalf("submit after kill: %v", err)
	}

	s2, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer closeServer(s2)
	h2 := newHarness(t, s2)
	for id, sp := range specs {
		h2.track(id, sp)
	}
	h2.vals = h.vals // resume the same value model across incarnations

	// Status immediately after Recover: the job list is correct and the
	// resumed job's bumped epoch is visible.
	jl := s2.Jobs()
	if len(jl) != 2 {
		t.Fatalf("recovered job list has %d entries: %+v", len(jl), jl)
	}
	qst, ok := s2.JobByID(qid)
	if !ok || qst.State != StateFinished || qst.Completed != qst.Nodes || qst.Nodes == 0 {
		t.Fatalf("finished job after recover: %+v", qst)
	}
	sst, ok := s2.JobByID(sid)
	if !ok || sst.State != StateActive {
		t.Fatalf("mid-flight job after recover: %+v", sst)
	}
	if sst.Epoch != 2 {
		t.Fatalf("recovered epoch %d, want 2 (bumped)", sst.Epoch)
	}
	if sst.Completed < preDone {
		t.Fatalf("recovered completions %d < journaled %d", sst.Completed, preDone)
	}
	// A report under the dead incarnation's epoch is fenced.
	if _, err := s2.Report(sid, []dag.NodeID{0}, nil, 1, 0); err == nil {
		t.Fatal("stale-epoch report accepted after recovery")
	}
	// Tenant accounting survived.
	for _, ts := range s2.ServiceStatus().Tenants {
		if ts.Tenant == "a" && ts.CompletedJobs != 1 {
			t.Fatalf("tenant a completed-jobs %d after recover, want 1", ts.CompletedJobs)
		}
	}

	// Submit one more job post-recovery and drain everything.
	extra := Spec{Tenant: "a", Family: "fftconv", Size: 3}
	eid := h2.submit(extra)
	specs[eid] = extra
	h2.drain(4)
	h2.checkValues(specs)
}

// TestActivationDoesNotBlockGrants holds job B's journal fence fsync
// inside the task journal's FsyncObserver while B is being activated:
// grants for the already-active job A must not wait behind it.
func TestActivationDoesNotBlockGrants(t *testing.T) {
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := Config{Wal: wal.Options{FsyncObserver: func(time.Duration) {
		if armed.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
	}}}
	s, err := Recover(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	unblock := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer func() {
		unblock()
		s.Kill()
	}()
	h := newHarness(t, s)
	aid := h.submit(Spec{Tenant: "a", Family: "prefix", Size: 8})
	waitState(t, s, aid, StateActive)

	// A's journal is clean (its fence was synced), so the next fsync to
	// reach the observer is B's fence.
	armed.Store(true)
	bid := h.submit(Spec{Tenant: "b", Family: "wavefront", Size: 4})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("job B's fence fsync never reached the observer")
	}

	type result struct {
		grant icserver.Grant
		err   error
	}
	got := make(chan result, 1)
	go func() {
		g, err := s.Allocate(4)
		got <- result{g, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.grant.Job != aid || len(r.grant.Tasks) == 0 {
			t.Fatalf("grant during B's activation = %+v, want tasks of %s", r.grant, aid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Allocate blocked behind job B's activation")
	}

	unblock()
	waitState(t, s, bid, StateActive)
}

// TestRecoverFinishedJobWithoutJournal: Recover never reads a finished
// job's task journal, so the job keeps its terminal accounting from the
// manifest alone.
func TestRecoverFinishedJobWithoutJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, s)
	id := h.submit(Spec{Tenant: "a", Family: "prefix", Size: 8})
	h.drain(4)
	want := waitState(t, s, id, StateFinished)
	s.Kill()
	if err := os.RemoveAll(filepath.Join(dir, "job-"+id)); err != nil {
		t.Fatal(err)
	}
	s2, err := Recover(dir, Config{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer closeServer(s2)
	got, ok := s2.JobByID(id)
	if !ok || got.State != StateFinished || got.Nodes != want.Nodes || got.Completed != want.Completed || got.Nodes == 0 {
		t.Fatalf("recovered %s = %+v, want finished with %d/%d", id, got, want.Completed, want.Nodes)
	}
}

// TestQueueFullRefusalKeepsJobIDs fills the admission queue while the
// admitter is held in an activation: every job ID is submitted once in
// the manifest and listed once in Jobs() after a recovery, and a refused
// submission, which the client heard as a 429, does not come back as a
// failed job.
func TestQueueFullRefusalKeepsJobIDs(t *testing.T) {
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := Config{MaxQueued: 1 << 14, Wal: wal.Options{FsyncObserver: func(time.Duration) {
		if armed.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
	}}}
	dir := t.TempDir()
	s, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	unblock := func() {
		if !released {
			released = true
			armed.Store(false)
			close(release)
		}
	}
	defer func() {
		unblock()
		s.Kill()
	}()
	sp := Spec{Tenant: "a", Family: "prefix", Size: 2}
	first, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.Job, StateActive)
	armed.Store(true) // the next fsync is the next job's fence
	if _, err := s.Submit(sp); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the admitter never reached the held fence fsync")
	}
	var busy BackpressureError
	for i := 0; ; i++ {
		if i > cfg.MaxQueued {
			t.Fatal("the admission queue never filled")
		}
		if _, err = s.Submit(sp); err != nil {
			break
		}
	}
	if !errors.As(err, &busy) {
		t.Fatalf("submit into a full queue: %v, want BackpressureError", err)
	}
	unblock()
	deadline := time.Now().Add(10 * time.Second)
	for _, err = s.Submit(sp); errors.As(err, &busy); _, err = s.Submit(sp) {
		if time.Now().After(deadline) {
			t.Fatal("the admission queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()

	events, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	submitted := make(map[string]bool)
	for _, ev := range events {
		if ev.Event == "submit" {
			if submitted[ev.Job] {
				t.Fatalf("manifest submits job ID %s twice", ev.Job)
			}
			submitted[ev.Job] = true
		}
	}
	s2, err := Recover(dir, Config{MaxQueued: cfg.MaxQueued})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer s2.Kill()
	seen := make(map[string]bool)
	for _, st := range s2.Jobs() {
		if seen[st.Job] {
			t.Fatalf("Jobs() lists %s twice after recovery", st.Job)
		}
		if strings.Contains(st.Error, "admission queue full") {
			t.Fatalf("refused submission recovered as %+v", st)
		}
		seen[st.Job] = true
	}
	if len(seen) != len(submitted) {
		t.Fatalf("recovered %d jobs, manifest submits %d", len(seen), len(submitted))
	}
}

// TestRecoverQueuedJob re-admits a job that was durably submitted but
// never activated (its activate event is missing from the manifest).
func TestRecoverQueuedJob(t *testing.T) {
	dir := t.TempDir()
	man, err := openManifest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Tenant: "a", Family: "prefix", Size: 8}
	if err := man.append(manifestEvent{Event: "submit", At: 1, Job: "j1",
		Tenant: sp.Tenant, Family: sp.Family, Size: sp.Size}); err != nil {
		t.Fatal(err)
	}
	if err := man.close(); err != nil {
		t.Fatal(err)
	}
	s, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(s)
	h := newHarness(t, s)
	h.track("j1", sp)
	waitState(t, s, "j1", StateActive)
	h.drain(4)
	h.checkValues(map[string]Spec{"j1": sp})
	// The re-admitted job kept its ID; the next submission gets a fresh one.
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Job != "j2" {
		t.Fatalf("next job ID %q, want j2", st.Job)
	}
}

// TestRecoverBacklogBeyondQueue: a crash can leave one more job
// unactivated than the admission queue holds (the one in the admitter's
// hands); Recover must re-admit the whole backlog.
func TestRecoverBacklogBeyondQueue(t *testing.T) {
	dir := t.TempDir()
	man, err := openManifest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	backlog := cap(newServer(Config{}, "").admitCh) + 1
	for i := 1; i <= backlog; i++ {
		if err := man.append(manifestEvent{Event: "submit", At: int64(i), Job: fmt.Sprintf("j%d", i),
			Tenant: "a", Family: "prefix", Size: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.close(); err != nil {
		t.Fatal(err)
	}
	s, err := Recover(dir, Config{MaxQueued: backlog})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer s.Kill()
	if n := len(s.Jobs()); n != backlog {
		t.Fatalf("recovered %d jobs, want %d", n, backlog)
	}
}

// TestRecoverServiceWrittenWithRelaxedJobs recovers
// testdata/pr14-relaxed-service (see its README): a durable service
// directory of the parent commit holding two `"relaxed": 4` jobs — j1
// active with 9 of 36 tasks done and three in flight, j2 submitted but
// never activated.  The key is unknown to this manifest reader and j1's
// journal holds ordinary per-task records, so both jobs must finish on
// the exact path with the serial reference's values.
func TestRecoverServiceWrittenWithRelaxedJobs(t *testing.T) {
	const src = "testdata/pr14-relaxed-service"
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "job-j1"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{manifestName, "job-j1/wal-0000000000000001.log"} {
		data, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	man, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || strings.Count(string(man), `"relaxed":4`) != 2 {
		t.Fatalf("testdata manifest: err %v, want two \"relaxed\":4 submit events in\n%s", err, man)
	}
	specs := map[string]Spec{
		"j1": {Tenant: "a", Family: "wavefront", Size: 6},
		"j2": {Tenant: "b", Dag: rawDag(7, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 6}})},
	}

	s, err := Recover(dir, Config{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(s)
	h := newHarness(t, s)
	for id, sp := range specs {
		h.track(id, sp)
	}
	// The dead incarnation's completions, re-computed in journal order.
	rec, err := wal.ReadAll(filepath.Join(src, "job-j1"))
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, r := range rec.Records {
		if r.Kind == wal.KindDone {
			h.compute("j1", dag.NodeID(r.Task))
			done++
		}
	}
	if st := waitState(t, s, "j1", StateActive); done != 9 || st.Completed != 9 || st.Epoch != 2 {
		t.Fatalf("recovered j1 %+v with %d journaled completions, want 9 completed at epoch 2", st, done)
	}
	h.drain(3)
	h.checkValues(specs)
	for id := range specs {
		if st, _ := s.JobByID(id); st.State != StateFinished || st.Completed != st.Nodes {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
}

// TestRecoverServiceWrittenWithShardedJob recovers
// testdata/sharded-service (see its README): a durable service directory
// of an older commit holding one `"shards": 3` wavefront job, killed with
// 9 of 36 tasks done.  Its shard and bus journals sit in subdirectories
// of job-j1/, which the journal scan ignores, so the job restarts from
// its submit event on a single server: it must finish with the serial
// reference's values, /status must not mention shards, and a report
// under the dead incarnation's epoch (3, the sum of its shard epochs)
// must be fenced.
func TestRecoverServiceWrittenWithShardedJob(t *testing.T) {
	const src = "testdata/sharded-service"
	dir := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, rel), data, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if man, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !strings.Contains(string(man), `"shards":3`) {
		t.Fatalf("testdata manifest: err %v, want a \"shards\":3 submit event in\n%s", err, man)
	}
	sp := Spec{Tenant: "a", Family: "wavefront", Size: 6}

	s, err := Recover(dir, Config{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(s)
	if st := waitState(t, s, "j1", StateActive); st.Completed != 0 || st.Epoch != 1 {
		t.Fatalf("recovered j1 %+v, want a fresh single-server run at epoch 1", st)
	}
	var stale StaleEpochError
	if _, err := s.Report("j1", []dag.NodeID{0}, nil, 3, 0); !errors.As(err, &stale) || stale.Epoch != 1 {
		t.Fatalf("report under the dead incarnation's epoch: %v, want StaleEpochError{1}", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var raw json.RawMessage
	if code := getJSON(t, ts.URL+"/status", &raw); code != http.StatusOK || strings.Contains(string(raw), "shards") {
		t.Fatalf("GET /status -> %d: %s", code, raw)
	}
	h := newHarness(t, s)
	h.track("j1", sp)
	h.drain(3)
	h.checkValues(map[string]Spec{"j1": sp})
	if st, _ := s.JobByID("j1"); st.State != StateFinished || st.Completed != st.Nodes || st.Nodes != 36 {
		t.Fatalf("j1 after drain: %+v", st)
	}
}

// TestCloseDrains pins graceful-drain semantics: after Close the
// service refuses submissions and grants with the typed reason, still
// answers status, and reports draining.
func TestCloseDrains(t *testing.T) {
	s := New(Config{})
	if err := closeServer(s); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !s.ServiceStatus().Draining {
		t.Fatal("status during drain does not report draining")
	}
	var unavail UnavailableError
	if _, err := s.Submit(Spec{Tenant: "a", Family: "prefix", Size: 8}); !errors.As(err, &unavail) || unavail.Reason != "draining" {
		t.Fatalf("submit while draining: %v", err)
	}
	if _, err := s.Allocate(1); !errors.As(err, &unavail) || unavail.Reason != "draining" {
		t.Fatalf("allocate while draining: %v", err)
	}
	if err := closeServer(s); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestManifestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	man, err := openManifest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := man.append(manifestEvent{Event: "submit", At: int64(i), Job: fmt.Sprintf("j%d", i), Tenant: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"submit","job":"j4","ten`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	events, _, err := readManifest(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want the 3-event valid prefix", len(events))
	}
	// Interior corruption (garbage followed by a valid line) is an error.
	if err := os.WriteFile(path, []byte("not json\n{\"event\":\"submit\",\"job\":\"j1\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readManifest(dir); err == nil {
		t.Fatal("interior corruption tolerated")
	}
}

// TestManifestTornTailCutOnRecover: a kill mid-append leaves half an
// event at the end of the manifest.  Recover must cut it off before it
// appends, or the next event lands after the torn bytes and the
// following recovery reads them as interior corruption: here a job
// submitted after the first recovery must survive a second kill and
// recovery and finish.
func TestManifestTornTailCutOnRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Lease: time.Minute}
	sp := Spec{Tenant: "a", Family: "prefix", Size: 8}
	s, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, s)
	h.submit(sp)
	h.drain(4)
	s.Kill()
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"submit","at":7,"job":"j9","ten`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err = Recover(dir, cfg)
	if err != nil {
		t.Fatalf("recover over a torn tail: %v", err)
	}
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.Job, StateActive) // submit and activate are both journaled
	s.Kill()

	s, err = Recover(dir, cfg)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer closeServer(s)
	h = newHarness(t, s)
	h.track(st.Job, sp)
	h.drain(4)
	h.checkValues(map[string]Spec{st.Job: sp})
	if got, _ := s.JobByID(st.Job); got.State != StateFinished || got.Completed != got.Nodes {
		t.Fatalf("job submitted after the torn tail: %+v", got)
	}
}
