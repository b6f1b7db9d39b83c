package icserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/wal"
)

// wideDag returns a 6-node dag with four sources (0..3) feeding two
// sinks (4, 5) — wide enough to hold several tasks in flight at once.
func wideDag() *dag.Dag {
	b := dag.NewBuilder(6)
	b.AddArc(0, 4)
	b.AddArc(1, 4)
	b.AddArc(2, 5)
	b.AddArc(3, 5)
	return b.MustBuild()
}

// drainServer drives the server to completion in-process, failing the
// test if allocation ever stalls.
func drainServer(t *testing.T, srv *icserver.Server) {
	t.Helper()
	for {
		v, state := srv.Allocate()
		switch state {
		case icserver.AllocFinished:
			return
		case icserver.AllocEmpty:
			t.Fatal("allocation stalled mid-drain")
		}
		if _, err := srv.Complete(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoverFreshStartsEpochOne(t *testing.T) {
	dir := t.TempDir()
	srv, err := icserver.Recover(dir, wideDag(), heur.FIFO(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", srv.Epoch())
	}
	drainServer(t, srv)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverResumesExactState(t *testing.T) {
	g := wideDag()
	dir := t.TempDir()
	srv, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{}, icserver.WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := srv.Allocate()
	v2, _ := srv.Allocate()
	v3, _ := srv.Allocate() // left in flight across the crash
	if _, err := srv.Complete(v1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Fail(v2); err != nil { // requeued, awaiting re-grant
		t.Fatal(err)
	}
	before := srv.Status()
	srv.Kill()

	srv2, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{}, icserver.WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2", srv2.Epoch())
	}
	after := srv2.Status()
	if after.Completed != before.Completed || after.Failed != before.Failed ||
		after.Quarantined != before.Quarantined || after.Reissues != before.Reissues {
		t.Fatalf("recovered status %+v does not carry over %+v", after, before)
	}
	if after.Allocated != 0 {
		t.Fatalf("recovered server has %d leases; in-flight grants must be requeued", after.Allocated)
	}
	// The requeued hand-back goes out first, then the fenced in-flight
	// grant, each with the attempt count continuing where it left off.
	r1, state := srv2.Allocate()
	if state != icserver.AllocOK || r1 != v2 {
		t.Fatalf("first post-recovery grant = %d (state %d), want requeued %d", r1, state, v2)
	}
	r2, state := srv2.Allocate()
	if state != icserver.AllocOK || r2 != v3 {
		t.Fatalf("second post-recovery grant = %d (state %d), want fenced in-flight %d", r2, state, v3)
	}
	if _, err := srv2.Complete(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Complete(r2); err != nil {
		t.Fatal(err)
	}
	drainServer(t, srv2)
	if st := srv2.Status(); st.Completed != g.NumNodes() {
		t.Fatalf("completed %d of %d after recovery", st.Completed, g.NumNodes())
	}
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseExpiryRequeueRegrantAcrossRecovery(t *testing.T) {
	// lease expiry fires before the crash; the expiry and the re-grant
	// are journaled, and after recovery the attempt chain continues.
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := dag.NewBuilder(2)
	b.AddArc(0, 1)
	g := b.MustBuild()
	dir := t.TempDir()
	srv, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{},
		icserver.WithLease(10*time.Second), icserver.WithClock(clock), icserver.WithMaxAttempts(5))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := srv.Allocate(); v != 0 {
		t.Fatalf("first grant = %d", v)
	}
	now = now.Add(11 * time.Second) // lease expires
	if v, state := srv.Allocate(); state != icserver.AllocOK || v != 0 {
		t.Fatalf("expiry re-grant = %d (state %d)", v, state)
	}
	if srv.Status().Reissues != 1 {
		t.Fatalf("reissues = %d before crash", srv.Status().Reissues)
	}
	srv.Kill()

	srv2, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{},
		icserver.WithLease(10*time.Second), icserver.WithClock(clock), icserver.WithMaxAttempts(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.Status().Reissues; got != 1 {
		t.Fatalf("reissues = %d after recovery, want 1", got)
	}
	// The fenced second grant is requeued; granting it again is attempt 3.
	v, state := srv2.Allocate()
	if state != icserver.AllocOK || v != 0 {
		t.Fatalf("post-recovery grant = %d (state %d)", v, state)
	}
	drainServerFrom(t, srv2, v)
	if st := srv2.Status(); st.Completed != 2 || st.Quarantined != 0 {
		t.Fatalf("final status %+v", st)
	}
	// The journal must replay as attempts 1, 2, 3 for task 0.
	rec, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	attempts := []uint32{}
	for _, r := range rec.Records {
		if r.Kind == wal.KindGrant && r.Task == 0 {
			attempts = append(attempts, r.Attempt)
		}
	}
	// The pre-snapshot prefix may be compacted away; the surviving tail
	// must still be strictly increasing and end at 3.
	for i := 1; i < len(attempts); i++ {
		if attempts[i] != attempts[i-1]+1 {
			t.Fatalf("grant attempts %v are not consecutive", attempts)
		}
	}
	if len(attempts) == 0 || attempts[len(attempts)-1] != 3 {
		t.Fatalf("grant attempts %v do not end at 3", attempts)
	}
}

// drainServerFrom completes v then drains the rest.
func drainServerFrom(t *testing.T, srv *icserver.Server, v dag.NodeID) {
	t.Helper()
	if _, err := srv.Complete(v); err != nil {
		t.Fatal(err)
	}
	drainServer(t, srv)
}

func TestReportRetrySpansEpochBump(t *testing.T) {
	// A client's /report races a server crash: the retry lands on the
	// restarted incarnation with the old epoch, gets the typed 409, and
	// succeeds after resyncing — idempotently if the first attempt was
	// journaled, as a fresh completion otherwise.
	g := wideDag()
	dir := t.TempDir()
	srv, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{}, icserver.WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var grant struct {
		Tasks []dag.NodeID `json:"tasks"`
		Epoch uint64       `json:"epoch"`
	}
	postJSONCode(t, ts.URL+"/tasks", `{"k":2}`, http.StatusOK, &grant)
	if grant.Epoch != 1 || len(grant.Tasks) != 2 {
		t.Fatalf("grant %+v", grant)
	}

	// Crash and restart under the same journal dir; serve the successor
	// on the same URL is unnecessary — a second test server suffices.
	srv.Kill()
	srv2, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{}, icserver.WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	report := map[string]any{
		"done":  grant.Tasks,
		"epoch": grant.Epoch,
	}
	payload, _ := json.Marshal(report)
	var rej struct {
		Error string `json:"error"`
		Epoch uint64 `json:"epoch"`
	}
	postJSONCode(t, ts2.URL+"/report", string(payload), http.StatusConflict, &rej)
	if rej.Error != "stale epoch" || rej.Epoch != 2 {
		t.Fatalf("stale rejection %+v", rej)
	}
	if srv2.Status().StaleReports != 1 {
		t.Fatalf("staleReports = %d", srv2.Status().StaleReports)
	}

	// Resync (per protocol, via /status) and retry under the new epoch.
	st, err := icserver.FetchStatus(context.Background(), nil, ts2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 {
		t.Fatalf("status epoch = %d", st.Epoch)
	}
	report["epoch"] = st.Epoch
	payload, _ = json.Marshal(report)
	var ack struct {
		Completed  int `json:"completed"`
		Duplicates int `json:"duplicates"`
	}
	postJSONCode(t, ts2.URL+"/report", string(payload), http.StatusOK, &ack)
	if ack.Completed+ack.Duplicates != 2 {
		t.Fatalf("retried report ack %+v", ack)
	}
	// Retrying the same report again is all duplicates.
	ack.Completed, ack.Duplicates = 0, 0 // zero counts are omitted on the wire
	postJSONCode(t, ts2.URL+"/report", string(payload), http.StatusOK, &ack)
	if ack.Completed != 0 || ack.Duplicates != 2 {
		t.Fatalf("second retry ack %+v, want pure duplicates", ack)
	}
}

func TestShutdownClosesJournalAndIsIdempotent(t *testing.T) {
	g := wideDag()
	dir := t.TempDir()
	srv, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, srv)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	rec, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := rec.Fold(g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if !fold.Drained {
		t.Fatal("journal does not record the drain")
	}
	if fold.NumExecuted() != g.NumNodes() {
		t.Fatalf("journal folds to %d of %d executed", fold.NumExecuted(), g.NumNodes())
	}
	if rec.Truncated {
		t.Fatal("clean shutdown left a torn journal")
	}
}

func TestKilledServerRefusesRequests(t *testing.T) {
	g := wideDag()
	srv, err := icserver.Recover(t.TempDir(), g, heur.FIFO(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Kill()
	srv.Kill() // idempotent
	for path, body := range map[string]string{"/tasks": `{"k":1}`, "/report": `{"done":[],"epoch":1}`} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("killed server answered %s with %d", path, resp.StatusCode)
		}
	}
}

func TestSnapshotCompactionMidRun(t *testing.T) {
	// A tiny SnapshotEvery forces snapshots mid-run; recovery from the
	// compacted directory must still be exact.
	g := wideDag()
	dir := t.TempDir()
	srv, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := srv.Allocate()
	v2, _ := srv.Allocate()
	if _, err := srv.Complete(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Complete(v2); err != nil {
		t.Fatal(err)
	}
	srv.Kill()
	srv2, err := icserver.Recover(dir, g, heur.FIFO(), wal.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.Status().Completed; got != 2 {
		t.Fatalf("recovered %d completions, want 2", got)
	}
	drainServer(t, srv2)
	if st := srv2.Status(); st.Completed != g.NumNodes() {
		t.Fatalf("final status %+v", st)
	}
}

// postJSONCode POSTs a JSON body and decodes the response, asserting the
// status code.
func postJSONCode(t *testing.T, url, body string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s returned %d (%s), want %d", url, resp.StatusCode, strings.TrimSpace(buf.String()), wantCode)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("POST %s response %q: %v", url, buf.String(), err)
		}
	}
}
