package icserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"icsched/internal/heur"
	"icsched/internal/wal"
)

// TestJournalFailedRefusesAndRecovers severs the journal under a live
// server (s.wal.Kill(), not Server.Kill): the request whose own batch
// fails to write answers the typed 503 journal-failed, so does every
// later /tasks and /report, and Recover on the directory resumes with
// exactly the state acknowledged before the failure.
func TestJournalFailedRefusesAndRecovers(t *testing.T) {
	g := replayDag()
	dir := t.TempDir()
	wopts := wal.Options{SnapshotEvery: -1}
	s, err := Recover(dir, g, heur.FIFO(), wopts, WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path, body string, wantCode int) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s %s answered %d (%s), want %d", path, body, resp.StatusCode, buf.String(), wantCode)
		}
		return buf.Bytes()
	}
	journalFailed := func(path, body string) {
		t.Helper()
		var u unavailableResponse
		if err := json.Unmarshal(post(path, body, http.StatusServiceUnavailable), &u); err != nil {
			t.Fatal(err)
		}
		if u.Reason != ReasonJournalFailed {
			t.Fatalf("POST %s %s refused with reason %q, want %q", path, body, u.Reason, ReasonJournalFailed)
		}
	}

	post("/tasks", `{"k":1}`, http.StatusOK)                       // grants 0
	post("/report", `{"done":[0],"k":2,"epoch":1}`, http.StatusOK) // completes 0, grants 1 and 2
	s.mu.Lock()
	acked := s.snapshotLocked()
	s.mu.Unlock()

	s.wal.Kill()
	journalFailed("/report", `{"done":[1],"k":1,"epoch":1}`) // its own batch fails
	journalFailed("/tasks", `{"k":1}`)
	journalFailed("/report", `{"done":[2],"epoch":1}`)
	journalFailed("/report", `{"done":[2],"k":1,"epoch":1}`)

	s2, err := Recover(dir, g, heur.FIFO(), wopts, WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	s2.mu.Lock()
	got := s2.snapshotLocked()
	s2.mu.Unlock()
	// Recovery fences the acknowledged in-flight grants into the requeue.
	want := acked
	want.Epoch++
	want.Returned = append(want.Returned, want.InFlight...)
	want.InFlight = []int64{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state\n got %+v\nwant %+v (the pre-failure state, fenced)", got, want)
	}
}
