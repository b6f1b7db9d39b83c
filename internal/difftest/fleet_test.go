package difftest

import (
	"context"
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
	"icsched/internal/dagio"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/jobs"
)

// reply is one scripted response.  A wireScript answers requests
// strictly in order, whatever their path, so the script IS the
// conversation: the client under test decides what to send, the golden
// table pins what it sent.
type reply struct {
	code int
	body string
}

type wireScript struct {
	t       *testing.T
	mu      sync.Mutex
	replies []reply
	got     []string
}

func (s *wireScript) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Method == http.MethodPost && r.Header.Get("X-IC-Client") != "golden" {
		s.t.Errorf("%s %s: X-IC-Client = %q, want golden", r.Method, r.URL.Path, r.Header.Get("X-IC-Client"))
	}
	s.got = append(s.got, strings.TrimSpace(fmt.Sprintf("%s %s %s", r.Method, r.URL.Path, body)))
	if len(s.replies) == 0 {
		s.t.Errorf("request %d (%s %s) is past the end of the script", len(s.got), r.Method, r.URL.Path)
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	next := s.replies[0]
	s.replies = s.replies[1:]
	w.WriteHeader(next.code)
	_, _ = io.WriteString(w, next.body)
}

const (
	unavailable503 = `{"error":"unavailable","reason":"killed"}`
	ackSummary     = `"newlyEligible":1,"completed":1,"duplicates":0,"requeued":0,"quarantined":0`
)

// failOnce returns a Compute body that fails task v the first time it
// sees it, so every flavour's golden run carries one hand-back.
func failOnce(v dag.NodeID) func(dag.NodeID) error {
	failed := false
	return func(task dag.NodeID) error {
		if task == v && !failed {
			failed = true
			return errors.New("flaky")
		}
		return nil
	}
}

// TestWireSequenceGolden pins, byte for byte, the request sequence each
// of the three client flavours emits against a scripted server that
// walks it through full, short and empty grants, an idle poll, a 503
// retry, a typed 409 stale-epoch resync, a hand-back and the terminal
// state.  The want tables were captured from the clients as they stood
// before their private loops were folded into the one worker engine;
// they are the contract that the fold — and the engine's later collapse
// to a single service URL — changed no wire byte and no request order.
// The scripted replies were re-written once, when grants became id
// arrays with one epoch; the want tables were not.  The icserver-k1
// table (the default one-task client) was captured from the engine
// itself, once.  The jobs case was re-captured once, with its scripted
// replies, when the job service moved onto icserver's wire: its acks now
// read {"job",…} followed by icserver's own ack fields, and its replies
// are flat instead of nesting the next grant under "grant"; the request
// order did not change.
func TestWireSequenceGolden(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name    string
		replies []reply
		run     func(ctx context.Context, stop context.CancelFunc, url string) (string, error)
		want    []string
		stats   string
		stopped bool // the run ends by context cancellation
	}{
		{
			name: "icserver-batched",
			replies: []reply{
				{200, `{"tasks":[0],"epoch":1}`},
				{200, `{` + ackSummary + `,"tasks":[1,2],"epoch":1}`},
				{503, unavailable503},
				{409, `{"error":"stale epoch","epoch":2}`},
				{200, `{"total":5,"completed":1,"epoch":2}`},
				{200, `{` + ackSummary + `,"tasks":[2],"epoch":2}`},
				{200, `{` + ackSummary + `,"epoch":2}`},
				{200, `{"tasks":[],"epoch":2}`},
				{200, `{"tasks":[3],"epoch":2}`},
				{200, `{` + ackSummary + `,"finished":true,"epoch":2}`},
			},
			run: func(ctx context.Context, stop context.CancelFunc, url string) (string, error) {
				fail := failOnce(2)
				c := &icserver.Client{BaseURL: url, Batch: 16, ID: "golden", Seed: 1, IdleWait: ms, RetryWait: ms,
					Compute: func(v dag.NodeID, _ string) error { return fail(v) }}
				st, err := c.Run(ctx)
				return fmt.Sprintf("%+v", st), err
			},
			want:  goldenBatched,
			stats: "{Completed:4 IdlePolls:1 Retries:1 Failed:1 Batches:4 Resyncs:1}",
		},
		{
			name: "icserver-k1",
			replies: []reply{
				{200, `{"tasks":[0],"epoch":1}`},
				{200, `{` + ackSummary + `,"epoch":1}`},
				{200, `{"tasks":[],"epoch":1}`},
				{503, unavailable503},
				{200, `{"tasks":[1],"epoch":1}`},
				{409, `{"error":"stale epoch","epoch":2}`},
				{200, `{"total":2,"completed":1,"epoch":2}`},
				{200, `{"requeued":1,"tasks":[1],"epoch":2}`},
				{200, `{` + ackSummary + `,"finished":true,"epoch":2}`},
			},
			run: func(ctx context.Context, stop context.CancelFunc, url string) (string, error) {
				fail := failOnce(1)
				c := &icserver.Client{BaseURL: url, Batch: 1, ID: "golden", Seed: 1, IdleWait: ms, RetryWait: ms,
					Compute: func(v dag.NodeID, _ string) error { return fail(v) }}
				st, err := c.Run(ctx)
				return fmt.Sprintf("%+v", st), err
			},
			want:  goldenK1,
			stats: "{Completed:2 IdlePolls:1 Retries:1 Failed:1 Batches:3 Resyncs:1}",
		},
		{
			name: "jobs",
			replies: []reply{
				{200, `{"job":"j1","epoch":1,"tasks":[0]}`},
				{200, `{` + ackSummary + `,"job":"j2","tasks":[1,2],"epoch":3}`},
				{503, unavailable503},
				{409, `{"error":"stale epoch","epoch":4}`},
				{200, `{"activeJobs":1,"jobs":[{"job":"j1","epoch":1},{"job":"j2","epoch":5}]}`},
				{200, `{` + ackSummary + `,"jobFinished":true}`},
				{200, `{"tasks":[]}`},
				{200, `{"job":"j2","epoch":5,"tasks":[2]}`},
				{200, `{` + ackSummary + `,"job":"j3","tasks":[7],"epoch":1}`},
			},
			run: func(ctx context.Context, stop context.CancelFunc, url string) (string, error) {
				fail := failOnce(2)
				c := &jobs.Client{BaseURL: url, Batch: 8, ID: "golden", Seed: 1, IdleWait: ms, RetryWait: ms,
					Compute: func(_ string, v dag.NodeID, _ string) error {
						if v == 7 {
							stop() // a job fleet never finishes: it is stopped, here with a grant in hand
						}
						return fail(v)
					}}
				st, err := c.Run(ctx)
				return fmt.Sprintf("%+v", st), err
			},
			want:    goldenJobs,
			stats:   "{Completed:3 Failed:1 Batches:4 IdlePolls:1 Retries:1 Resyncs:1 JobsFinished:1}",
			stopped: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			script := &wireScript{t: t, replies: tc.replies}
			ts := httptest.NewServer(script)
			defer ts.Close()
			stats, err := tc.run(ctx, cancel, ts.URL)
			if tc.stopped {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run = %v, want context.Canceled", err)
				}
			} else if err != nil {
				t.Fatalf("Run: %v", err)
			}
			script.mu.Lock()
			defer script.mu.Unlock()
			if len(script.replies) != 0 {
				t.Errorf("%d scripted replies never asked for", len(script.replies))
			}
			if got, want := strings.Join(script.got, "\n"), strings.Join(tc.want, "\n"); got != want {
				t.Errorf("wire sequence changed\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if stats != tc.stats {
				t.Errorf("stats = %s\n        want %s", stats, tc.stats)
			}
		})
	}
}

var goldenBatched = []string{
	`POST /tasks {"k":1}`,
	`POST /report {"done":[0],"k":2,"epoch":1}`,
	`POST /report {"done":[1],"failed":[2],"k":4,"epoch":1}`,
	`POST /report {"done":[1],"failed":[2],"k":4,"epoch":1}`,
	`GET /status`,
	`POST /report {"done":[1],"failed":[2],"k":4,"epoch":2}`,
	`POST /report {"done":[2],"k":4,"epoch":2}`,
	`POST /tasks {"k":4}`,
	`POST /tasks {"k":1}`,
	`POST /report {"done":[3],"k":2,"epoch":2}`,
}

var goldenK1 = []string{
	`POST /tasks {"k":1}`,
	`POST /report {"done":[0],"k":1,"epoch":1}`,
	`POST /tasks {"k":1}`,
	`POST /tasks {"k":1}`,
	`POST /tasks {"k":1}`,
	`POST /report {"failed":[1],"k":1,"epoch":1}`,
	`GET /status`,
	`POST /report {"failed":[1],"k":1,"epoch":2}`,
	`POST /report {"done":[1],"k":1,"epoch":2}`,
}

var goldenJobs = []string{
	`POST /tasks {"k":1}`,
	`POST /report {"job":"j1","done":[0],"k":2,"epoch":1}`,
	`POST /report {"job":"j2","done":[1],"failed":[2],"k":4,"epoch":3}`,
	`POST /report {"job":"j2","done":[1],"failed":[2],"k":4,"epoch":3}`,
	`GET /status`,
	`POST /report {"job":"j2","done":[1],"failed":[2],"k":4,"epoch":5}`,
	`POST /tasks {"k":4}`,
	`POST /tasks {"k":1}`,
	`POST /report {"job":"j2","done":[2],"k":2,"epoch":5}`,
}

// fleetFlavours builds one worker of each client flavour against url,
// for the tests that hold all of them to one contract.
var fleetFlavours = []struct {
	name string
	run  func(ctx context.Context, url string, seed int64) error
}{
	{"icserver-batched", func(ctx context.Context, url string, seed int64) error {
		_, err := (&icserver.Client{BaseURL: url, Batch: 16, ID: "golden", Seed: seed, IdleWait: time.Millisecond}).Run(ctx)
		return err
	}},
	{"icserver-k1", func(ctx context.Context, url string, seed int64) error {
		_, err := (&icserver.Client{BaseURL: url, Batch: 1, ID: "golden", Seed: seed, IdleWait: time.Millisecond}).Run(ctx)
		return err
	}},
	{"jobs", func(ctx context.Context, url string, seed int64) error {
		_, err := (&jobs.Client{BaseURL: url, ID: "golden", Seed: seed, IdleWait: time.Millisecond}).Run(ctx)
		return err
	}},
}

// TestUnseededWorkersRaceFree runs two Seed: 0 workers of every flavour
// against a server that never has work, so all six draw their default
// seed and jitter concurrently.  Under -race this pins that default
// seeds come from one atomic counter (one client type's used to be a
// plain package variable bumped under a per-worker lock).
func TestUnseededWorkersRaceFree(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"tasks":[]}`)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for _, f := range fleetFlavours {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f.run(ctx, ts.URL, 0); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("%s: Run = %v, want the deadline", f.name, err)
				}
			}()
		}
	}
	wg.Wait()
}

// TestResyncEpochContract holds every flavour to one stale-epoch resync
// contract.  Each run is granted task 0 under epoch 1 and has its ack
// rejected with the typed 409; what it does next depends only on where
// an epoch can still be read: GET /status first, the rejection body
// second, and with neither — or a cancelled context — it must stop, never
// re-send the ack unfenced under epoch 0.
func TestResyncEpochContract(t *testing.T) {
	grants := map[string][2]string{ // flavour → {grant reply, /status reply carrying epoch 7}
		"icserver-batched": {`{"tasks":[0],"epoch":1}`, `{"epoch":7}`},
		"icserver-k1":      {`{"tasks":[0],"epoch":1}`, `{"epoch":7}`},
		"jobs":             {`{"job":"j1","epoch":1,"tasks":[0]}`, `{"jobs":[{"job":"j0","epoch":3},{"job":"j1","epoch":7}]}`},
	}
	cases := []struct {
		name      string
		status    string // "" = /status answers 500
		rejection string
		cancel    bool   // cancel the run's context while /status is being read
		resent    string // substring of the re-sent ack; "" = no re-send
		wantErr   string
	}{
		{"status ok", "ok", `{"error":"stale epoch","epoch":5}`, false, `"epoch":7`, ""},
		{"status down, body epoch", "", `{"error":"stale epoch","epoch":5}`, false, `"epoch":5`, ""},
		{"status down, no epoch", "", `{"error":"stale epoch"}`, false, "", "without a recoverable epoch"},
		{"ctx cancelled", "", `{"error":"stale epoch","epoch":5}`, true, "", context.Canceled.Error()},
	}
	for _, f := range fleetFlavours {
		for _, tc := range cases {
			t.Run(f.name+"/"+tc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var mu sync.Mutex
				var posts []string
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					body, _ := io.ReadAll(r.Body)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case r.Method == http.MethodGet:
						if tc.cancel {
							cancel()
						}
						if tc.status == "" {
							w.WriteHeader(http.StatusInternalServerError)
							return
						}
						_, _ = io.WriteString(w, grants[f.name][1])
					case len(posts) == 0: // the poll
						posts = append(posts, string(body))
						_, _ = io.WriteString(w, grants[f.name][0])
					case len(posts) == 1: // the ack under epoch 1
						posts = append(posts, string(body))
						w.WriteHeader(http.StatusConflict)
						_, _ = io.WriteString(w, tc.rejection)
					default: // the re-sent ack: end the run
						posts = append(posts, string(body))
						cancel()
					}
				}))
				defer ts.Close()
				err := f.run(ctx, ts.URL, 1)
				mu.Lock()
				defer mu.Unlock()
				if len(posts) < 2 || !strings.Contains(posts[1], `"epoch":1`) {
					t.Fatalf("requests %q: want a poll, then an ack under epoch 1", posts)
				}
				if tc.resent == "" {
					if len(posts) != 2 {
						t.Fatalf("ack re-sent as %q without a recoverable epoch", posts[2:])
					}
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("Run = %v, want an error containing %q", err, tc.wantErr)
					}
					return
				}
				if len(posts) != 3 || !strings.Contains(posts[2], tc.resent) {
					t.Fatalf("requests %q: want the ack re-sent once with %s", posts, tc.resent)
				}
			})
		}
	}
}

// TestComputeSeesTaskNames holds every flavour to one naming contract
// over HTTP: an unlabeled dag's grants carry ids only and Compute sees
// dag.DefaultName(id); a labeled dag's carry names, and Compute sees the
// label — or n<id> for a node the labeling skipped.
func TestComputeSeesTaskNames(t *testing.T) {
	const n = 6
	build := func(labeled bool) *dag.Dag {
		b := dag.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddArc(0, dag.NodeID(v))
		}
		if labeled {
			for v := 0; v < n; v += 2 {
				b.SetLabel(dag.NodeID(v), fmt.Sprintf("task <%d> é", v))
			}
		}
		return b.MustBuild()
	}
	for _, labeled := range []bool{false, true} {
		g := build(labeled)
		for _, flavour := range []string{"icserver-batched", "icserver-k1", "jobs"} {
			t.Run(fmt.Sprintf("%s/labeled=%v", flavour, labeled), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				var mu sync.Mutex
				seen := map[dag.NodeID]string{}
				compute := func(v dag.NodeID, name string) error {
					mu.Lock()
					defer mu.Unlock()
					seen[v] = name
					if len(seen) == n {
						cancel() // a job fleet never finishes by itself
					}
					return nil
				}
				var err error
				if flavour == "jobs" {
					svc := jobs.New(jobs.Config{Lease: time.Minute})
					defer svc.Kill() // the last batch is computed but never acked
					ts := httptest.NewServer(svc.Handler())
					defer ts.Close()
					payload, _ := dagio.MarshalJSON(g)
					if _, err := svc.Submit(jobs.Spec{Tenant: "a", Dag: payload}); err != nil {
						t.Fatal(err)
					}
					c := &jobs.Client{BaseURL: ts.URL, Batch: 4, Seed: 1, IdleWait: time.Millisecond,
						Compute: func(_ string, v dag.NodeID, name string) error { return compute(v, name) }}
					_, err = c.Run(ctx)
				} else {
					ts := httptest.NewServer(icserver.New(g, heur.FIFO()).Handler())
					defer ts.Close()
					c := &icserver.Client{BaseURL: ts.URL, Batch: 1, Seed: 1, IdleWait: time.Millisecond, Compute: compute}
					if flavour == "icserver-batched" {
						c.Batch = 4
					}
					_, err = c.Run(ctx)
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("Run: %v", err)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(seen) != n {
					t.Fatalf("computed %d of %d tasks", len(seen), n)
				}
				for v, name := range seen {
					if want := g.Name(v); name != want {
						t.Errorf("task %d computed as %q, want %q", v, name, want)
					}
				}
			})
		}
	}
}
