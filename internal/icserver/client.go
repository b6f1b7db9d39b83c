package icserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"icsched/internal/dag"
)

// ErrCrash, when returned by a Compute function, makes the client vanish
// immediately without reporting anything to the server — simulating a
// crashed client, whose task the server recovers via lease expiry.  Used
// by fault-injection harnesses.
var ErrCrash = errors.New("icserver: client crashed")

// Client is a remote IC client: it polls the server for work, runs the
// task function, and reports completions, until the server says the
// computation is finished.
//
// The client survives the transient failures of a real network: /task and
// /done requests that fail in transit or return 5xx are retried with
// exponential backoff and jitter — crucially, a failed /done is retried
// for the same task (resuming the in-flight task) rather than abandoning
// it, and the server's idempotent completion absorbs duplicates when only
// the response was lost.  A Compute error hands the task back to the
// server via POST /failed and the client moves on to other work.
type Client struct {
	// BaseURL of the server (e.g. an httptest.Server URL).
	BaseURL string
	// HTTP is the transport (defaults to http.DefaultClient).
	HTTP *http.Client
	// Compute executes one task.  A plain error hands the task back via
	// /failed; ErrCrash makes the client vanish without reporting.
	Compute func(task dag.NodeID, name string) error
	// IdleWait is the initial sleep when the server has nothing eligible
	// (default 2ms).  Consecutive idle polls back off exponentially with
	// jitter up to IdleWaitMax, so large idle fleets neither busy-poll
	// nor synchronize-hammer the server.
	IdleWait time.Duration
	// IdleWaitMax caps the idle backoff (default 250ms).
	IdleWaitMax time.Duration
	// RetryWait is the initial backoff after a transient request failure
	// (default 5ms), growing exponentially with jitter up to RetryWaitMax.
	RetryWait time.Duration
	// RetryWaitMax caps the retry backoff (default 500ms).
	RetryWaitMax time.Duration
	// MaxAttempts bounds tries per request, first included (default 8);
	// when exhausted Run returns the last error.
	MaxAttempts int
	// Batch switches the client to the batched wire protocol (POST /tasks
	// + POST /report) with this cap on tasks per grant.  Zero (or
	// negative) keeps the legacy one-task-per-round-trip protocol.  The
	// batched client keeps a local task queue: it computes every granted
	// task, then acks the whole batch — completions and failures mixed —
	// in one /report, so the scheduler lock and the HTTP round-trip are
	// amortized over the batch.  The ask is sized adaptively: it starts at
	// 1, doubles after every full grant up to Batch, holds steady on a
	// short grant (the server clamps over-asks to the eligible prefix, so
	// a big ask costs nothing), and resets to 1 after an empty grant so an
	// idle client probes gently.
	Batch int
	// ID names this client.  It is sent as the X-IC-Client header on
	// every POST so server-side traces attribute events per client.
	ID string
	// Seed seeds the jitter rng.  Zero assigns the next per-process
	// default seed, so even an unconfigured fleet backs off
	// deterministically run to run; harnesses that replay faults
	// (internal/chaos) set explicit per-client seeds.
	Seed int64
}

// Stats reports one client's activity.
type Stats struct {
	// Completed counts tasks this client computed and reported done.
	Completed int
	// IdlePolls counts /task polls that found nothing eligible.
	IdlePolls int
	// Retries counts transient request failures that were retried.
	Retries int
	// Failed counts tasks handed back (via /failed, or in a /report
	// batch) after a Compute error.
	Failed int
	// Batches counts /tasks grants that returned at least one task
	// (always zero under the legacy protocol).
	Batches int
	// Resyncs counts stale-epoch rejections handled: the server restarted
	// under a bumped fencing token and the client re-read the epoch (GET
	// /status) and re-sent its report under it.
	Resyncs int
}

// Run loops until the computation finishes, the context is cancelled,
// retries are exhausted, or Compute crashes.  With Batch > 0 it is the
// Engine; otherwise the legacy one-task-per-round-trip loop on the
// engine's helpers.
func (c *Client) Run(ctx context.Context) (Stats, error) {
	e := Engine{BaseURL: c.BaseURL, Batch: c.Batch, HTTP: c.HTTP, ID: c.ID, Seed: c.Seed,
		IdleWait: c.IdleWait, IdleWaitMax: c.IdleWaitMax, RetryWait: c.RetryWait, RetryWaitMax: c.RetryWaitMax,
		MaxAttempts: c.MaxAttempts}
	if c.Compute != nil {
		e.Compute = func(_ string, task dag.NodeID, name string) error { return c.Compute(task, name) }
	}
	var err error
	if c.Batch > 0 {
		_, err = e.Run(ctx)
	} else {
		err = e.runSingle(ctx)
	}
	s := e.stats
	return Stats{Completed: s.Completed, IdlePolls: s.IdlePolls, Retries: s.Retries, Failed: s.Failed,
		Batches: s.Batches, Resyncs: s.Resyncs}, err
}

// runSingle is the legacy loop: POST /task, compute, POST /done — or
// /failed, so the server requeues the task now instead of waiting out
// the lease.  These are the k=1 forms of /tasks and /report; retry, idle
// backoff, compute and the fenced re-send are the engine's.
func (e *Engine) runSingle(ctx context.Context) error {
	e.init()
	idle := e.IdleWait
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		code, body, err := e.postRetry(ctx, e.BaseURL+"/task", nil)
		if err != nil {
			return err
		}
		switch code {
		case http.StatusGone:
			return nil
		case http.StatusNoContent:
			if err := e.pause(ctx, &idle); err != nil {
				return err
			}
			continue
		case http.StatusOK:
			idle = e.IdleWait // got work: reset the idle backoff
		default:
			return fmt.Errorf("icserver client: /task returned %d: %s", code, body)
		}
		var task taskResponse
		if err := json.Unmarshal(body, &task); err != nil {
			return fmt.Errorf("icserver client: %w", err)
		}
		g := Grant{Epoch: task.Epoch, Tasks: []dag.NodeID{task.Task}, Names: []string{task.Name}}
		done, failed, err := e.compute(g)
		if err != nil {
			return err
		}
		path := "/done"
		if len(failed) > 0 {
			path = "/failed"
		}
		encode := func() []byte {
			b, _ := json.Marshal(doneRequest{Task: task.Task, Epoch: g.Epoch})
			return b
		}
		if _, err := e.report(ctx, path, &g, encode); err != nil {
			return err
		}
		e.stats.Completed += len(done)
		e.stats.Failed += len(failed)
	}
}

// wire is this package's own Dialect: the /report request and reply of
// one icserver, whose epoch is the top-level one in /status.
type wire struct{}

// Report encodes into a fresh slice, not a pooled one: net/http's
// transport may still be reading a request body after Do returns.
func (wire) Report(g Grant, done, failed []dag.NodeID, k int) []byte {
	b := make([]byte, 0, 48+8*(len(done)+len(failed)))
	return appendReportRequest(b, &reportRequest{Done: done, Failed: failed, K: k, Epoch: g.Epoch})
}

func (wire) Ack(body []byte) (Grant, bool, bool, error) {
	r, err := decodeFast(body, parseReportResponse)
	return Grant{Epoch: r.Epoch, Tasks: r.Tasks, Names: r.Names}, r.Finished, false, err
}

func (wire) Epoch(status []byte, _ Grant) uint64 {
	var st Status
	_ = json.Unmarshal(status, &st) // an unreadable body leaves the epoch 0: "does not say"
	return st.Epoch
}

// FetchStatus reads the server's progress snapshot.
func FetchStatus(ctx context.Context, httpc *http.Client, baseURL string) (Status, error) {
	var st Status
	_, data, err := do(ctx, httpc, http.MethodGet, baseURL+"/status", nil, "")
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// FetchHealth reads the server's /healthz state, reporting the HTTP
// status code alongside the payload (503 while draining).
func FetchHealth(ctx context.Context, httpc *http.Client, baseURL string) (status string, code int, err error) {
	var h healthResponse
	code, data, err := do(ctx, httpc, http.MethodGet, baseURL+"/healthz", nil, "")
	if err == nil {
		err = json.Unmarshal(data, &h)
	}
	return h.Status, code, err
}
