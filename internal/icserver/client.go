package icserver

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"icsched/internal/dag"
)

// ErrCrash, when returned by a Compute function, makes the client vanish
// immediately without reporting anything to the server — simulating a
// crashed client, whose task the server recovers via lease expiry.  Used
// by fault-injection harnesses.
var ErrCrash = errors.New("icserver: client crashed")

// Client is a remote IC client: it asks the server for work (POST
// /tasks), runs the task function, and acks the grant (POST /report),
// until the server says the computation is finished.  It is the Engine
// on a single-dag server.
//
// The client survives the transient failures of a real network: requests
// that fail in transit or return 5xx are retried with exponential
// backoff and jitter — crucially, a failed ack is retried for the same
// grant (resuming the in-flight tasks) rather than abandoning it, and the
// server's idempotent completion absorbs duplicates when only the
// response was lost.  A Compute error hands the task back to the server
// in the grant's ack and the client moves on to other work.
type Client struct {
	// BaseURL of the server (e.g. an httptest.Server URL).
	BaseURL string
	// HTTP is the transport (defaults to http.DefaultClient).
	HTTP *http.Client
	// Compute executes one task.  A plain error hands the task back in
	// the ack's "failed" list; ErrCrash makes the client vanish without
	// reporting.
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
	// Batch caps tasks per grant; zero or negative means 1, the paper's
	// one-task-per-request client (§2.2).  The client computes every
	// granted task, then acks the whole batch — completions and failures
	// mixed — in one /report that piggybacks the next ask, so the
	// scheduler lock and the HTTP round-trip are amortized over the batch.
	// The ask is sized adaptively: it starts at 1, doubles after every
	// full grant up to Batch, holds steady on a short grant (the server
	// clamps over-asks to the eligible prefix, so a big ask costs
	// nothing), and resets to 1 after an empty grant so an idle client
	// probes gently.
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
	// IdlePolls counts /tasks polls that found nothing eligible.
	IdlePolls int
	// Retries counts transient request failures that were retried.
	Retries int
	// Failed counts tasks handed back in a /report after a Compute error.
	Failed int
	// Batches counts grants — /tasks replies or piggybacked on a /report
	// — that carried at least one task.
	Batches int
	// Resyncs counts stale-epoch rejections handled: the server restarted
	// under a bumped fencing token and the client re-read the epoch (GET
	// /status) and re-sent its report under it.
	Resyncs int
}

// Run loops until the computation finishes, the context is cancelled,
// retries are exhausted, or Compute crashes.
func (c *Client) Run(ctx context.Context) (Stats, error) {
	e := Engine{BaseURL: c.BaseURL, Batch: c.Batch, HTTP: c.HTTP, ID: c.ID, Seed: c.Seed,
		IdleWait: c.IdleWait, IdleWaitMax: c.IdleWaitMax, RetryWait: c.RetryWait, RetryWaitMax: c.RetryWaitMax,
		MaxAttempts: c.MaxAttempts}
	if c.Compute != nil {
		e.Compute = func(_ string, task dag.NodeID, name string) error { return c.Compute(task, name) }
	}
	s, err := e.Run(ctx)
	return Stats{Completed: s.Completed, IdlePolls: s.IdlePolls, Retries: s.Retries, Failed: s.Failed,
		Batches: s.Batches, Resyncs: s.Resyncs}, err
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
