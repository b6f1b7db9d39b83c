package icserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/dag"
)

// Engine is the one batched worker loop every fleet client runs: ask the
// service for up to k tasks, compute the grant, ack it — completions and
// hand-backs mixed — in one report that piggybacks the next ask, so the
// steady state is ONE round trip (and one server lock acquisition) per
// batch.  The public clients (Client here, jobs.Client) are its two
// configurations: both speak the one /tasks + /report wire (codec.go),
// a job service's grants and acks naming their job.  An Engine runs
// once.
//
// Transport errors and 5xx are retried with capped exponential backoff
// and seeded jitter; a typed 409 stale-epoch ack is resynced and re-sent
// under the service's current epoch; ErrCrash from Compute abandons the
// whole unreported grant, which lease expiry recovers.
type Engine struct {
	// BaseURL is the service serving POST /tasks, POST /report and GET
	// /status.  A request that stays unanswered past the retry budget
	// ends the run with that error.
	BaseURL string
	// Compute executes one granted task; job names the grant's job on a
	// job service.  Nil completes every task.
	Compute func(job string, task dag.NodeID, name string) error
	// Batch caps the adaptive ask (see nextAsk); zero or negative means 1.
	Batch int
	// The rest are the public clients' fields of the same names; init
	// gives zero values their defaults.
	HTTP                    *http.Client
	ID                      string
	Seed                    int64
	IdleWait, IdleWaitMax   time.Duration
	RetryWait, RetryWaitMax time.Duration
	MaxAttempts             int

	initOnce sync.Once
	rngMu    sync.Mutex
	rng      *rand.Rand
	stats    EngineStats
}

// EngineStats counts one run's activity; each public client reports the
// fields that apply to it under its own Stats type.
type EngineStats struct {
	Completed    int // tasks computed and acked done
	Failed       int // tasks handed back after a Compute error
	Batches      int // non-empty grants computed
	IdlePolls    int // polls that found nothing to do
	Retries      int // transient request failures retried
	Resyncs      int // stale-epoch rejections resynced
	JobsFinished int // acks that said the acked job reached its terminal state
}

// Grant is a batch in hand: task ids of one dag (Job names it on a job
// service) and the fencing epoch their report must carry.  Names is
// parallel to Tasks and present only when the dag is labeled; an
// unlabeled task's name is dag.DefaultName(id).
type Grant struct {
	Job   string       `json:"job,omitempty"`
	Epoch uint64       `json:"epoch,omitempty"`
	Tasks []dag.NodeID `json:"tasks"`
	Names []string     `json:"names,omitempty"`
}

// engineSeq hands out default jitter seeds: the n-th unseeded engine to
// start gets seed n.  A process that starts its fleet in a fixed order
// therefore backs off identically on every run, and no two unseeded
// workers — of whichever client type — share a jitter stream.
var engineSeq atomic.Int64

// init applies the backoff defaults and seeds the jitter rng, once.
func (e *Engine) init() {
	e.initOnce.Do(func() {
		if e.Batch <= 0 {
			e.Batch = 1
		}
		if e.IdleWait <= 0 {
			e.IdleWait = 2 * time.Millisecond
		}
		if e.IdleWaitMax <= 0 {
			e.IdleWaitMax = 250 * time.Millisecond
		}
		e.IdleWaitMax = max(e.IdleWaitMax, e.IdleWait)
		if e.RetryWait <= 0 {
			e.RetryWait = 5 * time.Millisecond
		}
		if e.RetryWaitMax <= 0 {
			e.RetryWaitMax = 500 * time.Millisecond
		}
		e.RetryWaitMax = max(e.RetryWaitMax, e.RetryWait)
		if e.MaxAttempts <= 0 {
			e.MaxAttempts = 8
		}
		if e.HTTP == nil {
			e.HTTP = http.DefaultClient
		}
		seed := e.Seed
		if seed == 0 {
			seed = engineSeq.Add(1)
		}
		e.rng = rand.New(rand.NewSource(seed))
	})
}

// jitter picks a uniform duration in [d/2, d) — "equal jitter", which
// decorrelates a fleet of workers that went idle at the same moment.
func (e *Engine) jitter(d time.Duration) time.Duration {
	e.init()
	half := d / 2
	if half <= 0 {
		return d
	}
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return half + time.Duration(e.rng.Int63n(int64(half)))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pause sleeps out one idle poll and doubles the idle backoff up to its
// cap, so large idle fleets neither busy-poll nor hammer in lockstep.
func (e *Engine) pause(ctx context.Context, idle *time.Duration) error {
	e.stats.IdlePolls++
	if err := sleepCtx(ctx, e.jitter(*idle)); err != nil {
		return err
	}
	*idle = min(2**idle, e.IdleWaitMax)
	return nil
}

// nextAsk is the adaptive-ask rule: double after a full grant up to
// limit, reset to 1 after an empty one so an idle worker probes gently,
// and hold on a short one — over-asking costs nothing (the server clamps
// the grant to the ELIGIBLE prefix under the same lock acquisition),
// while shrinking to the granted count would pin the whole fleet to
// one-task asks on any dag whose frontier is narrower than workers × limit.
func nextAsk(ask, granted, limit int) int {
	switch granted {
	case 0:
		return 1
	case ask:
		return min(2*ask, limit)
	}
	return ask
}

// Run works the loop until the service reports its terminal state (a job
// service never does), ctx is cancelled, Compute returns ErrCrash, or a
// request fails for good.
func (e *Engine) Run(ctx context.Context) (EngineStats, error) {
	e.init()
	ask := 1
	idle := e.IdleWait
	for {
		if err := ctx.Err(); err != nil {
			return e.stats, err
		}
		moved, finished, err := e.drain(ctx, &ask)
		if err != nil || finished {
			return e.stats, err
		}
		if moved {
			idle = e.IdleWait
		} else if err := e.pause(ctx, &idle); err != nil {
			return e.stats, err
		}
	}
}

// drain polls the service for a grant and, for as long as its acks keep
// piggybacking the next one, computes and acks batches.  It reports
// whether any batch was computed and whether the service said it is
// finished.
func (e *Engine) drain(ctx context.Context, ask *int) (moved, finished bool, err error) {
	req, _ := json.Marshal(tasksRequest{K: *ask})
	code, body, err := e.postRetry(ctx, e.BaseURL+"/tasks", req)
	if err != nil {
		return false, false, err
	}
	switch code {
	case http.StatusGone:
		return false, true, nil
	case http.StatusOK:
	default:
		return false, false, fmt.Errorf("icserver worker: %s/tasks returned %d: %s", e.BaseURL, code, body)
	}
	g, err := decodeFast(body, parseGrant)
	if err != nil {
		return false, false, fmt.Errorf("icserver worker: %s/tasks: %w", e.BaseURL, err)
	}
	if len(g.Tasks) == 0 {
		*ask = nextAsk(*ask, 0, e.Batch)
		return false, false, nil
	}
	// An empty piggybacked grant ends the loop with the ask as it stands:
	// only an empty poll resets it.
	for len(g.Tasks) > 0 {
		if err := ctx.Err(); err != nil {
			return true, false, err
		}
		e.stats.Batches++
		done, failed, err := e.compute(g)
		if err != nil {
			return true, false, err
		}
		*ask = nextAsk(*ask, len(g.Tasks), e.Batch)
		body, err := e.report(ctx, &g, func() []byte { return reportBody(&g, done, failed, *ask) })
		if err != nil {
			return true, false, err
		}
		e.stats.Completed += len(done)
		e.stats.Failed += len(failed)
		r, err := decodeFast(body, parseReportReply)
		if err != nil {
			return true, false, fmt.Errorf("icserver worker: %s/report: %w", e.BaseURL, err)
		}
		if r.JobFinished {
			e.stats.JobsFinished++
		}
		if r.Finished {
			return true, true, nil
		}
		g = Grant{Job: r.Job, Epoch: r.Epoch, Tasks: r.Tasks, Names: r.Names}
	}
	return true, false, nil
}

// compute runs every task of g, sorting them into the done and failed
// lists of its report; ErrCrash from Compute stops it cold.
func (e *Engine) compute(g Grant) (done, failed []dag.NodeID, err error) {
	for i, v := range g.Tasks {
		if e.Compute != nil {
			name := dag.DefaultName(v)
			if i < len(g.Names) {
				name = g.Names[i]
			}
			if err := e.Compute(g.Job, v, name); errors.Is(err, ErrCrash) {
				return nil, nil, err
			} else if err != nil {
				failed = append(failed, v)
				continue
			}
		}
		done = append(done, v)
	}
	return done, failed, nil
}

// report POSTs one ack, built by encode from g on every send, and for as
// long as the answer is the typed 409 stale-epoch — the server restarted
// since the grant — resyncs g's epoch and sends it again: the recovered
// server applies it (the tasks came back requeued) or absorbs it as
// idempotent duplicates (journaled before the crash).  It returns the
// 200 reply.
func (e *Engine) report(ctx context.Context, g *Grant, encode func() []byte) ([]byte, error) {
	url := e.BaseURL + "/report"
	for try := 1; ; try++ {
		code, body, err := e.postRetry(ctx, url, encode())
		if err != nil {
			return nil, err
		}
		if !isStaleEpoch(code, body) {
			if code != http.StatusOK {
				return nil, fmt.Errorf("icserver worker: %s returned %d: %s", url, code, body)
			}
			return body, nil
		}
		if try >= e.MaxAttempts {
			return nil, fmt.Errorf("icserver worker: %s kept hitting stale epochs after %d resyncs", url, try)
		}
		if err := e.resync(ctx, g, body); err != nil {
			return nil, err
		}
	}
}

// isStaleEpoch reports whether a response is the typed 409 stale-epoch
// rejection (as opposed to an ordinary 409 state conflict).
func isStaleEpoch(code int, body []byte) bool {
	if code != http.StatusConflict {
		return false
	}
	var rej staleEpochResponse
	return json.Unmarshal(body, &rej) == nil && rej.Error == staleEpochError
}

// resync refreshes g's fencing epoch after a stale-epoch rejection: per
// protocol from the service's GET /status, falling back to the epoch
// carried in the rejection body when /status is unreachable or silent
// (the server may be mid-restart again).  With neither, the report must
// not go out again — an epoch of 0 would pass unfenced.
func (e *Engine) resync(ctx context.Context, g *Grant, rejection []byte) error {
	e.stats.Resyncs++
	if _, status, err := do(ctx, e.HTTP, http.MethodGet, e.BaseURL+"/status", nil, ""); err == nil {
		if epoch := statusEpoch(status, *g); epoch != 0 {
			g.Epoch = epoch
			return nil
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var rej staleEpochResponse
	if json.Unmarshal(rejection, &rej) == nil && rej.Epoch != 0 {
		g.Epoch = rej.Epoch
		return nil
	}
	return errors.New("icserver worker: stale-epoch rejection without a recoverable epoch")
}

// statusEpoch picks the fencing epoch g's report must now carry out of a
// GET /status body: the server's own epoch for a plain grant, its job's
// entry in the job list for a job service's; 0 when the body does not
// say.
func statusEpoch(status []byte, g Grant) uint64 {
	var st struct {
		Epoch uint64 `json:"epoch"`
		Jobs  []struct {
			Job   string `json:"job"`
			Epoch uint64 `json:"epoch"`
		} `json:"jobs"`
	}
	_ = json.Unmarshal(status, &st) // an unreadable body says nothing
	if g.Job == "" {
		return st.Epoch
	}
	for _, j := range st.Jobs {
		if j.Job == g.Job {
			return j.Epoch
		}
	}
	return 0
}

// postRetry POSTs a JSON body (nil: no body), retrying transport errors
// and 5xx — including the typed 503 of a server mid-recovery — with
// capped exponential backoff + jitter.  It returns the first conclusive
// status, or an error once attempts are exhausted.
func (e *Engine) postRetry(ctx context.Context, url string, body []byte) (int, []byte, error) {
	wait := e.RetryWait
	var lastErr error
	for try := 0; try < e.MaxAttempts; try++ {
		if try > 0 {
			e.stats.Retries++
			if err := sleepCtx(ctx, e.jitter(wait)); err != nil {
				return 0, nil, err
			}
			wait = min(2*wait, e.RetryWaitMax)
		}
		code, resp, err := do(ctx, e.HTTP, http.MethodPost, url, body, e.ID)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
			lastErr = err // transport failure (includes dropped responses)
		case code >= 500:
			lastErr = fmt.Errorf("returned %d: %s", code, resp)
		default:
			return code, resp, nil
		}
	}
	return 0, nil, fmt.Errorf("icserver worker: %s failed after %d attempts: %w", url, e.MaxAttempts, lastErr)
}

// do sends one request and reads the whole response.
func do(ctx context.Context, httpc *http.Client, method, url string, body []byte, clientID string) (int, []byte, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if clientID != "" {
		req.Header.Set(clientHeader, clientID)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}
