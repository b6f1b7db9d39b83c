// Package exec executes computation-dags for real: a pool of worker
// goroutines runs one task function per node, respecting the dag's
// dependencies, and dispatches ELIGIBLE tasks in the priority order of a
// supplied schedule.  With an IC-optimal schedule this realizes the
// paper's server: work is handed out in the order that maximizes the
// ELIGIBLE pool, so workers are starved as little as the dag permits.
//
// The compute packages (integrate, fftconv, scan, zt, linalg, wavefront,
// graphpaths) all run their dags through this executor.
package exec

import (
	"fmt"
	"sync"

	"icsched/internal/dag"
	"icsched/internal/obs"
)

// RankFromOrder converts a (full or partial) schedule into a rank vector:
// rank[v] = position of v in the order; unranked nodes sort last by ID.
// The order must mention each node at most once and only nodes of g —
// a duplicate would silently drop an earlier priority and an
// out-of-range ID would corrupt the vector, so both are errors.
func RankFromOrder(g *dag.Dag, order []dag.NodeID) ([]int, error) {
	n := g.NumNodes()
	rank := make([]int, n)
	for i := range rank {
		rank[i] = len(order) + i
	}
	seen := make([]bool, n)
	for i, v := range order {
		if int(v) < 0 || int(v) >= n {
			return nil, fmt.Errorf("exec: order position %d: node %d out of range [0, %d)", i, v, n)
		}
		if seen[v] {
			return nil, fmt.Errorf("exec: order position %d: node %s appears twice", i, g.Name(v))
		}
		seen[v] = true
		rank[v] = i
	}
	return rank, nil
}

// Observer receives the executor's trace events (the obs schema shared
// with icserver and icsim).  Calls are made under the executor's lock,
// so events arrive in a globally consistent order and the Eligible
// field is exact at each event — observers must therefore be fast and
// must not call back into the executor.  obs.Trace satisfies Observer.
type Observer interface {
	Observe(ev obs.Event)
}

// TaskError is the typed failure RunRetry (and Run) report when a task
// exhausts its attempts: it carries the failing node, its label, how many
// times it was tried, and wraps the last underlying error.
type TaskError struct {
	Task     dag.NodeID
	Name     string
	Attempts int
	Err      error
}

func (e *TaskError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("exec: task %s failed after %d attempts: %v", e.Name, e.Attempts, e.Err)
	}
	return fmt.Sprintf("exec: task %s: %v", e.Name, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// Run executes every node of g with the given number of worker goroutines
// (≥ 1).  task(v) is called exactly once per node, only after all of v's
// parents' calls returned.  Among simultaneously ELIGIBLE nodes, workers
// take the one with the smallest rank.  The first task error aborts the
// run (in-flight tasks finish; unstarted ones never start) and is
// returned as a *TaskError.  It also returns the order in which tasks
// were started.
func Run(g *dag.Dag, rank []int, workers int, task func(dag.NodeID) error) ([]dag.NodeID, error) {
	return RunRetryObserved(g, rank, workers, 1, task, nil)
}

// RunRetry is Run with bounded per-task retries, the executor-level
// analogue of the IC server's lease-reissue recovery: a task whose
// function fails is put back in the ready pool and retried (possibly by
// another worker) until it succeeds or has been attempted maxAttempts
// times, at which point the run aborts with a *TaskError.  Dependents
// only ever see a successful attempt.  Retried starts appear again in
// the returned start order.
func RunRetry(g *dag.Dag, rank []int, workers, maxAttempts int, task func(dag.NodeID) error) ([]dag.NodeID, error) {
	return RunRetryObserved(g, rank, workers, maxAttempts, task, nil)
}

// RunRetryObserved is RunRetry with an optional Observer receiving the
// run's trace: run-start, then per task attempt start and
// done/retry/failed, each carrying the worker ID, the attempt number,
// and the live |ELIGIBLE| count after the event (a node stays ELIGIBLE
// from the moment its parents are done until its own successful
// completion, exactly the §2.2 quality model), then run-end.  A nil
// Observer costs nothing.
func RunRetryObserved(g *dag.Dag, rank []int, workers, maxAttempts int,
	task func(dag.NodeID) error, o Observer) ([]dag.NodeID, error) {
	n := g.NumNodes()
	if workers < 1 {
		return nil, fmt.Errorf("exec: %d workers", workers)
	}
	if maxAttempts < 1 {
		return nil, fmt.Errorf("exec: %d attempts per task", maxAttempts)
	}
	if len(rank) != n {
		return nil, fmt.Errorf("exec: rank covers %d of %d nodes", len(rank), n)
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		remaining = make([]int32, n)
		attempts  = make([]int, n)
		ready     = rankHeap{rank: rank, xs: make([]dag.NodeID, 0, n)}
		started   = make([]dag.NodeID, 0, n)
		completed int
		inFlight  int
		firstErr  error
	)
	for v := 0; v < n; v++ {
		remaining[v] = int32(g.InDegree(dag.NodeID(v)))
		if remaining[v] == 0 {
			ready.push(dag.NodeID(v))
		}
	}
	// eligible is the §2.2 |ELIGIBLE| count: unexecuted nodes whose
	// parents have all executed.  A node in flight (started, not yet
	// completed) is still ELIGIBLE in the quality model.
	eligible := func() int { return len(ready.xs) + inFlight }
	if o != nil {
		o.Observe(obs.Event{Phase: obs.PhaseRunStart, Task: -1, Eligible: eligible()})
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			actor := fmt.Sprintf("worker-%d", worker)
			for {
				mu.Lock()
				for len(ready.xs) == 0 && completed+inFlight < n && firstErr == nil {
					cond.Wait()
				}
				if firstErr != nil || (completed+inFlight == n && len(ready.xs) == 0) {
					mu.Unlock()
					cond.Broadcast()
					return
				}
				v := ready.pop()
				started = append(started, v)
				attempts[v]++
				inFlight++
				if o != nil {
					o.Observe(obs.Event{Phase: obs.PhaseStart, Task: int(v), Name: g.Name(v),
						Actor: actor, Attempt: attempts[v], Eligible: eligible()})
				}
				mu.Unlock()

				err := task(v)

				mu.Lock()
				inFlight--
				switch {
				case err == nil:
					completed++
					if firstErr == nil {
						for _, c := range g.Children(v) {
							remaining[c]--
							if remaining[c] == 0 {
								ready.push(c)
							}
						}
					}
					if o != nil {
						o.Observe(obs.Event{Phase: obs.PhaseDone, Task: int(v), Name: g.Name(v),
							Actor: actor, Attempt: attempts[v], Eligible: eligible()})
					}
				case attempts[v] < maxAttempts:
					ready.push(v) // retry: back in the pool
					if o != nil {
						o.Observe(obs.Event{Phase: obs.PhaseRetry, Task: int(v), Name: g.Name(v),
							Actor: actor, Attempt: attempts[v], Eligible: eligible(), Err: err.Error()})
					}
				default:
					completed++ // exhausted; count it so the run drains
					if firstErr == nil {
						firstErr = &TaskError{Task: v, Name: g.Name(v), Attempts: attempts[v], Err: err}
					}
					if o != nil {
						o.Observe(obs.Event{Phase: obs.PhaseFailed, Task: int(v), Name: g.Name(v),
							Actor: actor, Attempt: attempts[v], Eligible: eligible(), Err: err.Error()})
					}
				}
				mu.Unlock()
				cond.Broadcast()
			}
		}(w)
	}
	wg.Wait()
	if o != nil {
		mu.Lock()
		o.Observe(obs.Event{Phase: obs.PhaseRunEnd, Task: -1, Eligible: eligible()})
		mu.Unlock()
	}
	if firstErr != nil {
		return started, firstErr
	}
	if completed != n {
		return started, fmt.Errorf("exec: completed %d of %d tasks", completed, n)
	}
	return started, nil
}

// rankHeap is a min-heap of node IDs ordered by rank (ties by ID).  The
// key is a total order on distinct nodes and a node is never in the heap
// twice, so the pop sequence is the same for any correct heap.
type rankHeap struct {
	rank []int
	xs   []dag.NodeID
}

func (h *rankHeap) less(a, b dag.NodeID) bool {
	if ra, rb := h.rank[a], h.rank[b]; ra != rb {
		return ra < rb
	}
	return a < b
}

func (h *rankHeap) push(v dag.NodeID) {
	h.xs = append(h.xs, v)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.xs[p]) {
			break
		}
		h.xs[i] = h.xs[p]
		i = p
	}
	h.xs[i] = v
}

func (h *rankHeap) pop() dag.NodeID {
	top := h.xs[0]
	last := len(h.xs) - 1
	v := h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(h.xs[c+1], h.xs[c]) {
			c++
		}
		if !h.less(h.xs[c], v) {
			break
		}
		h.xs[i] = h.xs[c]
		i = c
	}
	if last > 0 {
		h.xs[i] = v
	}
	return top
}
