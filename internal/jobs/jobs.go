// Package jobs turns the single-dag task server (internal/icserver) into
// a multi-tenant job service: a stream of job submissions — each a dagio
// payload or a named family+size — queues for one admitter goroutine that
// builds, analyzes and activates each job in turn while the fleet's
// handlers execute the earlier ones, and a job registry multiplexes every
// live job across one shared client fleet.
//
// Grants carry a job ID and that job's fencing epoch; /tasks and /report
// are job-scoped.  Which job a grant draws from is decided by per-tenant
// weighted-fair (stride) admission: every tenant carries a virtual pass
// that advances by tasks-granted/weight, and grants go to the tenant
// with the minimum pass that has allocatable work — so one tenant's
// burst of submissions cannot starve another's eligible set.  Per-tenant
// queue caps bound admission (backpressure, not unbounded memory).
//
// Recovery composes with the task-level write-ahead journal: a jobs
// directory holds one manifest.jsonl of job lifecycle events (submit
// with the full spec / activate / finish), fsynced per append, plus one
// job-<id>/ wal directory per job.  Recover replays the manifest to
// learn which jobs existed, re-derives each unfinished job's dag and
// schedule deterministically from its spec, and rebuilds each
// previously-active job's exact task state via icserver.Recover — which
// bumps that job's epoch, fencing the dead incarnation's grants.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/obs"
	"icsched/internal/schedcache"
	"icsched/internal/wal"

	"encoding/json"
)

// Spec describes one job submission: a tenant plus either a named
// family+size or a raw dagio JSON payload (exactly one of the two).
type Spec struct {
	// Tenant names the submitting tenant (required); Weight, when
	// positive, sets the tenant's fair-share weight (default 1, last
	// submission wins).
	Tenant string `json:"tenant"`
	Weight int    `json:"weight,omitempty"`
	// Family+Size reference a named dag family ("wavefront", "fftconv",
	// "prefix") with its IC-optimal schedule.
	Family string `json:"family,omitempty"`
	Size   int    `json:"size,omitempty"`
	// Dag is a dagio JSON payload ({"nodes": n, "arcs": [[u,v],...]});
	// such jobs are ordered by MAX-NEW-ELIGIBLE under whichever score
	// tie-break, node ID or offer order, gives the better eligibility
	// profile (heur.BestMaxNewEligible).
	Dag json.RawMessage `json:"dag,omitempty"`
}

// Job states, as reported in JobStatus.
const (
	StateQueued   = "queued"   // submitted, waiting for the admitter
	StateBuilding = "building" // being built and analyzed by the admitter
	StateActive   = "active"   // executing: its tasks are grantable
	StateFinished = "finished" // every task completed (or degraded-terminal)
	StateFailed   = "failed"   // build or analysis rejected the spec
)

// Job is one registered job (registry-internal; JobStatus is the view).
type Job struct {
	id    string
	spec  Spec
	state string

	g        *dag.Dag
	nonsinks []dag.NodeID // family jobs: the IC-optimal nonsink prefix
	order    []dag.NodeID
	tie      heur.TieBreak // raw jobs: the MAX-NEW-ELIGIBLE tie-break of order
	cacheHit bool          // analysis served from the schedule cache
	replay   bool          // steady-state replay: cursor-journaled cached order

	srv *icserver.Server // non-nil only while active

	submittedAt time.Time
	activatedAt time.Time
	finishedAt  time.Time

	// Terminal accounting, frozen at finish (or restored from the
	// manifest for jobs that finished before a recovery).
	nodes       int
	completed   int
	quarantined int
	epoch       uint64
	errMsg      string
}

// tenant is the fair-share state of one submitting tenant.
type tenant struct {
	name      string
	weight    int
	pass      float64 // stride virtual time: tasks granted / weight
	active    []*Job  // activation order
	queued    int     // jobs admitted but not yet active (or failed)
	completed int     // jobs finished successfully
	granted   int     // tasks granted
}

// Config tunes the job service.  The zero value is serviceable.
type Config struct {
	// Lease and MaxAttempts configure every per-job task server
	// (defaults: icserver's own 30s / 5).
	Lease       time.Duration
	MaxAttempts int
	// Wal tunes each job's task journal (durable servers only).
	Wal wal.Options
	// MaxQueued caps jobs admitted but not yet finished per tenant
	// (default 256); submissions beyond it are refused with
	// BackpressureError.
	MaxQueued int
	// Cache is the schedule cache the admitter consults before
	// computing an allocation order (nil = a private default-sized one).
	// Sharing one cache across services shares the analyses.
	Cache *schedcache.Cache
	// Clock injects a time source (tests).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.Cache == nil {
		c.Cache = schedcache.New(schedcache.Options{})
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Server is the multi-tenant job service.  Create with New (memory-only)
// or Recover (durable), mount via Handler, and drive a fleet of
// jobs.Client workers at it.
type Server struct {
	mu       sync.Mutex
	cfg      Config
	dir      string // "" = memory-only
	man      *manifest
	manErr   error // first manifest write failure; wounds the service
	jobs     map[string]*Job
	order    []*Job // submission order
	tenants  map[string]*tenant
	nextID   int
	draining bool
	killed   bool
	chClosed bool

	admitCh chan *Job
	wg      sync.WaitGroup
	// activating is held while the admitter builds a job's task server
	// off mu; Kill takes it first, so no activation writes to disk
	// after Kill returns.
	activating sync.Mutex

	now   func() time.Time
	start time.Time
	reg   *obs.Registry
	m     jobsMetrics
}

type jobsMetrics struct {
	submitted, finished, failed *obs.Counter
	backpressure                *obs.Counter
	grantRequests, granted      *obs.Counter
	reports                     *obs.Counter
	activeJobs, queuedJobs      *obs.Gauge
	jobLatency                  *obs.Histogram
}

// jobLatencyBuckets spans submit→finish times from milliseconds to
// minutes.
var jobLatencyBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120}

func newJobsMetrics(reg *obs.Registry) jobsMetrics {
	return jobsMetrics{
		submitted:     reg.Counter("icjobs_submitted_total", "jobs admitted"),
		finished:      reg.Counter("icjobs_finished_total", "jobs that reached the terminal state"),
		failed:        reg.Counter("icjobs_failed_total", "jobs rejected by build/analysis"),
		backpressure:  reg.Counter("icjobs_backpressure_total", "submissions refused by the per-tenant queue cap"),
		grantRequests: reg.Counter("icjobs_grant_requests_total", "fleet allocation requests"),
		granted:       reg.Counter("icjobs_tasks_granted_total", "tasks granted across all jobs"),
		reports:       reg.Counter("icjobs_reports_total", "job-scoped report batches accepted"),
		activeJobs:    reg.Gauge("icjobs_active", "jobs currently executing"),
		queuedJobs:    reg.Gauge("icjobs_queued", "jobs admitted but not yet active"),
		jobLatency: reg.Histogram("icjobs_job_latency_seconds",
			"submit-to-finish latency per job", jobLatencyBuckets),
	}
}

// Typed error values the HTTP layer (and in-process callers) map onto
// response codes.
var ErrUnknownJob = errors.New("jobs: unknown job")

// UnavailableError refuses requests on a draining or dead service.
type UnavailableError struct{ Reason string }

func (e UnavailableError) Error() string { return "jobs: unavailable: " + e.Reason }

// BackpressureError refuses a submission over the tenant's queue cap.
type BackpressureError struct{ Tenant string }

func (e BackpressureError) Error() string {
	return fmt.Sprintf("jobs: tenant %s over queue cap", e.Tenant)
}

// StaleEpochError rejects a report fenced against a recovered job; Epoch
// carries the job's current token so the client resyncs in place.
type StaleEpochError struct{ Epoch uint64 }

func (e StaleEpochError) Error() string {
	return fmt.Sprintf("jobs: stale epoch (current %d)", e.Epoch)
}

// New builds a memory-only job service.
func New(cfg Config) *Server {
	s := newServer(cfg, "")
	s.wg.Add(1)
	go s.admitter()
	return s
}

func newServer(cfg Config, dir string) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		dir:     dir,
		jobs:    make(map[string]*Job),
		tenants: make(map[string]*tenant),
		nextID:  1,
		admitCh: make(chan *Job, 4096),
		now:     cfg.Clock,
		reg:     obs.NewRegistry(),
	}
	s.start = s.now()
	s.m = newJobsMetrics(s.reg)
	return s
}

// Recover opens (or creates) a durable job service backed by dir.  An
// empty directory starts a fresh service; otherwise the manifest is
// replayed: finished jobs keep their terminal accounting, jobs that
// were active are rebuilt exactly from their own task journals (with a
// bumped epoch each), and jobs that were admitted but never activated
// re-enter the admission queue.
func Recover(dir string, cfg Config) (*Server, error) {
	events, valid, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s := newServer(cfg, dir)
	if s.man, err = openManifest(dir, valid); err != nil {
		return nil, err
	}
	var activated []*Job // activation-event order
	var queued []*Job    // submission order
	for _, ev := range events {
		switch ev.Event {
		case "submit":
			j := &Job{
				id: ev.Job,
				spec: Spec{Tenant: ev.Tenant, Weight: ev.Weight,
					Family: ev.Family, Size: ev.Size, Dag: ev.Dag},
				state:       StateQueued,
				submittedAt: time.Unix(0, ev.At),
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j)
			t := s.tenantFor(j.spec.Tenant, j.spec.Weight)
			t.queued++
			var n int
			if _, err := fmt.Sscanf(ev.Job, "j%d", &n); err == nil && n >= s.nextID {
				s.nextID = n + 1
			}
		case "activate":
			if j := s.jobs[ev.Job]; j != nil && j.state == StateQueued {
				j.activatedAt = time.Unix(0, ev.At)
				j.state = StateActive // provisional; srv attached below
				j.replay = ev.Replay  // journal format: cursor vs per-task grants
				j.tie = ev.TieBreak
				if j.tie == "" && j.spec.Family == "" {
					j.tie = heur.TieByID // written before the analyzer had two tie-breaks
				}
				activated = append(activated, j)
			}
		case "finish":
			j := s.jobs[ev.Job]
			if j == nil {
				continue
			}
			j.finishedAt = time.Unix(0, ev.At)
			j.nodes, j.completed, j.quarantined = ev.Nodes, ev.Completed, ev.Quarantined
			t := s.tenantFor(j.spec.Tenant, 0)
			t.queued--
			if ev.Error != "" {
				j.state = StateFailed
				j.errMsg = ev.Error
			} else {
				j.state = StateFinished
				t.completed++
			}
		}
	}
	// Rebuild every job that was active (activated, not finished) from
	// its spec + task journal; the epoch bump inside icserver.Recover
	// fences the dead incarnation's grants.
	for _, j := range activated {
		if j.state != StateActive {
			continue // finished or failed after activation
		}
		g, nonsinks, berr := buildJob(j.spec)
		if berr == nil {
			j.g, j.nonsinks = g, nonsinks
			j.order, berr = s.recoverOrder(j)
		}
		if berr != nil {
			return nil, fmt.Errorf("jobs: recover %s: %w", j.id, berr)
		}
		srv, serr := s.jobCore(j)
		if serr != nil {
			return nil, fmt.Errorf("jobs: recover %s: %w", j.id, serr)
		}
		j.srv = srv
		t := s.tenantFor(j.spec.Tenant, 0)
		t.queued--
		t.active = append(t.active, j)
	}
	for _, j := range s.order {
		if j.state == StateQueued {
			queued = append(queued, j)
		}
	}
	s.syncGaugesLocked()
	s.wg.Add(1)
	go s.admitter()
	// The admitter is running, so a backlog longer than the queue (one
	// more job was in its hands at the crash) waits only for it to dequeue.
	for _, j := range queued {
		s.admitCh <- j
	}
	return s, nil
}

// jobCore builds the per-job task server: memory-only under New,
// journal-backed (fresh or replayed) under Recover.
func (s *Server) jobCore(j *Job) (*icserver.Server, error) {
	var policy heur.Policy
	if j.replay {
		policy = schedcache.Replay("IC-CACHED", j.order)
	} else {
		policy = heur.Static("IC-OPTIMAL", j.order)
	}
	var opts []icserver.Option
	if s.cfg.Lease > 0 {
		opts = append(opts, icserver.WithLease(s.cfg.Lease))
	}
	if s.cfg.MaxAttempts > 0 {
		opts = append(opts, icserver.WithMaxAttempts(s.cfg.MaxAttempts))
	}
	if s.cfg.Clock != nil {
		opts = append(opts, icserver.WithClock(s.cfg.Clock))
	}
	if s.dir == "" {
		return icserver.New(j.g, policy, opts...), nil
	}
	return icserver.Recover(filepath.Join(s.dir, "job-"+j.id), j.g, policy, s.cfg.Wal, opts...)
}

// Metrics returns the service's registry (GET /metrics serves it).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// CacheStats snapshots the schedule cache's counters.
func (s *Server) CacheStats() schedcache.Stats { return s.cfg.Cache.Stats() }

// admitter builds, analyzes and activates each queued job in turn, off
// the grant path: the fleet's handler goroutines execute active jobs
// meanwhile.  The schedule cache turns the analysis into a
// canonical-hash lookup for repeated shapes.
func (s *Server) admitter() {
	defer s.wg.Done()
	for j := range s.admitCh {
		s.mu.Lock()
		j.state = StateBuilding
		s.mu.Unlock()
		var res schedcache.Result
		var err error
		if j.g, j.nonsinks, err = buildJob(j.spec); err == nil {
			res, err = s.lookupOrder(j)
		}
		s.activating.Lock()
		s.activate(j, res, err)
		s.activating.Unlock()
	}
}

// activate admits one analyzed job, or fails it with err from its build
// or analysis.  Its task server is built off s.mu — on a durable service
// that is a directory, a segment, a fence record and an fsync — so
// grants and reports for the other jobs go on meanwhile; the service's
// state is rechecked under the lock afterwards.
func (s *Server) activate(j *Job, res schedcache.Result, err error) {
	s.mu.Lock()
	if s.dropActivationLocked() {
		s.mu.Unlock()
		return
	}
	if err != nil {
		s.failJobLocked(j, err)
		s.mu.Unlock()
		return
	}
	j.order, j.tie, j.cacheHit = res.Order, tieOf(res.Provenance), res.Hit
	// Replay requires an exact-labeling entry: identity translation means
	// the cached order is byte-for-byte what analyzeJob(g) re-derives, so
	// a recovered incarnation folds the cursor journal against the very
	// same order.
	j.replay = res.Exact
	s.mu.Unlock()

	srv, err := s.jobCore(j)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropActivationLocked() {
		if srv != nil {
			srv.Kill()
		}
		return
	}
	if err != nil {
		s.failJobLocked(j, err)
		return
	}
	j.srv = srv
	j.state = StateActive
	j.activatedAt = s.now()
	// No request waits on the admitter: a failed write only wounds
	// the service (s.manErr), which refuses every later request.
	_ = s.journalLocked(manifestEvent{Event: "activate", At: j.activatedAt.UnixNano(),
		Job: j.id, Replay: j.replay, TieBreak: j.tie})
	t := s.tenantFor(j.spec.Tenant, j.spec.Weight)
	if len(t.active) == 0 {
		// A tenant rejoining after idling must not cash in the pass it
		// never advanced: it re-enters at the current fair front.
		if min, ok := s.minActivePassLocked(); ok && min > t.pass {
			t.pass = min
		}
	}
	t.active = append(t.active, j)
	t.queued--
	s.syncGaugesLocked()
}

// dropActivationLocked reports whether the admitter must drop a job
// (caller holds s.mu): it stays out of memory, and the manifest still
// holds its submission, so a future Recover re-admits it.
func (s *Server) dropActivationLocked() bool {
	return s.killed || s.draining || s.manErr != nil
}

// failJobLocked marks a job rejected by build/analysis (caller holds
// s.mu).  Like activation it answers no request, so a failed manifest
// write only wounds the service.
func (s *Server) failJobLocked(j *Job, err error) {
	j.state = StateFailed
	j.errMsg = err.Error()
	j.finishedAt = s.now()
	t := s.tenantFor(j.spec.Tenant, 0)
	t.queued--
	_ = s.journalLocked(manifestEvent{Event: "finish", At: j.finishedAt.UnixNano(),
		Job: j.id, Error: j.errMsg})
	s.m.failed.Inc()
	s.syncGaugesLocked()
}

// refuseLocked is the availability check every request makes first
// (caller holds s.mu).  A killed service refuses everything, and so does
// one whose manifest failed a write: its job states may then be ahead of
// the manifest.  Draining refuses only submissions and grants.
func (s *Server) refuseLocked(grants bool) error {
	switch {
	case s.killed:
		return UnavailableError{icserver.ReasonKilled}
	case s.manErr != nil:
		return UnavailableError{icserver.ReasonJournalFailed}
	case grants && s.draining:
		return UnavailableError{icserver.ReasonDraining}
	}
	return nil
}

// journalLocked appends one lifecycle event to the manifest (caller holds
// s.mu).  The first failed write wounds the service, as a failed journal
// batch wounds an icserver: the request that needed the event and every
// later one get the typed 503 journal-failed, and nothing is appended
// after the failure, so the manifest stays a valid prefix that Recover
// resumes from.
func (s *Server) journalLocked(ev manifestEvent) error {
	if s.manErr == nil {
		s.manErr = s.man.append(ev)
	}
	if s.manErr != nil {
		return UnavailableError{icserver.ReasonJournalFailed}
	}
	return nil
}

// tenantFor returns (creating if needed) the tenant record; a positive
// weight updates the fair share.
func (s *Server) tenantFor(name string, weight int) *tenant {
	t := s.tenants[name]
	if t == nil {
		t = &tenant{name: name, weight: 1}
		s.tenants[name] = t
	}
	if weight > 0 {
		t.weight = weight
	}
	return t
}

// minActivePassLocked returns the minimum pass among tenants with active
// jobs (caller holds s.mu).
func (s *Server) minActivePassLocked() (float64, bool) {
	min, ok := 0.0, false
	for _, t := range s.tenants {
		if len(t.active) == 0 {
			continue
		}
		if !ok || t.pass < min {
			min, ok = t.pass, true
		}
	}
	return min, ok
}

// Submit admits one job: validated, journaled durably (submit event
// fsynced before the ack), and queued for the admitter.  The returned
// JobStatus carries the assigned job ID.
func (s *Server) Submit(sp Spec) (JobStatus, error) {
	if sp.Tenant == "" {
		return JobStatus{}, fmt.Errorf("jobs: submission without a tenant")
	}
	if (sp.Family == "") == (len(sp.Dag) == 0) {
		return JobStatus{}, fmt.Errorf("jobs: submission needs exactly one of family or dag")
	}
	if sp.Weight < 0 {
		return JobStatus{}, fmt.Errorf("jobs: negative weight %d", sp.Weight)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseLocked(true); err != nil {
		return JobStatus{}, err
	}
	t := s.tenantFor(sp.Tenant, sp.Weight)
	// Only the admitter drains admitCh while s.mu is held, so room seen
	// here is still there at the send below: a refusal journals nothing.
	if t.queued+len(t.active) >= s.cfg.MaxQueued || len(s.admitCh) == cap(s.admitCh) {
		s.m.backpressure.Inc()
		return JobStatus{}, BackpressureError{sp.Tenant}
	}
	j := &Job{
		id:          fmt.Sprintf("j%d", s.nextID),
		spec:        sp,
		state:       StateQueued,
		submittedAt: s.now(),
	}
	s.nextID++
	if err := s.journalLocked(manifestEvent{Event: "submit", At: j.submittedAt.UnixNano(),
		Job: j.id, Tenant: sp.Tenant, Weight: sp.Weight,
		Family: sp.Family, Size: sp.Size, Dag: sp.Dag}); err != nil {
		return JobStatus{}, err
	}
	s.admitCh <- j
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	t.queued++
	s.m.submitted.Inc()
	s.syncGaugesLocked()
	return s.jobStatusLocked(j), nil
}

// Allocate grants up to k tasks of ONE job, the one the weighted-fair
// policy picks (so a worker's batch — compute then report — stays
// job-scoped), stamped with that job's epoch — the in-process form of
// POST /tasks.  An empty Tasks slice means nothing is allocatable
// anywhere right now.
func (s *Server) Allocate(k int) (icserver.Grant, error) {
	if k < 1 {
		return icserver.Grant{}, fmt.Errorf("jobs: batch size %d < 1", k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseLocked(true); err != nil {
		return icserver.Grant{}, err
	}
	s.m.grantRequests.Inc()
	return s.pickLocked(k)
}

// pickLocked implements stride scheduling across tenants (caller holds
// s.mu): the tenant with the minimum pass (ties by name) that has
// allocatable work wins, and its pass advances by granted/weight.  Jobs
// within a tenant are drained in activation order; a job discovered
// terminal during the scan is finalized on the spot, and a failed write
// of its finish event ends the scan with nothing granted.
func (s *Server) pickLocked(k int) (icserver.Grant, error) {
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if len(t.active) > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Slice(tenants, func(i, j int) bool {
		if tenants[i].pass != tenants[j].pass {
			return tenants[i].pass < tenants[j].pass
		}
		return tenants[i].name < tenants[j].name
	})
	for _, t := range tenants {
		jobs := append([]*Job(nil), t.active...)
		for _, j := range jobs {
			if j.state != StateActive {
				continue // finalized earlier in this same scan
			}
			batch, st := j.srv.AllocateBatch(k)
			if st == icserver.AllocFinished {
				if err := s.finalizeJobLocked(j); err != nil {
					return icserver.Grant{}, err
				}
				continue
			}
			if len(batch) == 0 {
				continue
			}
			t.pass += float64(len(batch)) / float64(t.weight)
			t.granted += len(batch)
			s.m.granted.Add(float64(len(batch)))
			return icserver.Grant{Job: j.id, Epoch: j.srv.Epoch(), Tasks: batch, Names: icserver.GrantNames(j.g, batch)}, nil
		}
	}
	return icserver.Grant{Tasks: []dag.NodeID{}}, nil
}

// finalizeJobLocked retires a terminal job: terminal accounting frozen,
// tenant bookkeeping advanced, finish journaled, and the job's own task
// server killed (caller holds s.mu).  The error is the finish event's
// failed write; the job is retired in memory regardless, and the service
// is wounded.  Recover then finds the job active and rebuilds it from its
// task journal, which, like every live job's, may have lost at most its
// unsynced tail (wal.Options.SyncEvery); it retires the job again once
// those tasks are redone.
func (s *Server) finalizeJobLocked(j *Job) error {
	st := j.srv.Status()
	j.nodes, j.completed, j.quarantined, j.epoch = st.Total, st.Completed, st.Quarantined, st.Epoch
	j.state = StateFinished
	j.finishedAt = s.now()
	t := s.tenantFor(j.spec.Tenant, 0)
	for i, a := range t.active {
		if a == j {
			t.active = append(t.active[:i], t.active[i+1:]...)
			break
		}
	}
	t.completed++
	err := s.journalLocked(manifestEvent{Event: "finish", At: j.finishedAt.UnixNano(),
		Job: j.id, Nodes: j.nodes, Completed: j.completed, Quarantined: j.quarantined})
	s.m.finished.Inc()
	s.m.jobLatency.Observe(j.finishedAt.Sub(j.submittedAt).Seconds())
	// Recover never reads a finished job's journal once the (fsynced)
	// finish event is in the manifest, so it is closed without a flush.
	j.srv.Kill()
	s.syncGaugesLocked()
	return err
}

// Report acks a job-scoped batch of completions and hand-backs and,
// when k > 0, piggybacks the next weighted-fair grant under the same
// lock acquisition — the in-process form of POST /report.  A nonzero
// epoch that does not match the job's current incarnation is rejected
// with StaleEpochError (carrying the current epoch, so the client
// resyncs without another round trip).  Reports to an already-finished
// job are absorbed as idempotent duplicates — the retried-report-
// across-recovery case.  The reply says whether the acked job reached
// its terminal state, and carries the next grant, possibly another
// job's.
func (s *Server) Report(jobID string, done, failed []dag.NodeID, epoch uint64, k int) (icserver.ReportReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseLocked(false); err != nil {
		return icserver.ReportReply{}, err
	}
	j, ok := s.jobs[jobID]
	if !ok {
		return icserver.ReportReply{}, fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
	}
	var res icserver.ReportReply
	switch j.state {
	case StateFinished:
		res.BatchReport = icserver.BatchReport{Duplicates: len(done)}
		res.JobFinished = true
	case StateActive:
		if epoch != 0 && epoch != j.srv.Epoch() {
			return icserver.ReportReply{}, StaleEpochError{j.srv.Epoch()}
		}
		rep, err := j.srv.Report(done, failed)
		if err != nil {
			return icserver.ReportReply{}, err
		}
		res.BatchReport = rep
		if j.srv.Finished() {
			if err := s.finalizeJobLocked(j); err != nil {
				return icserver.ReportReply{}, err
			}
			res.JobFinished = true
		}
	default:
		return icserver.ReportReply{}, fmt.Errorf("jobs: job %s is %s, not reportable", jobID, j.state)
	}
	s.m.reports.Inc()
	if k > 0 && !s.draining {
		g, err := s.pickLocked(k)
		if err != nil {
			return icserver.ReportReply{}, err
		}
		res.Job, res.Epoch, res.Tasks, res.Names = g.Job, g.Epoch, g.Tasks, g.Names
	}
	return res, nil
}

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	Job    string `json:"job"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Family string `json:"family,omitempty"`
	Size   int    `json:"size,omitempty"`
	// Nodes/Completed/Quarantined/Epoch are live for active jobs, frozen
	// at finish for terminal ones (Epoch 0 for jobs that finished before
	// a recovery — their task journals are gone).
	Nodes       int    `json:"nodes,omitempty"`
	Completed   int    `json:"completed,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	// CacheHit: analysis came from the schedule cache.  Replay: the job
	// executes in steady-state replay mode (cursor-journaled cached
	// order).  TieBreak: a raw job's MAX-NEW-ELIGIBLE tie-break, "id" or
	// "offer".
	CacheHit bool   `json:"cacheHit,omitempty"`
	Replay   bool   `json:"replay,omitempty"`
	TieBreak string `json:"tieBreak,omitempty"`

	SubmittedMillis int64   `json:"submittedMillis"`
	FinishedMillis  int64   `json:"finishedMillis,omitempty"`
	LatencyMillis   float64 `json:"latencyMillis,omitempty"`
	Error           string  `json:"error,omitempty"`
}

func (s *Server) jobStatusLocked(j *Job) JobStatus {
	st := JobStatus{
		Job: j.id, Tenant: j.spec.Tenant, State: j.state,
		Family: j.spec.Family, Size: j.spec.Size,
		CacheHit: j.cacheHit, Replay: j.replay, TieBreak: string(j.tie),
		SubmittedMillis: j.submittedAt.UnixMilli(),
		Error:           j.errMsg,
	}
	switch j.state {
	case StateActive:
		live := j.srv.Status()
		st.Nodes, st.Completed, st.Quarantined, st.Epoch =
			live.Total, live.Completed, live.Quarantined, live.Epoch
	case StateFinished:
		st.Nodes, st.Completed, st.Quarantined, st.Epoch =
			j.nodes, j.completed, j.quarantined, j.epoch
		st.FinishedMillis = j.finishedAt.UnixMilli()
		st.LatencyMillis = float64(j.finishedAt.Sub(j.submittedAt).Microseconds()) / 1000
	case StateFailed:
		st.FinishedMillis = j.finishedAt.UnixMilli()
	}
	return st
}

// Jobs lists every registered job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, j := range s.order {
		out[i] = s.jobStatusLocked(j)
	}
	return out
}

// JobByID returns one job's status.
func (s *Server) JobByID(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.jobStatusLocked(j), true
}

// TenantStatus is the fair-share view of one tenant.
type TenantStatus struct {
	Tenant        string  `json:"tenant"`
	Weight        int     `json:"weight"`
	ActiveJobs    int     `json:"activeJobs"`
	QueuedJobs    int     `json:"queuedJobs"`
	CompletedJobs int     `json:"completedJobs"`
	GrantedTasks  int     `json:"grantedTasks"`
	Pass          float64 `json:"pass"`
}

// Status is the service-level snapshot (GET /status).
type Status struct {
	Queued   int  `json:"queued"`
	Building int  `json:"building"`
	Active   int  `json:"active"`
	Finished int  `json:"finished"`
	Failed   int  `json:"failed"`
	Draining bool `json:"draining"`
	// Tenants is sorted by name.
	Tenants []TenantStatus `json:"tenants"`
}

// ServiceStatus snapshots the whole service.
func (s *Server) ServiceStatus() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{Draining: s.draining}
	for _, j := range s.order {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateBuilding:
			st.Building++
		case StateActive:
			st.Active++
		case StateFinished:
			st.Finished++
		case StateFailed:
			st.Failed++
		}
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tenants[name]
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant: t.name, Weight: t.weight,
			ActiveJobs: len(t.active), QueuedJobs: t.queued,
			CompletedJobs: t.completed, GrantedTasks: t.granted,
			Pass: t.pass,
		})
	}
	return st
}

// syncGaugesLocked refreshes the queue/active gauges (caller holds
// s.mu).
func (s *Server) syncGaugesLocked() {
	active, queued := 0, 0
	for _, t := range s.tenants {
		active += len(t.active)
		queued += t.queued
	}
	s.m.activeJobs.Set(float64(active))
	s.m.queuedJobs.Set(float64(queued))
}

// Close drains the service gracefully: no new submissions or grants,
// the admitter stops (jobs not yet active stay journaled for a future
// Recover), every active job's journal is flushed and closed,
// and the manifest is closed.  Idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return UnavailableError{icserver.ReasonKilled}
	}
	s.draining = true
	if !s.chClosed {
		s.chClosed = true
		close(s.admitCh)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	var active []*Job
	for _, t := range s.tenants {
		active = append(active, t.active...)
	}
	man := s.man
	s.mu.Unlock()
	var err error
	for _, j := range active {
		if serr := j.srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	if cerr := man.close(); err == nil {
		err = cerr
	}
	return err
}

// Kill terminates the service abruptly — the in-process SIGKILL
// stand-in: every active job's journal is severed without a final
// flush, the manifest likewise, and every subsequent request is
// refused.  A successor rebuilds the whole multi-job state with
// Recover.
func (s *Server) Kill() {
	s.activating.Lock()
	defer s.activating.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return
	}
	s.killed = true
	if !s.chClosed {
		s.chClosed = true
		close(s.admitCh)
	}
	for _, t := range s.tenants {
		for _, j := range t.active {
			j.srv.Kill()
		}
	}
	s.man.kill()
}
