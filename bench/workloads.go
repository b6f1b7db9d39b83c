package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/dagio"
	"icsched/internal/exec"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/jobs"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/relaxed"
	"icsched/internal/sched"
	"icsched/internal/schedcache"
	"icsched/internal/wal"
)

// The load shape shared by the HTTP workloads: a closed loop of fleetSize
// clients in this process.  The fleet size is fixed rather than derived
// from the machine so that numbers compare across machines.
const (
	fleetSize   = 2
	grantCap    = 16 // tasks per grant, wave_http* and fly_inproc
	jobGrantCap = 8  // tasks per grant, jobs_mix
	idleWait    = 100 * time.Microsecond
	idleWaitMax = time.Millisecond
	lease       = time.Minute // longer than any round: no task is ever reissued
	zipfS       = 1.3
)

// sizes holds every size constant.  The full sizes make one round (one
// drain of a fresh server) last 0.1–0.4 s on the reference box, so a
// 28-second run reduces 60–200 rounds: a round has to be short to fall
// between two of the host's interruptions (README.md, "Noise").
type sizes struct {
	waveSide      int   // wave_http: waveSide × waveSide wavefront
	walSide       int   // wave_http_wal
	recoverCycles int   // kill → Recover cycles after each wave_http_wal drain
	flyDim        int   // fly_inproc: butterfly dimension
	jobsPerRound  int   // jobs_mix: timed jobs per round
	jobsInFlight  int   // jobs_mix: submitter's window
	wavefronts    []int // jobs_mix catalog
	butterflies   []int
	prefixes      []int
	prepareReps   int // how often the one-off preparation is repeated for setup_s
}

var fullSizes = sizes{
	waveSide: 160, walSide: 112, recoverCycles: 5, flyDim: 11,
	jobsPerRound: 48, jobsInFlight: 8,
	wavefronts: []int{8, 12, 16, 20, 24}, butterflies: []int{3, 4, 5}, prefixes: []int{32, 64, 128, 256},
	prepareReps: 25,
}

// smokeSizes keep all four workloads under a few seconds in total; the
// package test runs them.
var smokeSizes = sizes{
	waveSide: 40, walSide: 32, recoverCycles: 2, flyDim: 6,
	jobsPerRound: 24, jobsInFlight: 8,
	wavefronts: []int{6, 8}, butterflies: []int{3}, prefixes: []int{16, 32},
	prepareReps: 1,
}

// config is what a workload's preparation receives.
type config struct {
	sz     sizes
	seed   int64
	tmpDir string // journals live in fresh subdirectories of it
}

// roundResult is what one round (a fresh server and fleet, one timed
// drain, one verification) measured.
type roundResult struct {
	construct time.Duration // building the server and the fleet; part of setup_s
	wall      time.Duration // the timed drain
	tasks     int
	jobs      int
	grantsUS  []float64 // one exact sample per report-and-grant exchange
	jobLatMS  []float64 // one per job: submit → finished
	eligible  float64   // mean realized |ELIGIBLE| ÷ mean of the reference schedule's
	attempted int       // requests, direct calls and submissions
	failed    int       // refused or errored requests, retries, resyncs, reissues, quarantines
	// digest fingerprints the round's inputs (jobs_mix: the payload hash
	// list), so a test can assert that a seed reproduces them.
	digest uint64
	layers map[string]float64 // per-layer metrics; complete only in a traced round
	spans  []span
}

// scenario is a prepared workload: everything that does not depend on
// the round is built once in its constructor.
type scenario interface {
	// round builds a fresh server and fleet, drains it once and checks
	// every output.  r numbers the round; tr is nil for an untraced round.
	round(ctx context.Context, r int, tr *tracer) (roundResult, error)
	// probes times single layers by direct calls on the workload's own
	// dag (traced runs only).
	probes(m map[string]float64) error
}

type workload struct {
	name    string
	why     string
	prepare func(cfg config) (scenario, error)
}

var workloads = []workload{
	{"wave_http", "wavefront on an in-memory server over HTTP: client JSON, net/http and the handler do the work, the journal none",
		func(cfg config) (scenario, error) { return newWave(cfg, cfg.sz.waveSide, false) }},
	{"wave_http_wal", "same wavefront on a journaled server, then kill-and-recover cycles: internal/wal does the work, appends beside replays",
		func(cfg config) (scenario, error) { return newWave(cfg, cfg.sz.walSide, true) }},
	{"fly_inproc", "butterfly on direct ReportAllocate calls from one goroutine, no HTTP and no journal: the grant core alone on a frontier thousands wide",
		newFly},
	{"jobs_mix", "raw-payload jobs over HTTP on the durable job service, 3 in 4 cache hits beside 1 in 4 misses: dagio, schedcache, analyzer, manifest",
		newJobsMix},
}

// fnvNode hashes v with its parents' values (FNV-1a): any execution that
// respects the dependencies computes the same value for every node, and
// any that does not computes a different one.
func fnvNode(g *dag.Dag, v dag.NodeID, val func(dag.NodeID) uint64) uint64 {
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
		mix(val(p))
	}
	return h
}

// dagCase is one dag with what is needed to check an execution of it.
type dagCase struct {
	g        *dag.Dag
	order    []dag.NodeID // the allocation order the server is given (or derives)
	ref      []uint64     // reference values from serial exec.Run
	refMean  float64      // mean |ELIGIBLE| over order's profile
	serialNS float64      // wall time of the serial reference run
}

func newDagCase(g *dag.Dag, order []dag.NodeID) (*dagCase, error) {
	c := &dagCase{g: g, order: order, ref: make([]uint64, g.NumNodes())}
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := exec.Run(g, rank, 1, func(v dag.NodeID) error {
		c.ref[v] = fnvNode(g, v, func(p dag.NodeID) uint64 { return c.ref[p] })
		return nil
	}); err != nil {
		return nil, err
	}
	c.serialNS = float64(time.Since(start))
	prof, err := sched.Profile(g, order)
	if err != nil {
		return nil, err
	}
	c.refMean = sched.Mean(prof)
	return c, nil
}

// execution records one fleet execution of a dagCase: the values, and
// the order in which tasks were computed.
type execution struct {
	c        *dagCase
	vals     []atomic.Uint64
	realized []dag.NodeID
	next     atomic.Int64
}

func newExecution(c *dagCase) *execution {
	n := c.g.NumNodes()
	return &execution{c: c, vals: make([]atomic.Uint64, n), realized: make([]dag.NodeID, n)}
}

// compute is the task function: hash, store, and note the position with
// one atomic counter.
func (e *execution) compute(v dag.NodeID) {
	e.vals[v].Store(fnvNode(e.c.g, v, func(p dag.NodeID) uint64 { return e.vals[p].Load() }))
	if i := e.next.Add(1) - 1; int(i) < len(e.realized) {
		e.realized[i] = v
	}
}

// verify checks the values bit for bit and the realized order under
// sched.Profile, and returns the eligibility ratio.
func (e *execution) verify() (float64, error) {
	if n := e.next.Load(); int(n) != len(e.realized) {
		return 0, fmt.Errorf("%d task executions for %d tasks", n, len(e.realized))
	}
	for v := range e.vals {
		if got := e.vals[v].Load(); got != e.c.ref[v] {
			return 0, fmt.Errorf("node %d computed %#x, want %#x (serial exec.Run reference)", v, got, e.c.ref[v])
		}
	}
	prof, err := sched.Profile(e.c.g, e.realized)
	if err != nil {
		return 0, fmt.Errorf("realized order is not a legal schedule: %w", err)
	}
	return sched.Mean(prof) / e.c.refMean, nil
}

// probeDag times heur, sched, relaxed and exec alone on c.
func probeDag(c *dagCase, m map[string]float64) error {
	n := float64(c.g.NumNodes())
	start := time.Now()
	if _, err := heur.RunOrder(c.g, heur.Static("IC-OPTIMAL", c.order)); err != nil {
		return err
	}
	m["heur.static_ns_per_task"] = float64(time.Since(start)) / n

	start = time.Now()
	if _, err := sched.Profile(c.g, c.order); err != nil {
		return err
	}
	m["sched.profile_ns_per_node"] = float64(time.Since(start)) / n

	start = time.Now()
	core := relaxed.New(c.g, c.order, 1, 1)
	st := sched.NewState(c.g)
	core.PushAll(st.Eligible())
	var packet []dag.NodeID
	for !st.Done() {
		v, ok := core.Pop()
		if !ok {
			return errors.New("relaxed core ran dry before the dag was done")
		}
		var err error
		if packet, err = st.ExecuteInto(v, packet[:0]); err != nil {
			return err
		}
		core.PushAll(packet)
	}
	m["relaxed.push_pop_ns_per_task"] = float64(time.Since(start)) / n
	m["exec.serial_tasks_per_s"] = n / (c.serialNS / 1e9)
	return nil
}

// newTransport is the fleet's pooled transport: one connection per
// client stays open for the whole round.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 2 * fleetSize, MaxIdleConnsPerHost: 2 * fleetSize}
}

// clientSeed derives a client's jitter seed from the run seed.
func clientSeed(seed int64, round, client int) int64 {
	return seed*1_000_003 + int64(round)*101 + int64(client) + 1
}

// fleetLayers adds what the probes counted to a round's layer metrics.
func fleetLayers(m map[string]float64, probes []*clientProbe, tasks int) {
	var sent, received int64
	requests := 0
	for _, p := range probes {
		sent += p.sent
		received += p.received
		requests += len(p.exchanges)
	}
	m["client.bytes_sent"] = float64(sent)
	m["client.bytes_received"] = float64(received)
	if requests > 0 {
		m["client.tasks_per_request"] = float64(tasks) / float64(requests)
	}
}

// serverLayers adds what one icserver.Server counted itself.  Its
// histograms give Sum ÷ Count, an exact mean; their bucket quantiles
// would be interpolation and are never read.
func serverLayers(m map[string]float64, srv *icserver.Server, st icserver.Status) {
	m["icserver.stalls"] = float64(st.Stalls)
	m["icserver.reissues"] = float64(st.Reissues)
	reg := srv.Metrics()
	if h := reg.Histogram("icserver_lock_hold_seconds", "", nil); h.Count() > 0 {
		m["icserver.lock_hold_mean_us"] = 1e6 * h.Sum() / float64(h.Count())
	}
	if h := reg.Histogram("icserver_grants_per_request", "", nil); h.Count() > 0 {
		m["icserver.grants_per_request"] = h.Sum() / float64(h.Count())
	}
}

// walLayers adds the journal's append counts since the given base, after
// analyze has counted the fsync spans.
func walLayers(m map[string]float64, tr *tracer, baseRecords, baseBytes int64) {
	m["wal.records"] = float64(tr.walRecords.Load() - baseRecords)
	m["wal.bytes_appended"] = float64(tr.walBytes.Load() - baseBytes)
	if n := m["wal.fsyncs"]; n > 0 {
		m["wal.records_per_fsync"] = m["wal.records"] / n
	}
}

// wave is wave_http and wave_http_wal: a side × side wavefront in its
// diagonal IC-optimal order, drained over HTTP by batched clients.
type wave struct {
	cfg     config
	c       *dagCase
	policy  heur.Policy
	durable bool
}

func newWave(cfg config, side int, durable bool) (scenario, error) {
	g := mesh.Grid(side, side)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(side, side))
	c, err := newDagCase(g, order)
	if err != nil {
		return nil, err
	}
	return &wave{cfg: cfg, c: c, policy: heur.Static("IC-OPTIMAL", order), durable: durable}, nil
}

func (w *wave) probes(m map[string]float64) error { return probeDag(w.c, m) }

func (w *wave) round(ctx context.Context, r int, tr *tracer) (roundResult, error) {
	res := roundResult{tasks: w.c.g.NumNodes(), jobs: 1, layers: map[string]float64{}}
	built := time.Now()
	var srv *icserver.Server
	var dir string
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(w.cfg.tmpDir, "wal-*"); err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		var wopts wal.Options // the defaults: group commit every 64 records / 5 ms, snapshot every 4096
		if tr != nil {
			wopts.FsyncObserver, wopts.AppendObserver = tr.fsyncObserver, tr.appendObserver
		}
		if srv, err = icserver.Recover(dir, w.c.g, w.policy, wopts, icserver.WithLease(lease)); err != nil {
			return res, err
		}
	} else {
		srv = icserver.New(w.c.g, w.policy, icserver.WithLease(lease))
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tr.handler(handler)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	transport := newTransport()
	defer transport.CloseIdleConnections()
	run := newExecution(w.c)
	probes := make([]*clientProbe, fleetSize)
	clients := make([]*icserver.Client, fleetSize)
	for c := range clients {
		p := &clientProbe{actor: c, name: spanRTT, next: transport, tr: tr}
		probes[c] = p
		clients[c] = &icserver.Client{
			BaseURL: ts.URL,
			HTTP:    &http.Client{Transport: p},
			Compute: func(v dag.NodeID, _ string) error {
				p.compute(func() { run.compute(v) })
				return nil
			},
			Batch: grantCap, IdleWait: idleWait, IdleWaitMax: idleWaitMax,
			ID:   fmt.Sprintf("bench-%d", c),
			Seed: clientSeed(w.cfg.seed, r, c),
		}
	}
	res.construct = time.Since(built)

	stats := make([]icserver.Stats, fleetSize)
	errs := make([]error, fleetSize)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[c], errs[c] = clients[c].Run(ctx)
			probes[c].flushCompute()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)

	for c, err := range errs {
		if err != nil {
			return res, fmt.Errorf("client %d: %w", c, err)
		}
	}
	st := srv.Status()
	if !srv.Finished() || st.Completed != res.tasks {
		return res, fmt.Errorf("server finished=%v with %d of %d tasks completed", srv.Finished(), st.Completed, res.tasks)
	}
	var err error
	if res.eligible, err = run.verify(); err != nil {
		return res, err
	}
	res.grantsUS, res.attempted = grantsSince(probes, start)
	res.jobLatMS = []float64{float64(res.wall) / 1e6}
	res.failed = st.Reissues + st.Quarantined + st.StaleReports
	for c, s := range stats {
		res.failed += probes[c].refused + s.Retries + s.Resyncs + s.Failed
		res.layers["client.idle_polls"] += float64(s.IdlePolls)
		res.layers["client.retries"] += float64(s.Retries)
		res.layers["client.resyncs"] += float64(s.Resyncs)
	}
	serverLayers(res.layers, srv, st)
	fleetLayers(res.layers, probes, res.tasks)
	if tr != nil {
		res.spans = tr.snapshot()
		analyze(res.spans, fleetSize, start, res.wall, res.layers)
		walLayers(res.layers, tr, 0, 0)
	}
	if !w.durable {
		return res, nil
	}

	// The same layer the other way: the journal just written is replayed.
	// Each cycle must find every task completed behind a bumped epoch.
	srv.Kill()
	var recoverMS []float64
	for cycle := 1; cycle <= w.cfg.sz.recoverCycles; cycle++ {
		began := time.Now()
		next, err := icserver.Recover(dir, w.c.g, w.policy, wal.Options{}, icserver.WithLease(lease))
		if err != nil {
			return res, fmt.Errorf("recovery cycle %d: %w", cycle, err)
		}
		recoverMS = append(recoverMS, float64(time.Since(began))/1e6)
		st := next.Status()
		next.Kill()
		if st.Completed != res.tasks || st.Epoch != uint64(cycle+1) {
			return res, fmt.Errorf("recovery cycle %d: %d of %d tasks completed at epoch %d, want epoch %d",
				cycle, st.Completed, res.tasks, st.Epoch, cycle+1)
		}
	}
	res.layers["wal.recover_ms"] = median(recoverMS)
	return res, nil
}

// fly is fly_inproc: a butterfly network drained by one goroutine that
// calls ReportAllocate directly on the default (locked) grant path.  One
// caller, not two: with two, the server's mutex alternates between fair
// hand-off and barging, the call time is bimodal (about one lock hold or
// two), and its median flips between the modes from run to run.
type fly struct {
	cfg    config
	c      *dagCase
	policy heur.Policy
}

func newFly(cfg config) (scenario, error) {
	d := cfg.sz.flyDim
	g := butterfly.Network(d)
	order := sched.Complete(g, butterfly.Nonsinks(d))
	c, err := newDagCase(g, order)
	if err != nil {
		return nil, err
	}
	return &fly{cfg: cfg, c: c, policy: heur.Static("IC-OPTIMAL", order)}, nil
}

func (f *fly) probes(m map[string]float64) error { return probeDag(f.c, m) }

func (f *fly) round(ctx context.Context, r int, tr *tracer) (roundResult, error) {
	res := roundResult{tasks: f.c.g.NumNodes(), jobs: 1, layers: map[string]float64{}}
	built := time.Now()
	srv := icserver.New(f.c.g, f.policy, icserver.WithLease(lease))
	run := newExecution(f.c)
	res.construct = time.Since(built)

	p := &clientProbe{actor: 0, tr: tr}
	var done []dag.NodeID
	start := time.Now()
	for {
		p.flushCompute()
		began := time.Now()
		_, batch, state, err := srv.ReportAllocate(done, nil, grantCap)
		ended := time.Now()
		if err != nil {
			return res, err
		}
		res.attempted++
		if len(done) > 0 {
			res.grantsUS = append(res.grantsUS, float64(ended.Sub(began))/1e3)
		}
		if tr != nil {
			id := tr.ids.Add(1)
			tr.add(spanCoreCall, id, 0, id, p.actor, began, ended)
		}
		if state == icserver.AllocFinished {
			break
		}
		// The only worker has just reported everything it held, so an
		// unfinished server with nothing to grant is stuck.
		if len(batch) == 0 {
			return res, errors.New("server granted nothing to the only worker before it finished")
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		for _, v := range batch {
			p.compute(func() { run.compute(v) })
		}
		done = batch
	}
	res.wall = time.Since(start)

	st := srv.Status()
	if !srv.Finished() || st.Completed != res.tasks {
		return res, fmt.Errorf("server finished=%v with %d of %d tasks completed", srv.Finished(), st.Completed, res.tasks)
	}
	var err error
	if res.eligible, err = run.verify(); err != nil {
		return res, err
	}
	res.jobLatMS = []float64{float64(res.wall) / 1e6}
	res.failed = st.Reissues + st.Quarantined
	res.layers["client.tasks_per_request"] = float64(res.tasks) / float64(res.attempted)
	serverLayers(res.layers, srv, st)
	if tr != nil {
		res.spans = tr.snapshot()
		analyze(res.spans, 1, start, res.wall, res.layers)
	}
	return res, nil
}

// jobsMix is jobs_mix: raw dagio payloads through the durable job
// service.  Three of every four jobs are drawn Zipf(s=1.3) from a small
// catalog of family shapes and hit the schedule cache; every fourth is a
// fresh random layered dag that cannot.
type jobsMix struct {
	cfg     config
	catalog []*shape
	draws   []int   // catalog indices of one round's cache hits
	fresh   [][]int // layer widths of one round's fresh shapes
}

// shape is one dag as the job service receives it.
type shape struct {
	c       *dagCase
	payload json.RawMessage
	hash    uint64 // FNV-1a of the payload, for the input digest
}

// newShape analyzes g the way the service will (MAX-NEW-ELIGIBLE for a
// raw payload), so the eligibility ratio is taken against the schedule
// the service itself aims for.
func newShape(g *dag.Dag) (*shape, error) {
	order, err := heur.RunOrder(g, heur.MaxNewEligible())
	if err != nil {
		return nil, err
	}
	c, err := newDagCase(g, order)
	if err != nil {
		return nil, err
	}
	payload, err := dagio.MarshalJSON(g)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(payload)
	return &shape{c: c, payload: payload, hash: h.Sum64()}, nil
}

func newJobsMix(cfg config) (scenario, error) {
	var dags []*dag.Dag
	for _, s := range cfg.sz.wavefronts {
		dags = append(dags, mesh.Grid(s, s))
	}
	for _, d := range cfg.sz.butterflies {
		dags = append(dags, butterfly.Network(d))
	}
	for _, n := range cfg.sz.prefixes {
		dags = append(dags, prefix.Network(n))
	}
	j := &jobsMix{cfg: cfg}
	for _, g := range dags {
		s, err := newShape(g)
		if err != nil {
			return nil, err
		}
		j.catalog = append(j.catalog, s)
	}
	j.composition()
	return j, nil
}

// probes times the layers on the catalog's largest wavefront, and the
// two payload-side steps of a submission over the whole catalog.
func (j *jobsMix) probes(m map[string]float64) error {
	var unmarshalUS, canonUS []float64
	for _, s := range j.catalog {
		start := time.Now()
		g, err := dagio.UnmarshalJSON(s.payload)
		if err != nil {
			return err
		}
		unmarshalUS = append(unmarshalUS, float64(time.Since(start))/1e3)
		start = time.Now()
		schedcache.Canonicalize(g)
		canonUS = append(canonUS, float64(time.Since(start))/1e3)
	}
	m["dagio.unmarshal_us_mean"] = mean(unmarshalUS)
	m["schedcache.canonicalize_us_mean"] = mean(canonUS)
	return probeDag(j.catalog[len(j.cfg.sz.wavefronts)-1].c, m)
}

// compositionSeed fixes which shapes a round submits.  The run seed does
// not: it decides the order, and the arcs of the fresh shapes.
const compositionSeed = 20070326

// composition draws the shapes of one round: for three jobs in four a
// catalog index, Zipf-distributed, and for every fourth the layer widths
// of a fresh random dag.  Every round of every run submits this same
// multiset, so that rounds and seeds differ in what they measure by
// nothing but order and wiring.
func (j *jobsMix) composition() {
	rng := rand.New(rand.NewSource(compositionSeed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(j.catalog)-1))
	for i := 0; i < j.cfg.sz.jobsPerRound; i++ {
		if i%4 != 3 {
			j.draws = append(j.draws, int(zipf.Uint64()))
			continue
		}
		layers := make([]int, 6+rng.Intn(5))
		for l := range layers {
			layers[l] = 8 + rng.Intn(32)
		}
		j.fresh = append(j.fresh, layers)
	}
}

// sequence generates round r's timed submissions from the seed alone:
// the composition in a seeded order, every fourth job a fresh shape with
// seeded arcs.
func (j *jobsMix) sequence(r int) ([]*shape, error) {
	rng := rand.New(rand.NewSource(j.cfg.seed*1_000_003 + int64(r)))
	draws := append([]int(nil), j.draws...)
	fresh := append([][]int(nil), j.fresh...)
	rng.Shuffle(len(draws), func(a, b int) { draws[a], draws[b] = draws[b], draws[a] })
	rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	seq := make([]*shape, 0, len(draws)+len(fresh))
	for len(draws)+len(fresh) > 0 {
		if len(seq)%4 != 3 {
			seq = append(seq, j.catalog[draws[0]])
			draws = draws[1:]
			continue
		}
		s, err := newShape(dag.RandomLayered(rng, fresh[0], 3))
		if err != nil {
			return nil, err
		}
		seq = append(seq, s)
		fresh = fresh[1:]
	}
	return seq, nil
}

// liveJob is one submitted job as the fleet sees it.
type liveJob struct {
	run          *execution
	timed        bool
	submitted    time.Time
	firstCompute atomic.Int64 // ns after submitted; 0 until the first task runs
	remaining    atomic.Int64
}

// liveJobs maps job ids to their state.  A worker can be granted a
// job's tasks before the submitter has read the id off its reply, so
// lookups wait for the registration, or for the round to end.
type liveJobs struct {
	mu     sync.Mutex
	cond   *sync.Cond
	byID   map[string]*liveJob
	closed bool
}

func (l *liveJobs) register(id string, j *liveJob) {
	l.mu.Lock()
	l.byID[id] = j
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *liveJobs) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// wait returns nil once the round is over.
func (l *liveJobs) wait(id string) *liveJob {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.byID[id] == nil && !l.closed {
		l.cond.Wait()
	}
	return l.byID[id]
}

func (j *jobsMix) round(ctx context.Context, r int, tr *tracer) (roundResult, error) {
	res := roundResult{layers: map[string]float64{}}
	built := time.Now()
	seq, err := j.sequence(r)
	if err != nil {
		return res, err
	}
	digest := fnv.New64a()
	for _, s := range seq {
		fmt.Fprintf(digest, "%016x", s.hash)
		res.tasks += s.c.g.NumNodes()
	}
	res.digest = digest.Sum64()
	res.jobs = len(seq)

	dir, err := os.MkdirTemp(j.cfg.tmpDir, "jobs-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	cache := schedcache.New(schedcache.Options{})
	jcfg := jobs.Config{Lease: lease, MaxQueued: len(j.catalog) + len(seq) + 64, Cache: cache}
	if tr != nil {
		jcfg.Wal.FsyncObserver, jcfg.Wal.AppendObserver = tr.fsyncObserver, tr.appendObserver
	}
	svc, err := jobs.Recover(dir, jcfg)
	if err != nil {
		return res, err
	}
	handler := svc.Handler()
	if tr != nil {
		handler = tr.handler(handler)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	transport := newTransport()
	defer transport.CloseIdleConnections()

	live := &liveJobs{byID: map[string]*liveJob{}}
	live.cond = sync.NewCond(&live.mu)
	window := make(chan struct{}, j.cfg.sz.jobsInFlight) // the submitter's in-flight window
	fleetCtx, stopFleet := context.WithCancel(ctx)
	probes := make([]*clientProbe, fleetSize)
	stats := make([]jobs.ClientStats, fleetSize)
	errs := make([]error, fleetSize)
	var wg sync.WaitGroup
	for c := range probes {
		p := &clientProbe{actor: c, name: spanRTT, next: transport, tr: tr}
		probes[c] = p
		// A grant's tasks all belong to one job, so the worker looks the
		// job up once per grant, not once per task.
		var lastID string
		var lj *liveJob
		cl := &jobs.Client{
			BaseURL: ts.URL,
			HTTP:    &http.Client{Transport: p},
			Compute: func(id string, v dag.NodeID, _ string) error {
				if id != lastID || lj == nil {
					lastID, lj = id, live.wait(id)
				}
				if lj == nil {
					return errors.New("round ended")
				}
				p.compute(func() { lj.run.compute(v) })
				lj.firstCompute.CompareAndSwap(0, int64(time.Since(lj.submitted)))
				if lj.remaining.Add(-1) == 0 {
					<-window
				}
				return nil
			},
			Batch: jobGrantCap, IdleWait: idleWait, IdleWaitMax: idleWaitMax,
			ID:   fmt.Sprintf("bench-%d", c),
			Seed: clientSeed(j.cfg.seed, r, c),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[c], errs[c] = cl.Run(fleetCtx)
		}()
	}
	defer wg.Wait()
	defer live.close()
	defer stopFleet()

	// The submitter: one short POST /jobs per job, asleep otherwise.
	submitter := &clientProbe{actor: -1, name: spanSubmit, next: transport, tr: tr}
	httpc := &http.Client{Transport: submitter}
	submit := func(s *shape, timed bool) error {
		select {
		case window <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("submitter: %w", ctx.Err())
		}
		body, err := json.Marshal(jobs.Spec{Tenant: "bench", Dag: s.payload})
		if err != nil {
			return err
		}
		lj := &liveJob{run: newExecution(s.c), timed: timed, submitted: time.Now()}
		lj.remaining.Store(int64(s.c.g.NumNodes()))
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var st jobs.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /jobs: status %d: %v", resp.StatusCode, err)
		}
		live.register(st.Job, lj)
		return nil
	}
	// awaitFinished sleeps until the service has finished n jobs.
	awaitFinished := func(n int) error {
		for {
			st := svc.ServiceStatus()
			if st.Failed > 0 {
				return fmt.Errorf("%d jobs failed build or analysis", st.Failed)
			}
			if st.Finished >= n {
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("waiting for %d finished jobs: %w", n, ctx.Err())
			case <-time.After(200 * time.Microsecond):
			}
		}
	}

	// Untimed warm-up: every catalog shape once, so that in the timed part
	// a catalog draw is a cache hit and a fresh shape is a miss, exactly.
	for _, s := range j.catalog {
		if err := submit(s, false); err != nil {
			return res, err
		}
	}
	if err := awaitFinished(len(j.catalog)); err != nil {
		return res, err
	}
	warm := cache.Stats()
	var warmRecords, warmBytes int64
	if tr != nil {
		warmRecords, warmBytes = tr.walRecords.Load(), tr.walBytes.Load()
	}
	res.construct = time.Since(built)

	start := time.Now()
	for _, s := range seq {
		if err := submit(s, true); err != nil {
			return res, err
		}
	}
	if err := awaitFinished(len(j.catalog) + len(seq)); err != nil {
		return res, err
	}
	res.wall = time.Since(start)
	stopFleet()
	wg.Wait()
	for c, err := range errs {
		if !errors.Is(err, context.Canceled) {
			return res, fmt.Errorf("worker %d: %w", c, err)
		}
	}

	// Every job must end finished, with every value right.
	var ratios, hitMS, missMS, queueMS []float64
	replay := 0
	for _, st := range svc.Jobs() {
		if st.State != jobs.StateFinished || st.Completed != st.Nodes || st.Quarantined != 0 {
			return res, fmt.Errorf("job %s ended %s with %d of %d tasks (%s)", st.Job, st.State, st.Completed, st.Nodes, st.Error)
		}
		lj := live.byID[st.Job]
		if lj == nil {
			return res, fmt.Errorf("job %s was never registered", st.Job)
		}
		ratio, err := lj.run.verify()
		if err != nil {
			return res, fmt.Errorf("job %s: %w", st.Job, err)
		}
		if !lj.timed {
			continue
		}
		ratios = append(ratios, ratio)
		res.jobLatMS = append(res.jobLatMS, st.LatencyMillis)
		queueMS = append(queueMS, float64(lj.firstCompute.Load())/1e6)
		if st.CacheHit {
			hitMS = append(hitMS, st.LatencyMillis)
		} else {
			missMS = append(missMS, st.LatencyMillis)
		}
		if st.Replay {
			replay++
		}
	}
	if len(ratios) != len(seq) {
		return res, fmt.Errorf("%d timed jobs finished, %d submitted", len(ratios), len(seq))
	}
	res.eligible = mean(ratios)
	var requests int
	res.grantsUS, requests = grantsSince(probes, start)
	res.attempted = requests + len(seq)
	res.failed = submitter.refused
	for c, s := range stats {
		res.failed += probes[c].refused + s.Retries + s.Resyncs + s.Failed
		res.layers["client.idle_polls"] += float64(s.IdlePolls)
		res.layers["client.retries"] += float64(s.Retries)
		res.layers["client.resyncs"] += float64(s.Resyncs)
	}
	cs := cache.Stats()
	hits := float64(cs.Hits + cs.Shared - warm.Hits - warm.Shared)
	misses := float64(cs.Misses - warm.Misses)
	res.layers["schedcache.hits"] = hits
	res.layers["schedcache.misses"] = misses
	res.layers["schedcache.hit_rate"] = hits / (hits + misses)
	if misses > 0 {
		res.layers["schedcache.cold_us_mean"] = float64(cs.ColdNanos-warm.ColdNanos) / 1e3 / misses
	}
	if hits > 0 {
		res.layers["schedcache.warm_us_mean"] = float64(cs.WarmNanos-warm.WarmNanos) / 1e3 / hits
	}
	res.layers["jobs.queue_wait_p50_ms"] = median(queueMS)
	res.layers["jobs.hit_latency_p50_ms"] = median(hitMS)
	res.layers["jobs.miss_latency_p50_ms"] = median(missMS)
	res.layers["jobs.replay_jobs"] = float64(replay)
	res.layers["jobs.refused"] = float64(submitter.refused)
	fleetLayers(res.layers, probes, res.tasks)
	if tr != nil {
		res.spans = tr.snapshot()
		analyze(res.spans, fleetSize, start, res.wall, res.layers)
		walLayers(res.layers, tr, warmRecords, warmBytes)
	}
	closeCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Close(closeCtx); err != nil {
		return res, fmt.Errorf("closing the job service: %w", err)
	}
	return res, nil
}
