package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/obs"
	"icsched/internal/wal"
)

// Config tunes a Coordinator.  The zero value is a memory-only
// coordinator with icserver's defaults.
type Config struct {
	// Dir is the journal root: shard i journals under Dir/shard-<i>,
	// the forwarding bus under Dir/bus.  Empty means memory-only (no
	// crash safety, no shard recovery).
	Dir string
	// Lease is each shard's allocation lease (0 disables reissuing —
	// deterministic harnesses want that).
	Lease time.Duration
	// MaxAttempts is each shard's quarantine threshold (0 keeps
	// icserver's default).
	MaxAttempts int
	// WalOpts tunes every journal (shards and bus) when Dir is set.
	WalOpts wal.Options
}

// pendingArc is one boundary completion waiting on the forwarding bus.
type pendingArc struct {
	task dag.NodeID // global ID of the completed boundary task
	at   time.Time  // enqueue time, for the forwarding-latency histogram
}

// Coordinator runs K embedded icserver cores — one per shard of a
// Partition, each with its own journal and epoch — joined by an
// arc-forwarding bus: a completion of a boundary task on shard i becomes
// eligibility credits on every shard a cross-arc points into.  Forwardings are batched, deduplicated,
// and journaled as wal.KindArc records in the bus journal, so a shard
// kill or full restart never drops or double-delivers a cross-shard
// arc (credits are idempotent per (task, source) pair on the
// receiving shard).
//
// Lock order: a shard's scheduler lock may take c.mu (the completion
// hook enqueues under it); c.mu never wraps a call into a shard.  The
// pump therefore steals the queue under c.mu and delivers credits
// outside it.
type Coordinator struct {
	part        *Partition
	cfg         Config
	localOrders [][]dag.NodeID
	reg         *obs.Registry
	m           coordMetrics

	handlers []atomic.Value // per-shard strip-prefixed http.Handler

	mu        sync.Mutex
	servers   []*icserver.Server
	queue     []pendingArc
	forwarded map[dag.NodeID]bool // boundary tasks already journaled+forwarded
	busLog    *wal.Log
	busEpoch  uint64
	busErr    error // first bus journal failure (forwarding continues; recovery falls back to reconciliation)

	pumpMu   sync.Mutex // serializes whole Pump drains (explicit and async)
	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// coordMetrics is the icshard_* series on the coordinator's /metrics.
type coordMetrics struct {
	shards    *obs.Gauge
	eligible  []*obs.Gauge
	executed  []*obs.Gauge
	forwarded *obs.Counter
	dedup     *obs.Counter
	latency   *obs.Histogram
}

// forwardBuckets spans bus forwarding latency, 10µs to 1s.
var forwardBuckets = []float64{
	.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, 1,
}

func newCoordMetrics(reg *obs.Registry, k int) coordMetrics {
	m := coordMetrics{
		shards: reg.Gauge("icshard_shards", "number of shards in this coordinator"),
		forwarded: reg.Counter("icshard_arcs_forwarded_total",
			"cross-shard eligibility credits delivered by the forwarding bus"),
		dedup: reg.Counter("icshard_arcs_deduplicated_total",
			"duplicate cross-shard forwardings and credits suppressed"),
		latency: reg.Histogram("icshard_forward_latency_seconds",
			"boundary completion to credit delivery latency", forwardBuckets),
	}
	for i := 0; i < k; i++ {
		m.eligible = append(m.eligible, reg.Gauge(
			fmt.Sprintf("icshard_eligible{shard=%q}", strconv.Itoa(i)),
			"live |ELIGIBLE| per shard"))
		m.executed = append(m.executed, reg.Gauge(
			fmt.Sprintf("icshard_executed{shard=%q}", strconv.Itoa(i)),
			"tasks executed per shard"))
	}
	m.shards.Set(float64(k))
	return m
}

// shardDir names shard i's journal directory under the root.
func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%d", i))
}

// New builds a coordinator executing g under the global schedule
// order, cut by p.  Each shard runs the restriction of order (per
// Theorem 2.1 the recombined run realizes order exactly when driven
// deterministically).  With cfg.Dir set, every shard and the bus are
// journaled; a root holding a previous run's journals recovers it:
// shard states replay their own WALs, the forwarded set replays the
// bus WAL, and a reconciliation pass re-derives any forwarding the
// bus journal missed (a completion durable on its source shard whose
// KindArc record did not land) — then re-delivers every forwarded
// credit, which receiving shards deduplicate.
func New(g *dag.Dag, order []dag.NodeID, p *Partition, cfg Config) (*Coordinator, error) {
	if p.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("shard: partition covers %d nodes, dag has %d", p.NumNodes(), g.NumNodes())
	}
	localOrders, err := p.LocalOrders(order)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		part:        p,
		cfg:         cfg,
		localOrders: localOrders,
		reg:         obs.NewRegistry(),
		servers:     make([]*icserver.Server, p.K),
		handlers:    make([]atomic.Value, p.K),
		forwarded:   make(map[dag.NodeID]bool),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	c.m = newCoordMetrics(c.reg, p.K)
	if cfg.Dir != "" {
		log, rec, err := wal.Open(filepath.Join(cfg.Dir, "bus"), cfg.WalOpts)
		if err != nil {
			return nil, fmt.Errorf("shard: bus journal: %w", err)
		}
		c.busLog = log
		for _, r := range rec.Records {
			if r.Epoch > c.busEpoch {
				c.busEpoch = r.Epoch
			}
			if r.Kind == wal.KindArc {
				c.forwarded[dag.NodeID(r.Task)] = true
			}
		}
		c.busEpoch++
		if _, err := log.Append(wal.Record{Epoch: c.busEpoch, Kind: wal.KindEpoch, Task: -1}); err == nil {
			err = log.Sync()
			if err != nil {
				c.busErr = err
			}
		} else {
			c.busErr = err
		}
		if c.busErr != nil {
			log.Close()
			return nil, fmt.Errorf("shard: bus journal fence: %w", c.busErr)
		}
	}
	for i := 0; i < p.K; i++ {
		srv, err := c.startShard(i)
		if err != nil {
			c.closeShards(i)
			return nil, err
		}
		c.servers[i] = srv
		c.handlers[i].Store(shardHandler(i, srv))
	}
	if cfg.Dir != "" {
		if err := c.reconcile(); err != nil {
			c.closeShards(p.K)
			return nil, err
		}
	}
	go c.pumpLoop()
	return c, nil
}

// startShard builds shard i's embedded server — fresh in memory-only
// mode, recovered from its own journal otherwise.
func (c *Coordinator) startShard(i int) (*icserver.Server, error) {
	policy := heur.Static(fmt.Sprintf("IC-OPTIMAL/shard%d", i), c.localOrders[i])
	opts := []icserver.Option{
		icserver.WithLease(c.cfg.Lease),
		icserver.WithExternalDeps(c.part.NeedIn(i)),
		icserver.WithCompletionHook(c.hookFor(i)),
	}
	if c.cfg.MaxAttempts != 0 {
		opts = append(opts, icserver.WithMaxAttempts(c.cfg.MaxAttempts))
	}
	if c.cfg.Dir == "" {
		return icserver.New(c.part.Locals[i], policy, opts...), nil
	}
	srv, err := icserver.Recover(shardDir(c.cfg.Dir, i), c.part.Locals[i], policy, c.cfg.WalOpts, opts...)
	if err != nil {
		return nil, fmt.Errorf("shard: shard %d: %w", i, err)
	}
	return srv, nil
}

// closeShards kills the first n shard servers and the bus journal
// (construction-failure cleanup).
func (c *Coordinator) closeShards(n int) {
	for j := 0; j < n; j++ {
		if c.servers[j] != nil {
			c.servers[j].Kill()
		}
	}
	if c.busLog != nil {
		c.busLog.Close()
	}
}

// hookFor returns shard i's completion hook: boundary completions are
// enqueued for the bus (interior completions — the overwhelming
// majority — cost one map lookup).  Runs under the shard's scheduler
// lock, so it only enqueues.
func (c *Coordinator) hookFor(i int) func(dag.NodeID) {
	return func(lv dag.NodeID) {
		gv := c.part.Globals[i][lv]
		if len(c.part.CrossOut(gv)) == 0 {
			return
		}
		c.mu.Lock()
		c.queue = append(c.queue, pendingArc{task: gv, at: time.Now()})
		c.mu.Unlock()
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// reconcile closes the gap between the shard journals and the bus
// journal after a restart: any boundary task completed (durably, on
// its source shard) but missing from the forwarded set is journaled
// and marked now, then every forwarded credit is re-delivered.
// Receiving shards deduplicate, so re-delivery is safe; without it a
// crash between a source shard's KindDone and the bus's KindArc
// would strand the destination shard's gated tasks.
func (c *Coordinator) reconcile() error {
	sources := make([]dag.NodeID, 0, len(c.part.crossOut))
	for u := range c.part.crossOut {
		sources = append(sources, u)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	var recs []wal.Record
	for _, u := range sources {
		if c.forwarded[u] {
			continue
		}
		if !c.servers[c.part.ShardOf[u]].Completed(c.part.LocalOf[u]) {
			continue
		}
		c.forwarded[u] = true
		recs = append(recs, wal.Record{Epoch: c.busEpoch, Kind: wal.KindArc, Task: int64(u)})
	}
	if len(recs) > 0 {
		_, err := c.busLog.AppendBatch(recs)
		if err == nil {
			err = c.busLog.Sync()
		}
		if err != nil {
			return fmt.Errorf("shard: bus reconcile: %w", err)
		}
	}
	for _, u := range sources {
		if c.forwarded[u] {
			c.creditTargets(u)
		}
	}
	return nil
}

// creditTargets delivers u's cross-arc credits to their destination
// shards (idempotent; dead shards are skipped — their recovery
// re-credits).
func (c *Coordinator) creditTargets(u dag.NodeID) {
	for _, gv := range c.part.CrossOut(u) {
		j := c.part.ShardOf[gv]
		c.mu.Lock()
		srv := c.servers[j]
		c.mu.Unlock()
		applied, err := srv.Credit(c.part.LocalOf[gv], int64(u))
		if err != nil {
			continue // dead incarnation: RecoverShard re-credits
		}
		if applied {
			c.m.forwarded.Inc()
		} else {
			c.m.dedup.Inc()
		}
	}
}

// pumpLoop drains the bus whenever a boundary completion kicks it.
func (c *Coordinator) pumpLoop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
			c.Pump()
		}
	}
}

// Pump drains the forwarding bus: pending boundary completions are
// deduplicated against the forwarded set, journaled as one KindArc
// batch (one AppendBatch write, then one sync), and turned into eligibility
// credits on their destination shards.  Safe to call concurrently
// with the async pump; when Pump returns, every completion enqueued
// before the call has been delivered — deterministic harnesses rely
// on that.
func (c *Coordinator) Pump() {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	for {
		// Steal and dedup-mark under c.mu; journal and deliver outside it,
		// so source shards' completion hooks never wait on a bus fsync.
		// pumpMu keeps concurrent drains out, so the journal order matches
		// the forwarding order.
		c.mu.Lock()
		q := c.queue
		c.queue = nil
		fresh := q[:0]
		for _, p := range q {
			if c.forwarded[p.task] {
				c.m.dedup.Inc()
				continue
			}
			c.forwarded[p.task] = true
			fresh = append(fresh, p)
		}
		log := c.busLog
		c.mu.Unlock()
		if len(fresh) == 0 {
			return
		}
		if log != nil {
			recs := make([]wal.Record, len(fresh))
			for i, p := range fresh {
				recs[i] = wal.Record{Epoch: c.busEpoch, Kind: wal.KindArc, Task: int64(p.task)}
			}
			_, err := log.AppendBatch(recs)
			if err == nil {
				err = log.Sync()
			}
			if err != nil {
				// The bus journal is wounded but forwarding continues: a
				// restart falls back to reconciliation against the shard
				// journals, which re-derives every forwarding.
				c.mu.Lock()
				if c.busErr == nil {
					c.busErr = err
				}
				c.mu.Unlock()
			}
		}
		for _, p := range fresh {
			c.creditTargets(p.task)
			c.m.latency.Observe(time.Since(p.at).Seconds())
		}
	}
}

// KillShard kills shard i's incarnation abruptly (the chaos lane's
// SIGKILL stand-in): its journal is severed, its handler answers 503,
// and credits destined for it are re-delivered by RecoverShard.
func (c *Coordinator) KillShard(i int) {
	c.mu.Lock()
	srv := c.servers[i]
	c.mu.Unlock()
	srv.Kill()
}

// RecoverShard replaces a killed shard with a recovered incarnation:
// its journal replays (epoch bumped, in-flight grants fenced and
// requeued), the external-dependency gate is rebuilt, and every
// forwarded credit into the shard is re-delivered before the HTTP
// handler swaps over.  Requires a journaled coordinator.
func (c *Coordinator) RecoverShard(i int) error {
	if c.cfg.Dir == "" {
		return fmt.Errorf("shard: cannot recover shard %d of a memory-only coordinator", i)
	}
	if i < 0 || i >= c.part.K {
		return fmt.Errorf("shard: shard %d out of range", i)
	}
	srv, err := c.startShard(i)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.servers[i] = srv
	var credits []CrossArc
	for _, a := range c.part.Cross {
		if c.part.ShardOf[a.To] == i && c.forwarded[a.From] {
			credits = append(credits, a)
		}
	}
	c.mu.Unlock()
	for _, a := range credits {
		applied, err := srv.Credit(c.part.LocalOf[a.To], int64(a.From))
		if err != nil {
			return fmt.Errorf("shard: re-credit after recovery: %w", err)
		}
		if applied {
			c.m.forwarded.Inc()
		} else {
			c.m.dedup.Inc()
		}
	}
	c.handlers[i].Store(shardHandler(i, srv))
	return nil
}

// Server returns shard i's current embedded server (tests and
// in-process harnesses drive it directly).
func (c *Coordinator) Server(i int) *icserver.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[i]
}

// Partition returns the cut this coordinator runs.
func (c *Coordinator) Partition() *Partition { return c.part }

// Metrics returns the coordinator's icshard_* registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// Finished reports whether every shard is terminal.
func (c *Coordinator) Finished() bool {
	for i := 0; i < c.part.K; i++ {
		if !c.Server(i).Finished() {
			return false
		}
	}
	return true
}

// Status is the aggregated /status payload.
type Status struct {
	Shards           int               `json:"shards"`
	Total            int               `json:"total"`
	Completed        int               `json:"completed"`
	Eligible         int               `json:"eligible"`
	Allocated        int               `json:"allocated"`
	Quarantined      int               `json:"quarantined"`
	Reissues         int               `json:"reissues"`
	Stalls           int               `json:"stalls"`
	ArcsForwarded    int               `json:"arcsForwarded"`
	ArcsDeduplicated int               `json:"arcsDeduplicated"`
	PerShard         []icserver.Status `json:"perShard"`
}

// Status aggregates every shard's status and syncs the per-shard
// gauges.
func (c *Coordinator) Status() Status {
	st := Status{Shards: c.part.K}
	for i := 0; i < c.part.K; i++ {
		ss := c.Server(i).Status()
		st.Total += ss.Total
		st.Completed += ss.Completed
		st.Eligible += ss.Eligible
		st.Allocated += ss.Allocated
		st.Quarantined += ss.Quarantined
		st.Reissues += ss.Reissues
		st.Stalls += ss.Stalls
		st.PerShard = append(st.PerShard, ss)
		c.m.eligible[i].Set(float64(ss.Eligible))
		c.m.executed[i].Set(float64(ss.Completed))
	}
	st.ArcsForwarded = int(c.m.forwarded.Value())
	st.ArcsDeduplicated = int(c.m.dedup.Value())
	return st
}

// Shutdown drains the coordinator: the pump stops after a final
// drain, every shard shuts down gracefully, and the bus journal is
// flushed and closed.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.Pump()
	var first error
	for i := 0; i < c.part.K; i++ {
		if err := c.Server(i).Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	c.mu.Lock()
	log, busErr := c.busLog, c.busErr
	c.busLog = nil
	c.mu.Unlock()
	if log != nil {
		if err := log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if first == nil {
		first = busErr
	}
	return first
}

// Kill terminates every shard and the bus abruptly — the full-restart
// crash stand-in.  A successor New on the same Dir recovers.
func (c *Coordinator) Kill() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	for i := 0; i < c.part.K; i++ {
		c.Server(i).Kill()
	}
	c.mu.Lock()
	if c.busLog != nil {
		c.busLog.Kill()
		c.busLog = nil
	}
	c.mu.Unlock()
}

// shardHandler wraps one shard incarnation's handler under its path
// prefix.
func shardHandler(i int, srv *icserver.Server) http.Handler {
	return http.StripPrefix(fmt.Sprintf("/shard/%d", i), srv.Handler())
}

// Handler exposes the coordinator over HTTP:
//
//	/shard/<i>/...   the full icserver protocol of shard i
//	GET /status      aggregated Status (JSON)
//	GET /healthz     200 while any shard is live
//	GET /metrics     icshard_* series (per-shard icserver_* series
//	                 live at /shard/<i>/metrics)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/", c.dispatchShard)
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "shards": st.Shards,
			"completed": st.Completed, "total": st.Total,
		})
	})
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Status() // sync per-shard gauges before rendering
		c.reg.Handler().ServeHTTP(w, r)
	}))
	return mux
}

// dispatchShard routes /shard/<i>/... to shard i's current
// incarnation (swapped atomically by RecoverShard).
func (c *Coordinator) dispatchShard(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/shard/")
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 {
		http.NotFound(w, r)
		return
	}
	i, err := strconv.Atoi(rest[:slash])
	if err != nil || i < 0 || i >= len(c.handlers) {
		http.NotFound(w, r)
		return
	}
	c.handlers[i].Load().(http.Handler).ServeHTTP(w, r)
}
