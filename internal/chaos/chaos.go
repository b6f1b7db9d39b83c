// Package chaos is the fault-recovery proof harness for the IC stack:
// it executes the paper's computation families — the Pascal wavefront
// over an out-mesh (§4), FFT convolution over butterfly networks (§5.2),
// and parallel prefix over P_n (§6.1) — through the real HTTP task
// server with a fleet of clients subjected to a seeded faults.Plan
// (client crashes, compute errors, dropped responses, injected 500s,
// latency spikes), and checks that every run still produces answers
// bit-identical to the fault-free in-process execution, with zero tasks
// lost to quarantine.
//
// This is the operational counterpart of the theory's premise: IC-optimal
// allocation hedges against temporally unpredictable clients (§1–§2), and
// the lease → reissue → quarantine machinery of package icserver must
// make the hedge safe, not merely fast.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"icsched/internal/butterfly"
	"icsched/internal/compute/fftconv"
	"icsched/internal/compute/scan"
	"icsched/internal/dag"
	"icsched/internal/faults"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/obs"
	"icsched/internal/prefix"
	"icsched/internal/sched"
)

// Config parameterizes a chaos run.
type Config struct {
	// Seed drives the fault plan (runs with the same seed make the same
	// per-kind fault decisions).
	Seed int64
	// Rates are the fault-injection probabilities (DefaultRates if zero).
	Rates faults.Rates
	// Clients is the fleet size (default 8); crashed clients respawn.
	Clients int
	// Lease is the server's allocation lease — the crash-recovery latency
	// (default 120ms).
	Lease time.Duration
	// MaxAttempts is the server's quarantine threshold (default 25, high
	// enough that transient chaos never quarantines a task).
	MaxAttempts int
	// Timeout bounds one workload execution (default 60s) — a chaos run
	// must finish, not hang.
	Timeout time.Duration
	// Batch is the fleet's per-grant cap (icserver.Client's: zero means
	// 1, the one-task client).  Chaos recovery must hold at every cap: a crash mid-batch
	// abandons every unreported task of the grant at once.
	Batch int
	// Trace optionally records every workload's server-side events
	// (allocations, completions, hand-backs, quarantines) in the shared
	// obs schema, for post-mortem inspection in chrome://tracing.
	Trace *obs.Trace
}

// clientSeed derives the jitter seed for one client incarnation from the
// run seed: a pure function of (run seed, client index, respawn count),
// splitmix64-style, so two same-seed chaos runs hand every client the
// same jitter sequence — the other half of replay determinism next to
// the faults.Plan's per-kind decision streams.
func clientSeed(run int64, client, respawn int) int64 {
	z := uint64(run) + 0x9e3779b97f4a7c15*uint64(client+1) + 0xbf58476d1ce4e5b9*uint64(respawn+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // zero means "assign a default seed" to the client
	}
	return int64(z)
}

// DefaultRates injects substantial chaos: every task allocation has a
// >10% chance of not completing normally (crash or compute error), and
// every HTTP exchange a ~10% chance of being disturbed.
func DefaultRates() faults.Rates {
	return faults.Rates{
		Crash:        0.10,
		ComputeError: 0.06,
		DropResponse: 0.05,
		HTTPError:    0.05,
		Latency:      0.03,
	}
}

func (c Config) withDefaults() Config {
	zero := faults.Rates{}
	if c.Rates == zero {
		c.Rates = DefaultRates()
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Lease <= 0 {
		c.Lease = 120 * time.Millisecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 25
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// Report summarizes one workload's execution under chaos.
type Report struct {
	// Workload names the computation.
	Workload string
	// Tasks and Completed count dag nodes over all executions of the
	// workload (FFT convolution runs three dags).
	Tasks     int
	Completed int
	// Crashes counts client crashes (each followed by a respawn).
	Crashes int
	// HandBacks counts tasks handed back, Retries transient-request
	// retries, Reissues server-side re-allocations.
	HandBacks int
	Retries   int
	Reissues  int
	// Quarantined counts tasks the server gave up on — 0 on a healthy
	// recovery.
	Quarantined int
	// Kills counts server SIGKILL/restart cycles (ServerKill lane only),
	// Resyncs the stale-epoch rejections clients recovered from by
	// re-reading the fencing token and re-sending their reports.
	Kills   int
	Resyncs int
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

func (r Report) String() string {
	s := fmt.Sprintf("%-10s %4d/%4d tasks, %3d crashes, %3d hand-backs, %3d reissues, %3d retries, %d quarantined",
		r.Workload, r.Completed, r.Tasks, r.Crashes, r.HandBacks, r.Reissues, r.Retries, r.Quarantined)
	if r.Kills > 0 {
		s += fmt.Sprintf(", %d server kills, %d resyncs", r.Kills, r.Resyncs)
	}
	return s + fmt.Sprintf(", %v", r.Elapsed.Round(time.Millisecond))
}

// merge folds one fleet execution into an aggregate workload report.
func (r *Report) merge(o Report) {
	r.Tasks += o.Tasks
	r.Completed += o.Completed
	r.Crashes += o.Crashes
	r.HandBacks += o.HandBacks
	r.Retries += o.Retries
	r.Reissues += o.Reissues
	r.Quarantined += o.Quarantined
	r.Kills += o.Kills
	r.Resyncs += o.Resyncs
	r.Elapsed += o.Elapsed
}

// runFleet executes one dag through an HTTP task server with a fleet of
// fault-injected clients.  compute must be safe for concurrent calls and
// idempotent per node (recomputation from parent values).  Crashed
// clients are respawned, as a volunteer fleet replaces vanished members.
func runFleet(name string, g *dag.Dag, order []dag.NodeID,
	compute func(dag.NodeID, string) error, plan *faults.Plan, cfg Config) (Report, error) {
	opts := []icserver.Option{
		icserver.WithLease(cfg.Lease),
		icserver.WithMaxAttempts(cfg.MaxAttempts),
	}
	if cfg.Trace != nil {
		opts = append(opts, icserver.WithTrace(cfg.Trace))
	}
	srv := icserver.New(g, heur.Static("IC-OPTIMAL", order), opts...)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	injected := func(v dag.NodeID, label string) error {
		if plan.Decide(faults.Crash) {
			return icserver.ErrCrash
		}
		if plan.Decide(faults.ComputeError) {
			return fmt.Errorf("chaos: %w", faults.ErrInjected)
		}
		return compute(v, label)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	start := time.Now()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		crashes int
		stats   icserver.Stats
		errs    = make([]error, cfg.Clients)
	)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for respawn := 0; ; respawn++ {
				c := &icserver.Client{
					BaseURL:   ts.URL,
					HTTP:      &http.Client{Transport: plan.Transport(nil)},
					Compute:   injected,
					IdleWait:  time.Millisecond,
					RetryWait: time.Millisecond,
					Batch:     cfg.Batch,
					ID:        fmt.Sprintf("%s-client-%d.%d", name, i, respawn),
					Seed:      clientSeed(cfg.Seed, i, respawn),
				}
				st, err := c.Run(ctx)
				mu.Lock()
				stats.Completed += st.Completed
				stats.IdlePolls += st.IdlePolls
				stats.Retries += st.Retries
				stats.Failed += st.Failed
				mu.Unlock()
				if errors.Is(err, icserver.ErrCrash) {
					mu.Lock()
					crashes++
					mu.Unlock()
					continue // respawn
				}
				errs[i] = err
				return
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("chaos: %s client %d: %w", name, i, err)
		}
	}
	st := srv.Status()
	rep := Report{
		Workload:    name,
		Tasks:       st.Total,
		Completed:   st.Completed,
		Crashes:     crashes,
		HandBacks:   st.Failed,
		Retries:     stats.Retries,
		Reissues:    st.Reissues,
		Quarantined: st.Quarantined,
		Elapsed:     time.Since(start),
	}
	if !srv.Finished() {
		return rep, fmt.Errorf("chaos: %s did not finish", name)
	}
	if st.Allocated != 0 {
		return rep, fmt.Errorf("chaos: %s finished with %d leases outstanding", name, st.Allocated)
	}
	return rep, nil
}

// Wavefront runs the Pascal-triangle wavefront (§4) over an out-mesh with
// the given number of levels and checks every cell against its binomial
// coefficient.
func Wavefront(cfg Config, levels int) (Report, error) {
	cfg = cfg.withDefaults()
	plan := faults.NewPlan(cfg.Seed, cfg.Rates)
	g := mesh.OutMesh(levels)
	order := sched.Complete(g, mesh.OutMeshNonsinks(levels))

	var mu sync.Mutex
	vals := make([]int64, g.NumNodes())
	compute := func(v dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		if g.IsSource(v) {
			vals[v] = 1
			return nil
		}
		var sum int64
		for _, p := range g.Parents(v) {
			sum += vals[p]
		}
		vals[v] = sum
		return nil
	}
	rep, err := runFleet("wavefront", g, order, compute, plan, cfg)
	if err != nil {
		return rep, err
	}
	for i := 0; i < levels; i++ {
		want := int64(1)
		for j := 0; j <= i; j++ {
			if got := vals[mesh.TriID(i, j)]; got != want {
				return rep, fmt.Errorf("chaos: wavefront cell (%d,%d) = %d, want C(%d,%d) = %d",
					i, j, got, i, j, want)
			}
			want = want * int64(i-j) / int64(j+1)
		}
	}
	return rep, nil
}

// distTransform runs one butterfly-dag FFT (or inverse FFT) through the
// chaos fleet, mirroring fftconv's in-process transform.
func distTransform(xs []complex128, inverse bool, plan *faults.Plan, cfg Config) ([]complex128, Report, error) {
	n := len(xs)
	d := 0
	for 1<<uint(d) < n {
		d++
	}
	g := butterfly.Network(d)
	order := sched.Complete(g, butterfly.Nonsinks(d))

	var mu sync.Mutex
	vals := make([]complex128, g.NumNodes())
	for r := 0; r < n; r++ {
		v := xs[fftconv.Bitrev(r, d)]
		if inverse {
			v = complex(real(v), -imag(v))
		}
		vals[butterfly.ID(d, 0, r)] = v
	}
	compute := func(v dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		fftconv.Step(d, vals, v)
		return nil
	}
	name := "fft"
	if inverse {
		name = "ifft"
	}
	rep, err := runFleet(name, g, order, compute, plan, cfg)
	if err != nil {
		return nil, rep, err
	}
	out := make([]complex128, n)
	for r := 0; r < n; r++ {
		v := vals[butterfly.ID(d, d, r)]
		if inverse {
			v = complex(real(v), -imag(v)) / complex(float64(n), 0)
		}
		out[r] = v
	}
	return out, rep, nil
}

// FFTConvolution convolves two length-n sequences via three distributed
// butterfly transforms (§5.2) and checks the result bit-for-bit against
// the fault-free in-process fftconv.Convolve.
func FFTConvolution(cfg Config, n int) (Report, error) {
	cfg = cfg.withDefaults()
	plan := faults.NewPlan(cfg.Seed, cfg.Rates)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i%7) - 3
		b[i] = float64((i*i)%11) - 5
	}
	want, err := fftconv.Convolve(a, b, 4)
	if err != nil {
		return Report{}, err
	}

	// Pad to the transform length, as Convolve does.
	size := 1
	for size < 2*n-1 {
		size <<= 1
	}
	fa := make([]complex128, size)
	fb := make([]complex128, size)
	for i := 0; i < n; i++ {
		fa[i] = complex(a[i], 0)
		fb[i] = complex(b[i], 0)
	}
	rep := Report{Workload: "fftconv"}
	Fa, r1, err := distTransform(fa, false, plan, cfg)
	rep.merge(r1)
	if err != nil {
		return rep, err
	}
	Fb, r2, err := distTransform(fb, false, plan, cfg)
	rep.merge(r2)
	if err != nil {
		return rep, err
	}
	for i := range Fa {
		Fa[i] *= Fb[i]
	}
	inv, r3, err := distTransform(Fa, true, plan, cfg)
	rep.merge(r3)
	if err != nil {
		return rep, err
	}
	for i := range want {
		if got := real(inv[i]); got != want[i] {
			return rep, fmt.Errorf("chaos: fftconv coefficient %d = %g, want %g (bit-exact)", i, got, want[i])
		}
	}
	return rep, nil
}

// PrefixScan computes the inclusive prefix sums of 1..n through the
// distributed P_n dag (§6.1) and checks them against the serial scan.
func PrefixScan(cfg Config, n int) (Report, error) {
	cfg = cfg.withDefaults()
	plan := faults.NewPlan(cfg.Seed, cfg.Rates)
	g := prefix.Network(n)
	L := prefix.Levels(n)
	order := sched.Complete(g, prefix.Nonsinks(n))

	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	add := func(a, b int64) int64 { return a + b }

	var mu sync.Mutex
	vals := make([]int64, g.NumNodes())
	for i, x := range xs {
		vals[prefix.ID(n, 0, i)] = x
	}
	step := scan.StepFunc(add, n, vals)
	compute := func(v dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		return step(v)
	}
	rep, err := runFleet("prefix", g, order, compute, plan, cfg)
	if err != nil {
		return rep, err
	}
	want := scan.Serial(add, xs)
	for i := range want {
		if got := vals[prefix.ID(n, L, i)]; got != want[i] {
			return rep, fmt.Errorf("chaos: prefix[%d] = %d, want %d", i, got, want[i])
		}
	}
	return rep, nil
}

// RunAll executes every chaos workload at its default size, failing on
// the first incorrect, hung, or lossy run.
func RunAll(cfg Config) ([]Report, error) {
	w, err := Wavefront(cfg, 12)
	if err != nil {
		return nil, err
	}
	f, err := FFTConvolution(cfg, 12)
	if err != nil {
		return nil, err
	}
	p, err := PrefixScan(cfg, 24)
	if err != nil {
		return nil, err
	}
	return []Report{w, f, p}, nil
}
