package main

// The relaxation sweep: the quality/throughput frontier of the lock-free
// k-relaxed grant core (internal/relaxed) against the exact locked
// scheduler, written to BENCH_relaxed.json.
//
// Unlike the HTTP cells of BENCH_throughput.json, the sweep drives the
// server in process — client goroutines calling AllocateBatch /
// ReportAllocate directly.  The two cores differ by what a grant costs
// inside the server (one lock hold and a bitset pop on the locked path;
// lock-free pops between two lock holds on the relaxed one); through HTTP
// that difference drowns in JSON and TCP costs, in process it is the
// thing being measured.  Every cell still checks the FNV
// ground truth bit for bit and reconstructs its realized eligibility
// profile from the shared obs trace, so the frontier prices exactly what
// the relaxation costs: the worst-step ratio of the realized profile
// against the exact ELIGIBLE-prefix profile of the same schedule.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/obs"
	"icsched/internal/sched"
)

// relaxedResult is one (clients, k) cell of the sweep; Relaxed == 0 is
// the locked-path baseline.
type relaxedResult struct {
	Family      string  `json:"family"`
	Nodes       int     `json:"nodes"`
	Clients     int     `json:"clients"`
	Relaxed     int     `json:"relaxed"` // shard count; 0 = exact locked path
	Batch       int     `json:"batch"`
	WallMillis  float64 `json:"wallMillis"`
	TasksPerSec float64 `json:"tasksPerSec"`
	// WorstStepRatio prices the realized eligibility profile against the
	// exact ELIGIBLE-prefix profile (1.0 = no quality loss); QualityGap is
	// max(0, 1 - WorstStepRatio).
	WorstStepRatio float64 `json:"worstStepRatio"`
	QualityGap     float64 `json:"qualityGap"`
	MeanEligible   float64 `json:"meanEligible"`
	Reissues       int     `json:"reissues"`
	Quarantined    int     `json:"quarantined"`
}

// relaxedFile is the BENCH_relaxed.json document.
type relaxedFile struct {
	GoMaxP  int    `json:"gomaxprocs"`
	Smoke   bool   `json:"smoke"`
	Note    string `json:"note"`
	Clients []int  `json:"clients"`
	Ks      []int  `json:"ks"`
	Batch   int    `json:"batch"`
	// K1BitIdentical records the degeneration proof: a serial relaxed(1)
	// drive realized exactly the locked scheduler's allocation order.
	K1BitIdentical bool `json:"k1BitIdentical"`
	// Frontier summary at the highest client count: locked baseline, best
	// k ≥ 4 relaxed cell, and their ratio (the CI guard input).
	LockedTasksPerSec  float64         `json:"lockedTasksPerSec"`
	RelaxedTasksPerSec float64         `json:"relaxedTasksPerSec"`
	Speedup            float64         `json:"speedup"`
	Results            []relaxedResult `json:"results"`
}

const relaxedNote = "in-process grant-path benchmark: client goroutines call " +
	"AllocateBatch/ReportAllocate directly, isolating scheduler cost from HTTP/JSON overhead"

// relaxedSweepConfig parameterizes one sweep (split out for tests).
type relaxedSweepConfig struct {
	clients    []int
	ks         []int // shard counts; 0 = locked baseline, must be present
	batch      int
	smoke      bool
	minSpeedup float64 // frontier floor at max clients; 0 disables
}

// relaxedSweepFamily returns the sweep's dag: the d=8 FFT-convolution
// butterfly (2304 nodes in 256-wide ranks): a wide eligible frontier, so
// many clients find work at once and the grant path, not the dag, bounds
// the drain.  Push and pop are O(1) in the frontier width on both cores.
func relaxedSweepFamily() loadgenFamily {
	return loadgenFamily{"fftconv", 8, func(s int) (*dag.Dag, []dag.NodeID) {
		return butterfly.Network(s), butterfly.Nonsinks(s)
	}}
}

// driveInproc is the in-process steady-state client loop: bootstrap with
// AllocateBatch, then piggyback every later grant on the previous ack.
func driveInproc(srv *icserver.Server, b int, compute func(dag.NodeID)) error {
	batch, state := srv.AllocateBatch(b)
	for {
		switch state {
		case icserver.AllocFinished:
			return nil
		case icserver.AllocEmpty:
			time.Sleep(20 * time.Microsecond) // other clients hold all eligible work
			batch, state = srv.AllocateBatch(b)
			continue
		case icserver.AllocOK:
		default:
			return fmt.Errorf("allocate state %v", state)
		}
		for _, v := range batch {
			compute(v)
		}
		var err error
		_, batch, state, err = srv.ReportAllocate(batch, nil, b)
		if err != nil {
			return err
		}
	}
}

// runRelaxedCell executes one (clients, k) fleet drain with FNV
// verification.  With traced set, the server records the shared obs
// trace and the result carries the reconstructed quality metrics; timing
// reps run untraced so the throughput number prices the grant path, not
// the trace mutex.
func runRelaxedCell(fam loadgenFamily, clients, k, batch int, ref []uint64, exactProf []int, traced bool) (relaxedResult, error) {
	g, nonsinks := fam.build(fam.size)
	order := sched.Complete(g, nonsinks)
	opts := []icserver.Option{icserver.WithLease(time.Minute)}
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
		opts = append(opts, icserver.WithTrace(tr))
	}
	if k > 0 {
		opts = append(opts, icserver.WithRelaxed(k))
	}
	srv := icserver.New(g, heur.Static("IC-OPTIMAL", order), opts...)

	// Values are written with atomic stores, not a global mutex: a task's
	// parents are reported (under the scheduler lock, or through the
	// core's CAS) before the task is granted, so the parent loads are
	// ordered without a benchmark-private lock diluting the measurement.
	vals := make([]uint64, g.NumNodes())
	compute := func(v dag.NodeID) {
		h := fnvNodeValueAtomic(g, v, vals)
		atomic.StoreUint64(&vals[v], h)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = driveInproc(srv, batch, compute)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c, err := range errs {
		if err != nil {
			return relaxedResult{}, fmt.Errorf("k=%d: client %d: %w", k, c, err)
		}
	}
	st := srv.Status()
	if !srv.Finished() || st.Completed != g.NumNodes() {
		return relaxedResult{}, fmt.Errorf("k=%d: completed %d of %d tasks", k, st.Completed, g.NumNodes())
	}
	for v := range ref {
		if vals[v] != ref[v] {
			return relaxedResult{}, fmt.Errorf("k=%d: node %d computed %#x, want %#x (exec.Run reference)",
				k, v, vals[v], ref[v])
		}
	}
	res := relaxedResult{
		Family:      fam.name,
		Nodes:       g.NumNodes(),
		Clients:     clients,
		Relaxed:     k,
		Batch:       batch,
		WallMillis:  float64(wall.Microseconds()) / 1000,
		TasksPerSec: float64(g.NumNodes()) / wall.Seconds(),
		Reissues:    st.Reissues,
		Quarantined: st.Quarantined,
	}
	if !traced {
		return res, nil
	}
	prof, err := tr.EligibilityProfile()
	if err != nil {
		return relaxedResult{}, fmt.Errorf("k=%d: trace reconstruction: %w", k, err)
	}
	ratio, err := sched.WorstStepRatio(prof, exactProf)
	if err != nil {
		return relaxedResult{}, fmt.Errorf("k=%d: %w", k, err)
	}
	res.WorstStepRatio = ratio
	res.QualityGap = 1 - ratio
	if res.QualityGap < 0 {
		res.QualityGap = 0
	}
	res.MeanEligible = sched.Mean(prof)
	return res, nil
}

// fnvNodeValueAtomic is fnvNodeValue with atomic parent loads, for the
// lock-free compute path of the sweep cells.
func fnvNodeValueAtomic(g *dag.Dag, v dag.NodeID, vals []uint64) uint64 {
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
		mix(atomic.LoadUint64(&vals[p]))
	}
	return h
}

// relaxedBitIdentity proves the k=1 degeneration: a serial relaxed(1)
// drive must realize exactly the locked scheduler's allocation order.
func relaxedBitIdentity(fam loadgenFamily) (bool, error) {
	g, nonsinks := fam.build(fam.size)
	order := sched.Complete(g, nonsinks)
	drive := func(opts ...icserver.Option) ([]dag.NodeID, error) {
		srv := icserver.New(g, heur.Static("IC-OPTIMAL", order), opts...)
		var got []dag.NodeID
		for {
			v, state := srv.Allocate()
			if state == icserver.AllocFinished {
				return got, nil
			}
			if state != icserver.AllocOK {
				return nil, fmt.Errorf("stalled after %d grants", len(got))
			}
			got = append(got, v)
			if _, err := srv.Complete(v); err != nil {
				return nil, err
			}
		}
	}
	exact, err := drive()
	if err != nil {
		return false, fmt.Errorf("locked drive: %w", err)
	}
	rel, err := drive(icserver.WithRelaxed(1))
	if err != nil {
		return false, fmt.Errorf("relaxed(1) drive: %w", err)
	}
	if len(exact) != len(rel) {
		return false, fmt.Errorf("locked granted %d tasks, relaxed(1) %d", len(exact), len(rel))
	}
	for i := range exact {
		if exact[i] != rel[i] {
			return false, fmt.Errorf("grant %d: locked %d, relaxed(1) %d", i, exact[i], rel[i])
		}
	}
	return true, nil
}

// runRelaxedSweep measures the full frontier and enforces the guard: the
// best k ≥ 4 cell at the highest client count must beat the locked
// baseline at the same client count by minSpeedup.
func runRelaxedSweep(cfg relaxedSweepConfig) (relaxedFile, error) {
	fam := relaxedSweepFamily()
	doc := relaxedFile{
		GoMaxP: runtime.GOMAXPROCS(0), Smoke: cfg.smoke, Note: relaxedNote,
		Clients: cfg.clients, Ks: cfg.ks, Batch: cfg.batch,
	}
	g, nonsinks := fam.build(fam.size)
	order := sched.Complete(g, nonsinks)
	ref, err := loadgenReference(g, order)
	if err != nil {
		return doc, fmt.Errorf("loadgen: relaxed reference: %w", err)
	}
	exactProf, err := sched.Profile(g, order)
	if err != nil {
		return doc, fmt.Errorf("loadgen: exact profile: %w", err)
	}
	if doc.K1BitIdentical, err = relaxedBitIdentity(fam); err != nil {
		return doc, fmt.Errorf("loadgen: k=1 bit-identity: %w", err)
	}

	maxClients := 0
	for _, c := range cfg.clients {
		if c > maxClients {
			maxClients = c
		}
	}
	// Cells are repeated and the fastest rep kept: a single drain of even
	// the 64×64 grid lasts milliseconds, and the frontier guard should
	// compare scheduler costs, not scheduling jitter.
	reps := 5
	if cfg.smoke {
		reps = 3
	}
	for _, clients := range cfg.clients {
		for _, k := range cfg.ks {
			var res relaxedResult
			for rep := 0; rep < reps; rep++ {
				r, err := runRelaxedCell(fam, clients, k, cfg.batch, ref, exactProf, false)
				if err != nil {
					return doc, fmt.Errorf("loadgen: relaxed cell (%d clients): %w", clients, err)
				}
				if rep == 0 || r.TasksPerSec > res.TasksPerSec {
					res = r
				}
			}
			// One extra traced (untimed) drain reconstructs the realized
			// eligibility profile for the quality side of the frontier.
			q, err := runRelaxedCell(fam, clients, k, cfg.batch, ref, exactProf, true)
			if err != nil {
				return doc, fmt.Errorf("loadgen: relaxed quality cell (%d clients): %w", clients, err)
			}
			res.WorstStepRatio, res.QualityGap, res.MeanEligible =
				q.WorstStepRatio, q.QualityGap, q.MeanEligible
			doc.Results = append(doc.Results, res)
			if clients == maxClients {
				if k == 0 {
					doc.LockedTasksPerSec = res.TasksPerSec
				} else if k >= 4 && res.TasksPerSec > doc.RelaxedTasksPerSec {
					doc.RelaxedTasksPerSec = res.TasksPerSec
				}
			}
		}
	}
	if doc.LockedTasksPerSec > 0 {
		doc.Speedup = doc.RelaxedTasksPerSec / doc.LockedTasksPerSec
	}
	if cfg.minSpeedup > 0 && doc.Speedup < cfg.minSpeedup {
		return doc, fmt.Errorf("loadgen: relaxed k≥4 throughput %.0f tasks/s is %.2f× the locked baseline %.0f tasks/s at %d clients, floor %.2f×",
			doc.RelaxedTasksPerSec, doc.Speedup, doc.LockedTasksPerSec, maxClients, cfg.minSpeedup)
	}
	return doc, nil
}
