// Command bench is the repository's one benchmark: four workloads that
// each load a different layer of the stack, every output checked bit for
// bit, every metric printed by name with its unit.  BENCHMARK.json at
// the repository root declares the same workloads and metrics; see
// README.md in this directory for what each measures and why.
//
//	go run ./bench                               all workloads, end-to-end metrics
//	go run ./bench -trace 1                      also the per-layer metrics and span files
//	go run ./bench -workload wave_http -seed 7   one workload
//	go run ./bench -runs 5                       repeatability: median and quartiles over 5 runs
//
// The last line of standard output is one JSON object with the result
// of the (last) workload.  The only way to a non-zero exit is a failed
// correctness check: no threshold on a metric fails a run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef declares one metric.  BENCHMARK.json lists the same names,
// units, directions and bounds; the package test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

var endToEnd = []metricDef{
	{"tasks_per_s", "tasks/s", "higher", 0.25},
	{"grant_p50_us", "us", "lower", 0.25},
	{"eligible_ratio", "ratio", "higher", 0.01},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_latency_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics are per round (one drain), the median over the traced
// rounds of a run, unless they are a probe that runs once.
var perLayer = []metricDef{
	{"client.requests", "count", "lower", 0},
	{"client.tasks_per_request", "tasks", "higher", 0},
	{"client.rtt_p50_us", "us", "lower", 0},
	{"client.rtt_p99_us", "us", "lower", 0},
	{"client.bytes_sent", "bytes", "lower", 0},
	{"client.bytes_received", "bytes", "lower", 0},
	{"client.idle_polls", "count", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"client.resyncs", "count", "lower", 0},
	{"client.compute_s", "s", "lower", 0},
	{"client.self_s", "s", "lower", 0},
	{"client.idle_s", "s", "lower", 0},
	{"http.wire_s", "s", "lower", 0},
	{"http.wire_p50_us", "us", "lower", 0},
	{"icserver.handler_s", "s", "lower", 0},
	{"icserver.handler_p50_us", "us", "lower", 0},
	{"icserver.handler_p99_us", "us", "lower", 0},
	{"icserver.lock_hold_mean_us", "us", "lower", 0},
	{"icserver.grants_per_request", "tasks", "higher", 0},
	{"icserver.stalls", "count", "lower", 0},
	{"icserver.reissues", "count", "lower", 0},
	{"icserver.core_call_s", "s", "lower", 0},
	{"icserver.core_call_p50_us", "us", "lower", 0},
	{"icserver.core_call_p99_us", "us", "lower", 0},
	{"heur.static_ns_per_task", "ns/task", "lower", 0},
	{"sched.profile_ns_per_node", "ns/node", "lower", 0},
	{"relaxed.push_pop_ns_per_task", "ns/task", "lower", 0},
	{"exec.serial_tasks_per_s", "tasks/s", "higher", 0},
	{"wal.records", "count", "lower", 0},
	{"wal.bytes_appended", "bytes", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.fsync_s", "s", "lower", 0},
	{"wal.fsync_p50_us", "us", "lower", 0},
	{"wal.fsync_p99_us", "us", "lower", 0},
	{"wal.records_per_fsync", "records", "higher", 0},
	{"wal.fsync_share", "share", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	{"jobs.submit_p50_us", "us", "lower", 0},
	{"jobs.submit_p99_us", "us", "lower", 0},
	{"jobs.queue_wait_p50_ms", "ms", "lower", 0},
	{"jobs.hit_latency_p50_ms", "ms", "lower", 0},
	{"jobs.miss_latency_p50_ms", "ms", "lower", 0},
	{"jobs.replay_jobs", "count", "higher", 0},
	{"jobs.refused", "count", "lower", 0},
	{"schedcache.hits", "count", "higher", 0},
	{"schedcache.misses", "count", "lower", 0},
	{"schedcache.hit_rate", "share", "higher", 0},
	{"schedcache.cold_us_mean", "us", "lower", 0},
	{"schedcache.warm_us_mean", "us", "lower", 0},
	{"schedcache.canonicalize_us_mean", "us", "lower", 0},
	{"dagio.unmarshal_us_mean", "us", "lower", 0},
	{"budget.fleet_s", "s", "lower", 0},
	{"budget.fsync_blocked_s", "s", "lower", 0},
	{"budget.unexplained_share", "share", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"ops_failed_share", "share", "lower", 0},
	{"run.rounds", "count", "higher", 0},
	{"run.gomaxprocs", "count", "higher", 0},
}

// options is one run's settings.
type options struct {
	sz      sizes
	seed    int64
	seconds float64 // measure until this much time has passed ...
	rounds  int     // ... or, when positive, for exactly this many rounds
	trace   bool
	outDir  string
}

// value is one metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// Kept for the human-readable report and the package test.
	e2e, layers map[string]float64
	tasks, jobs int // per round
	digest      uint64
	budget      string
}

// workloadTimeout is the hard limit on one run of one workload.
const workloadTimeout = 2 * time.Minute

// procs is the run's GOMAXPROCS.  One, not the runtime default: the
// reference box shows two CPUs that together do the work of about one
// (two busy loops each run 1.8× slower than one alone), so a second P
// adds no capacity, only wake-ups across CPUs whose cost moves with the
// host's load (README.md, "Noise").  Blocking system calls (fsync) still
// overlap with the other goroutines.
const procs = 1

// runWorkload prepares w, runs its rounds and reduces them to metrics.
// An error means a correctness check failed (or the run could not be
// carried out at all); a slow run is never an error.
func runWorkload(w workload, opt options) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout)
	defer cancel()
	tmp, err := os.MkdirTemp(opt.outDir, "tmp-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	cfg := config{sz: opt.sz, seed: opt.seed, tmpDir: tmp}

	// Set-up is repeated like a round, and reduced the same way.
	var sc scenario
	var prepareS []float64
	for i := 0; i < opt.sz.prepareReps; i++ {
		runtime.GC()
		start := time.Now()
		if sc, err = w.prepare(cfg); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		prepareS = append(prepareS, time.Since(start).Seconds())
	}

	// One unmeasured round lets connection pools, the heap and the file
	// system settle; users do not pay that cost on every drain.
	if _, err := sc.round(ctx, -1, nil); err != nil {
		return result{}, fmt.Errorf("%s: warm-up round: %w", w.name, err)
	}

	// In a traced run, traced and untraced rounds alternate: the untraced
	// ones give the end-to-end metrics and the base for the overhead.
	var plain, traced []roundResult
	var spans []span
	began := time.Now()
	for r := 0; ; r++ {
		if opt.rounds > 0 && r >= opt.rounds {
			break
		}
		if opt.rounds == 0 && r >= 2 && time.Since(began).Seconds() >= opt.seconds {
			break
		}
		var tr *tracer
		if opt.trace && r%2 == 1 {
			tr = &tracer{round: r}
		}
		runtime.GC() // every round starts from a collected heap, as testing.B does
		res, err := sc.round(ctx, r, tr)
		if err != nil {
			if ctx.Err() != nil {
				err = fmt.Errorf("exceeded the %v limit for one workload: %w", workloadTimeout, err)
			}
			return result{}, fmt.Errorf("%s: round %d: %w", w.name, r, err)
		}
		if tr != nil {
			traced = append(traced, res)
			spans = res.spans // the file holds the last traced round, the one the budget line describes
		} else {
			plain = append(plain, res)
		}
	}

	out := result{Correct: true, tasks: plain[0].tasks, jobs: plain[0].jobs, digest: plain[0].digest}
	var tasksPerS, jobsPerS, grantP50, eligible, jobLatP50, constructS, plainWall []float64
	for _, r := range plain {
		tasksPerS = append(tasksPerS, float64(r.tasks)/r.wall.Seconds())
		jobsPerS = append(jobsPerS, float64(r.jobs)/r.wall.Seconds())
		grantP50 = append(grantP50, median(r.grantsUS))
		jobLatP50 = append(jobLatP50, median(r.jobLatMS))
		eligible = append(eligible, r.eligible)
		constructS = append(constructS, r.construct.Seconds())
		plainWall = append(plainWall, r.wall.Seconds())
	}
	for _, r := range append(plain, traced...) {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	// Each timing is reduced over the run's rounds to its undisturbed
	// value; eligible_ratio, which no interference moves, to its median.
	out.e2e = map[string]float64{
		"tasks_per_s":        undisturbed(tasksPerS, true),
		"grant_p50_us":       undisturbed(grantP50, false),
		"eligible_ratio":     median(eligible),
		"jobs_per_s":         undisturbed(jobsPerS, true),
		"job_latency_p50_ms": undisturbed(jobLatP50, false),
		"setup_s":            undisturbed(prepareS, false) + undisturbed(constructS, false),
	}

	out.Metrics = map[string]value{}
	if !opt.trace {
		for _, d := range endToEnd {
			out.Metrics[d.name] = value{out.e2e[d.name], d.unit}
		}
		return out, nil
	}

	out.layers = map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.layers[d.name])
		}
		out.layers[d.name] = median(xs)
	}
	var tracedWall []float64
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall.Seconds())
	}
	if err := sc.probes(out.layers); err != nil {
		return result{}, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	out.layers["trace.overhead_share"] = median(tracedWall)/median(plainWall) - 1
	out.layers["ops_failed_share"] = float64(out.Failed) / float64(out.Attempted)
	out.layers["run.rounds"] = float64(len(plain) + len(traced))
	out.layers["run.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out.budget = budgetLine(traced[len(traced)-1].layers)
	for _, d := range perLayer {
		out.Metrics[d.name] = value{out.layers[d.name], d.unit}
	}
	if err := writeSpans(filepath.Join(opt.outDir, w.name+".trace.jsonl"), spans); err != nil {
		return result{}, fmt.Errorf("%s: writing spans: %w", w.name, err)
	}
	return out, nil
}

// report prints one workload's metrics by name with their units.
func report(w workload, res result, opt options) {
	fmt.Printf("\n%s: %d tasks, %d jobs per round; seed %d; GOMAXPROCS %d\n",
		w.name, res.tasks, res.jobs, opt.seed, runtime.GOMAXPROCS(0))
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %16.4f %-8s (%s is better)\n", d.name, res.e2e[d.name], d.unit, d.better)
	}
	if opt.trace {
		for _, d := range perLayer {
			fmt.Printf("  %-34s %16.4f %s\n", d.name, res.layers[d.name], d.unit)
		}
		fmt.Printf("  %s\n", res.budget)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  operations attempted %d, failed %d (ops_failed_share %.6f)\n", res.Attempted, res.Failed, share)
}

// repeat is the repeatability mode: runs runs of w on consecutive seeds,
// then the median, the quartiles and their spread per end-to-end metric.
// A metric whose spread exceeds its bound is unresolved: a later
// difference that small could not be told from noise.
func repeat(w workload, opt options, runs int) error {
	samples := map[string][]float64{}
	for i := 0; i < runs; i++ {
		o := opt
		o.seed = opt.seed + int64(i)
		res, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		for _, d := range endToEnd {
			samples[d.name] = append(samples[d.name], res.e2e[d.name])
		}
	}
	fmt.Printf("\n%s: %d runs, seeds %d–%d\n", w.name, runs, opt.seed, opt.seed+int64(runs)-1)
	fmt.Printf("  %-22s %-8s %14s %14s %14s %8s %6s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, d := range endToEnd {
		q1, q2, q3 := quartiles(samples[d.name])
		spread := (q3 - q1) / q2
		verdict := "steady"
		if spread > d.bound {
			verdict = "unresolved"
		}
		fmt.Printf("  %-22s %-8s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%  %s\n",
			d.name, d.unit, q1, q2, q3, 100*spread, 100*d.bound, verdict)
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all of them in turn)")
	seed := flag.Int64("seed", 1, "seed of the client jitter and of the whole jobs_mix submission sequence")
	seconds := flag.Float64("seconds", 28, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 = alternate traced and untraced rounds, print the per-layer metrics, write the span files")
	runs := flag.Int("runs", 0, "repeatability mode: run each workload this many times (at least 2) on consecutive seeds")
	smoke := flag.Bool("smoke", false, "tiny sizes and two rounds per workload, as the package test runs them")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for span files and the temporary journals")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	opt := options{sz: fullSizes, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	if *smoke {
		opt.sz, opt.rounds = smokeSizes, 2
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var last result
	found := false
	for _, w := range workloads {
		if *name != "" && *name != w.name {
			continue
		}
		found = true
		if *runs >= 2 {
			if err := repeat(w, opt, *runs); err != nil {
				fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
				os.Exit(1)
			}
			continue
		}
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
			os.Exit(1)
		}
		report(w, res, opt)
		last = res
	}
	if !found {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *runs >= 2 {
		return
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
