// Package difftest is the cross-layer differential-testing harness: it
// draws random dags (five shapes, see gen.go), runs each one through all
// three execution layers — the worker-pool executor (internal/exec), the
// discrete-event simulator (internal/icsim), and an in-process IC server
// (internal/icserver) — and asserts that every layer realizes the same
// schedule, computes the same values, and reconstructs (via the shared
// internal/obs trace schema) exactly the eligibility profile that the
// quality model (internal/sched) predicts.
//
// On top of the cross-layer checks, every instance is property-checked
// against the theory of the paper:
//
//   - oracle domination: the realized profile never exceeds the exact
//     ideal-lattice maximum (internal/opt), and an oracle-synthesized
//     schedule is confirmed optimal;
//   - duality (Theorem 2.2): the reversed packet sequence of a legal
//     nonsink schedule is legal on the dual dag, and dual-optimal when
//     the original was IC-optimal;
//   - priority duality (Theorem 2.3): prio.Holds and prio.DualHolds
//     agree on oracle-scheduled random pairs;
//   - ▷-monotonicity: inequality (2.1) re-derived from the sum-dag
//     profile agrees with prio.HoldsProfiles, and the ▷-ordered
//     concatenation pointwise dominates the reversed one;
//   - ▷-linearity (Theorem 2.1): the composition schedule of a verified
//     ▷-linear ⇑-composition is IC-optimal by the oracle.
//
// Everything is a pure function of Config.Seed: instance k of a run is
// reproduced alone with Start=k, N=1 and the same seed.
package difftest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"math/rand"

	"icsched/internal/compose"
	"icsched/internal/dag"
	"icsched/internal/exec"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/icsim"
	"icsched/internal/obs"
	"icsched/internal/opt"
	"icsched/internal/prio"
	"icsched/internal/sched"
)

// Config parameterizes one harness run.
type Config struct {
	// Seed is the master seed; instance i uses a sub-rng derived from
	// (Seed, i), so instances are independent of N and of each other.
	Seed int64
	// N is the number of instances to check (default 100).
	N int
	// Start is the index of the first instance; reproduce a failing
	// instance k by rerunning with Start=k, N=1 and the same Seed.
	Start int
	// MaxNodes caps generated dag sizes (default 28; instances whose
	// lattice outgrows the layer budget skip the oracle checks instead
	// of capping the dag).
	MaxNodes int
	// Workers is the worker count for the parallel executor pass
	// (default 4).
	Workers int
	// MaxFailures stops the run early after this many failing instances
	// (default 5).
	MaxFailures int
}

// oracleBudget caps the frontier oracle's per-layer ideal count inside
// the harness.  Every dag of ≤ 16 nodes fits (a 16-node lattice layer
// has at most C(16,8) = 12870 ideals), so raising MaxNodes past the old
// cap loses no coverage; near-antichain wide instances skip the oracle
// checks instead of exhausting memory.
const oracleBudget = 1 << 18

// analyze runs the exact oracle on g, returning nil (no error) when g
// is out of the oracle's reach and the checks should be skipped.
func analyze(g *dag.Dag) (*opt.Lattice, error) {
	l, err := opt.AnalyzeBudget(g, oracleBudget)
	if errors.Is(err, opt.ErrBudget) {
		return nil, nil
	}
	return l, err
}

func (cfg Config) withDefaults() Config {
	if cfg.N == 0 {
		cfg.N = 100
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 28
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 5
	}
	return cfg
}

// Failure records one failing instance with everything needed to
// reproduce it.
type Failure struct {
	Index int    // instance index (pass as Start with N=1 to reproduce)
	Shape string // generator shape
	Nodes int
	Err   string
}

// Report summarizes a run: how many instances each shape and each
// property check covered, and any failures.
type Report struct {
	Instances int
	ByShape   map[string]int
	// Property-check coverage counters (an instance can skip a check
	// when its precondition — oracle reach, legal nonsink prefix,
	// ▷-linearity — does not hold).
	Oracle       int // profile ≤ lattice MaxE; oracle schedules optimal
	Duality      int // Theorem 2.2 dual-schedule legality/optimality
	PrioDuality  int // Theorem 2.3 Holds == DualHolds
	Monotonicity int // inequality (2.1) vs sum-dag profiles
	Linearity    int // Theorem 2.1 on ▷-linear compositions
	Cache        int // schedule cache: warm/cold bit-identity, iso-twin hit, near-miss miss (see cache.go)
	Failures     []Failure
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "difftest: %d instances", r.Instances)
	keys := make([]string, 0, len(r.ByShape))
	for k := range r.ByShape {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == 0 {
			b.WriteString(" (")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", k, r.ByShape[k])
		if i == len(keys)-1 {
			b.WriteString(")")
		}
	}
	fmt.Fprintf(&b, "\nproperties: oracle %d, duality %d, prio-duality %d, monotonicity %d, linearity %d, cache %d",
		r.Oracle, r.Duality, r.PrioDuality, r.Monotonicity, r.Linearity, r.Cache)
	fmt.Fprintf(&b, "\nfailures: %d", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  instance %d (%s, %d nodes): %s", f.Index, f.Shape, f.Nodes, f.Err)
	}
	return b.String()
}

// instanceRNG derives instance idx's rng from the master seed with a
// splitmix64 step, so instances are decorrelated and each reproducible
// from (seed, idx) alone.
func instanceRNG(seed int64, idx int) *rand.Rand {
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Run executes the harness and returns its report; the error is non-nil
// iff any instance failed, and names the first failing instance with its
// reproduction parameters.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{ByShape: map[string]int{}}
	var scr scratch
	for idx := cfg.Start; idx < cfg.Start+cfg.N; idx++ {
		rng := instanceRNG(cfg.Seed, idx)
		inst := generate(rng, cfg.MaxNodes)
		rep.Instances++
		rep.ByShape[inst.shape]++
		if err := checkInstance(rng, inst, cfg, &rep, &scr); err != nil {
			rep.Failures = append(rep.Failures, Failure{
				Index: idx, Shape: inst.shape, Nodes: inst.g.NumNodes(), Err: err.Error(),
			})
			if len(rep.Failures) >= cfg.MaxFailures {
				break
			}
		}
	}
	if n := len(rep.Failures); n > 0 {
		f := rep.Failures[0]
		return rep, fmt.Errorf("difftest: %d of %d instances failed; first: instance %d (%s, %d nodes; reproduce with -seed %d -start %d -n 1): %s",
			n, rep.Instances, f.Index, f.Shape, f.Nodes, cfg.Seed, f.Index, f.Err)
	}
	return rep, nil
}

// scratch is replay state reused across instances: one bitset execution
// state plus the model-profile buffer, Reset-rebound per dag so the hot
// loops of the harness do not allocate.
type scratch struct {
	st   sched.State
	prof []int
}

// checkInstance runs every cross-layer and property check on one
// generated instance.
func checkInstance(rng *rand.Rand, inst instance, cfg Config, rep *Report, scr *scratch) error {
	g := inst.g
	lat, err := analyze(g)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	order, oracleOptimal := chooseOrder(rng, g, lat, &scr.st)
	if len(order) != g.NumNodes() {
		return fmt.Errorf("generated order has %d nodes, dag has %d", len(order), g.NumNodes())
	}
	scr.st.Reset(g)
	if err := scr.st.Replay(order); err != nil {
		return fmt.Errorf("generated order illegal: %w", err)
	}
	want, err := scr.st.ProfileInto(order, scr.prof)
	if err != nil {
		return fmt.Errorf("model profile: %w", err)
	}
	scr.prof = want
	ref := refValues(g)

	// Cross-layer: all three layers must realize the schedule, agree on
	// computed values, and reconstruct the model profile from traces.
	if err := checkExecSerial(g, order, want, ref); err != nil {
		return fmt.Errorf("exec(serial): %w", err)
	}
	if err := checkExecParallel(g, cfg.Workers, order, ref); err != nil {
		return fmt.Errorf("exec(parallel): %w", err)
	}
	if err := checkSim(g, order, want, rng.Int63()); err != nil {
		return fmt.Errorf("icsim: %w", err)
	}
	if err := checkServer(g, order, want); err != nil {
		return fmt.Errorf("icserver: %w", err)
	}
	if err := checkServerBatched(g, order, ref, rng); err != nil {
		return fmt.Errorf("icserver(batched): %w", err)
	}

	// Schedule-cache differential lane: cold/warm bit-identity, replay
	// drive, isomorphic-twin translation, near-miss guard.
	if err := checkCache(g, order, want, ref, rng); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	rep.Cache++

	// Theory properties.
	if lat != nil {
		rep.Oracle++
		maxE := lat.MaxE()
		for t := range want {
			if want[t] > maxE[t] {
				return fmt.Errorf("profile exceeds oracle maximum at step %d: %d > %d", t, want[t], maxE[t])
			}
		}
		if oracleOptimal {
			ok, step, err := lat.IsOptimal(order)
			if err != nil {
				return fmt.Errorf("oracle IsOptimal: %w", err)
			}
			if !ok {
				return fmt.Errorf("oracle-synthesized schedule not optimal at step %d", step)
			}
		}
	}
	if err := checkDuality(g, order, oracleOptimal, rep); err != nil {
		return fmt.Errorf("duality: %w", err)
	}
	if err := checkPrioDuality(rng, rep); err != nil {
		return fmt.Errorf("prio duality: %w", err)
	}
	if err := checkMonotonicity(rng, rep); err != nil {
		return fmt.Errorf("monotonicity: %w", err)
	}
	if inst.comp != nil {
		if err := checkLinearity(inst.comp, lat, rep); err != nil {
			return fmt.Errorf("linearity: %w", err)
		}
	}
	return nil
}

// chooseOrder picks the schedule the cross-layer passes will realize:
// half the time the oracle's IC-optimal schedule (when one exists), the
// other half a uniformly random legal order, so both the optimal and the
// arbitrary-legal regimes are exercised.
func chooseOrder(rng *rand.Rand, g *dag.Dag, lat *opt.Lattice, st *sched.State) ([]dag.NodeID, bool) {
	if lat != nil && rng.Intn(2) == 0 {
		if o, ok := lat.OptimalSchedule(); ok {
			return o, true
		}
	}
	return randomLegalOrder(rng, g, st), false
}

// randomLegalOrder draws a legal full execution order by repeatedly
// executing a uniformly chosen ELIGIBLE node (popcount select on the
// reused bitset state — the loop allocates only the order itself).
func randomLegalOrder(rng *rand.Rand, g *dag.Dag, st *sched.State) []dag.NodeID {
	st.Reset(g)
	order := make([]dag.NodeID, 0, g.NumNodes())
	for !st.Done() {
		v := st.EligibleAt(rng.Intn(st.NumEligible()))
		if err := st.Advance(v); err != nil {
			panic("difftest: eligible node rejected: " + err.Error())
		}
		order = append(order, v)
	}
	return order
}

// refValues is the order-independent ground truth the layers must agree
// on: vals[v] = fnv(v, parents' values), computed in topological order.
func refValues(g *dag.Dag) []uint64 {
	vals := make([]uint64, g.NumNodes())
	for _, v := range g.TopoOrder() {
		vals[v] = nodeValue(g, v, vals)
	}
	return vals
}

// nodeValue hashes v's ID together with its parents' values (FNV-1a).
// Parents are read in g's fixed adjacency order, so any execution
// respecting the dependencies computes the same value.
func nodeValue(g *dag.Dag, v dag.NodeID, vals []uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(v))
	for _, p := range g.Parents(v) {
		mix(vals[p])
	}
	return h
}

// checkExecSerial: with one worker, the executor must realize exactly
// the rank order, and the trace-reconstructed profile must equal the
// quality model's sched.Profile bit for bit.
func checkExecSerial(g *dag.Dag, order []dag.NodeID, want []int, ref []uint64) error {
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		return err
	}
	tr := obs.NewTrace()
	vals := make([]uint64, g.NumNodes())
	started, err := exec.RunRetryObserved(g, rank, 1, 1, func(v dag.NodeID) error {
		vals[v] = nodeValue(g, v, vals)
		return nil
	}, tr)
	if err != nil {
		return err
	}
	if !equalIDs(started, order) {
		return fmt.Errorf("realized order %v, want %v", started, order)
	}
	if err := equalValues(vals, ref); err != nil {
		return err
	}
	prof, err := tr.EligibilityProfile()
	if err != nil {
		return err
	}
	if !equalInts(prof, want) {
		return fmt.Errorf("trace profile %v, model profile %v", prof, want)
	}
	return nil
}

// checkExecParallel: with several workers the realized order is
// nondeterministic, but it must still be legal, the values must match,
// and the trace profile must equal sched.Profile of the realized
// completion order — the quality model is order-sensitive but
// trace-consistent.
func checkExecParallel(g *dag.Dag, workers int, order []dag.NodeID, ref []uint64) error {
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		return err
	}
	tr := obs.NewTrace()
	vals := make([]uint64, g.NumNodes())
	started, err := exec.RunRetryObserved(g, rank, workers, 1, func(v dag.NodeID) error {
		vals[v] = nodeValue(g, v, vals)
		return nil
	}, tr)
	if err != nil {
		return err
	}
	if err := sched.Validate(g, started); err != nil {
		return fmt.Errorf("start order illegal: %w", err)
	}
	if err := equalValues(vals, ref); err != nil {
		return err
	}
	done := completions(tr)
	if err := sched.Validate(g, done); err != nil {
		return fmt.Errorf("completion order illegal: %w", err)
	}
	want, err := sched.Profile(g, done)
	if err != nil {
		return err
	}
	prof, err := tr.EligibilityProfile()
	if err != nil {
		return err
	}
	if !equalInts(prof, want) {
		return fmt.Errorf("trace profile %v, model profile of completion order %v", prof, want)
	}
	return nil
}

// checkSim: one simulated client replaying the order as a Static policy
// must complete every task in exactly that order, with no stalls or
// reissues, and its trace must reconstruct the model profile.
func checkSim(g *dag.Dag, order []dag.NodeID, want []int, seed int64) error {
	tr := obs.NewTrace()
	res, err := icsim.Run(g, heur.Static("difftest", order), icsim.Config{
		Clients: 1, Seed: seed, Trace: tr,
	})
	if err != nil {
		return err
	}
	if res.Completed != g.NumNodes() {
		return fmt.Errorf("completed %d of %d tasks", res.Completed, g.NumNodes())
	}
	if res.Stalls != 0 || res.Reissues != 0 {
		return fmt.Errorf("serial replay saw %d stalls, %d reissues", res.Stalls, res.Reissues)
	}
	if done := completions(tr); !equalIDs(done, order) {
		return fmt.Errorf("completion order %v, want %v", done, order)
	}
	prof, err := tr.EligibilityProfile()
	if err != nil {
		return err
	}
	if !equalInts(prof, want) {
		return fmt.Errorf("trace profile %v, model profile %v", prof, want)
	}
	return nil
}

// checkServer: driving an in-process IC server serially must allocate
// exactly the static order with no stalls, quarantines, or reissues, and
// its trace must reconstruct the model profile.
func checkServer(g *dag.Dag, order []dag.NodeID, want []int) error {
	tr := obs.NewTrace()
	srv := icserver.New(g, heur.Static("difftest", order),
		icserver.WithLease(0), icserver.WithTrace(tr))
	for i := 0; ; i++ {
		v, state := srv.Allocate()
		if state == icserver.AllocFinished {
			if i != len(order) {
				return fmt.Errorf("finished after %d of %d allocations", i, len(order))
			}
			break
		}
		if state != icserver.AllocOK {
			return fmt.Errorf("allocation %d stalled (state %v)", i, state)
		}
		if i >= len(order) || v != order[i] {
			return fmt.Errorf("allocation %d granted node %d, want %d", i, v, order[i])
		}
		if _, err := srv.Complete(v); err != nil {
			return fmt.Errorf("complete %d: %w", v, err)
		}
	}
	if !srv.Finished() {
		return fmt.Errorf("server not finished after all completions")
	}
	st := srv.Status()
	if st.Completed != g.NumNodes() || st.Stalls != 0 || st.Reissues != 0 || st.Quarantined != 0 {
		return fmt.Errorf("status %+v after clean serial drive", st)
	}
	prof, err := tr.EligibilityProfile()
	if err != nil {
		return err
	}
	if !equalInts(prof, want) {
		return fmt.Errorf("trace profile %v, model profile %v", prof, want)
	}
	return nil
}

// checkServerBatched drives the same instance through the batched
// protocol (AllocateBatch to bootstrap, then piggybacked ReportAllocate)
// twice.  The first pass uses rng-drawn
// batch sizes and checks the server against a pure model replica — the
// same heur.Static instance fed by a sched.State — predicting every
// grant: a batch must be exactly the ELIGIBLE prefix of the allocation
// order, whatever k is.  The second pass fixes k=1 and must realize the
// static order exactly, proving the batched endpoint degenerates to the
// paper's one-task-per-request client.  Both passes must reproduce the
// FNV ground truth, and the first pass's trace profile must match
// sched.Profile of its realized order.
func checkServerBatched(g *dag.Dag, order []dag.NodeID, ref []uint64, rng *rand.Rand) error {
	realized, tr, err := driveBatched(g, order, ref, func() int { return 1 + rng.Intn(4) })
	if err != nil {
		return err
	}
	if err := sched.Validate(g, realized); err != nil {
		return fmt.Errorf("realized batch order illegal: %w", err)
	}
	want, err := sched.Profile(g, realized)
	if err != nil {
		return err
	}
	prof, err := tr.EligibilityProfile()
	if err != nil {
		return err
	}
	if !equalInts(prof, want) {
		return fmt.Errorf("trace profile %v, model profile of realized order %v", prof, want)
	}
	serial, _, err := driveBatched(g, order, ref, func() int { return 1 })
	if err != nil {
		return fmt.Errorf("k=1 pass: %w", err)
	}
	if !equalIDs(serial, order) {
		return fmt.Errorf("k=1 batches realized %v, want the static order %v", serial, order)
	}
	return nil
}

// driveBatched runs one batched serial drive the way the steady-state
// HTTP client does: one bootstrap AllocateBatch, then every later grant
// piggybacks on the previous batch's ack via ReportAllocate.  Each grant
// is verified against the model replica, the FNV values are computed, and
// the drive repeats until the piggybacked grant reports AllocFinished.
// It returns the realized allocation order and the server trace.
func driveBatched(g *dag.Dag, order []dag.NodeID, ref []uint64, nextK func() int) ([]dag.NodeID, *obs.Trace, error) {
	tr := obs.NewTrace()
	srv := icserver.New(g, heur.Static("difftest", order), icserver.WithLease(0), icserver.WithTrace(tr))
	model := heur.Static("difftest", order).Start(g)
	st := sched.NewState(g)
	model.Offer(st.Eligible())
	vals := make([]uint64, g.NumNodes())
	var realized []dag.NodeID
	k := nextK()
	batch, state := srv.AllocateBatch(k)
	for i := 0; ; i++ {
		if i > g.NumNodes()+1 {
			return nil, nil, fmt.Errorf("batched drive did not finish after %d requests", i)
		}
		if state == icserver.AllocFinished {
			if got := srv.Status(); got.Completed != g.NumNodes() {
				return nil, nil, fmt.Errorf("finished with %d of %d completed", got.Completed, g.NumNodes())
			}
			break
		}
		if state != icserver.AllocOK || len(batch) == 0 {
			return nil, nil, fmt.Errorf("request %d (k=%d) stalled: state %v, batch %v", i, k, state, batch)
		}
		// The model predicts the grant: pop up to k eligible nodes in
		// rank order from the replica policy.
		var predicted []dag.NodeID
		for len(predicted) < k {
			v, ok := model.Next()
			if !ok {
				break
			}
			predicted = append(predicted, v)
		}
		if !equalIDs(batch, predicted) {
			return nil, nil, fmt.Errorf("request %d (k=%d) granted %v, model predicts %v", i, k, batch, predicted)
		}
		for _, v := range batch {
			vals[v] = nodeValue(g, v, vals)
			packet, err := st.Execute(v)
			if err != nil {
				return nil, nil, fmt.Errorf("model rejects granted node %d: %w", v, err)
			}
			model.Offer(packet)
		}
		k = nextK()
		rep, next, nstate, err := srv.ReportAllocate(batch, nil, k)
		if err != nil {
			return nil, nil, fmt.Errorf("report batch %v: %w", batch, err)
		}
		if rep.Completed != len(batch) || rep.Duplicates != 0 {
			return nil, nil, fmt.Errorf("report of %d tasks returned %+v", len(batch), rep)
		}
		realized = append(realized, batch...)
		batch, state = next, nstate
	}
	status := srv.Status()
	if status.Stalls != 0 || status.Reissues != 0 || status.Quarantined != 0 {
		return nil, nil, fmt.Errorf("status %+v after clean batched drive", status)
	}
	if err := equalValues(vals, ref); err != nil {
		return nil, nil, err
	}
	return realized, tr, nil
}

// checkDuality exercises Theorem 2.2 on the instance's schedule: the
// reversed packet sequence must be a legal nonsink order for the dual
// dag, and IC-optimal on it when the original schedule was.  Orders
// whose nonsink prefix interleaves sinks fall outside the [MRY06]
// nonsink convention and are skipped.
func checkDuality(g *dag.Dag, order []dag.NodeID, oracleOptimal bool, rep *Report) error {
	nonsinks := sched.NonsinkPrefix(g, order)
	if _, err := sched.NonsinkProfile(g, nonsinks); err != nil {
		return nil // interleaved-sink order: duality precondition not met
	}
	dualNS, err := sched.DualOrder(g, nonsinks)
	if err != nil {
		return fmt.Errorf("dual order: %w", err)
	}
	d := g.Dual()
	if _, err := sched.NonsinkProfile(d, dualNS); err != nil {
		return fmt.Errorf("Theorem 2.2 violated: dual schedule illegal on dual dag: %w", err)
	}
	rep.Duality++
	if !oracleOptimal {
		return nil
	}
	dl, err := analyze(d)
	if err != nil {
		return fmt.Errorf("dual oracle: %w", err)
	}
	if dl == nil {
		return nil // dual lattice out of oracle reach
	}
	ok, step, err := dl.IsOptimal(sched.Complete(d, dualNS))
	if err != nil {
		return fmt.Errorf("dual IsOptimal: %w", err)
	}
	if !ok {
		return fmt.Errorf("Theorem 2.2 violated: dual of optimal schedule suboptimal at step %d", step)
	}
	return nil
}

// checkPrioDuality exercises Theorem 2.3 on a fresh random pair with
// oracle-synthesized schedules: the direct ▷ decision and the one routed
// through Theorem 2.2 dual schedules must agree.
func checkPrioDuality(rng *rand.Rand, rep *Report) error {
	g1 := dag.Random(rng, 2+rng.Intn(7), 0.4)
	g2 := dag.Random(rng, 2+rng.Intn(7), 0.4)
	s1, ok := optimalNonsinks(g1)
	if !ok {
		return nil
	}
	s2, ok := optimalNonsinks(g2)
	if !ok {
		return nil
	}
	direct, err := prio.Holds(g1, s1, g2, s2)
	if err != nil {
		return err
	}
	viaDual, err := prio.DualHolds(g1, s1, g2, s2)
	if err != nil {
		return err
	}
	if direct != viaDual {
		return fmt.Errorf("Theorem 2.3 violated: Holds=%v but DualHolds=%v", direct, viaDual)
	}
	rep.PrioDuality++
	return nil
}

// checkMonotonicity re-derives inequality (2.1) independently from the
// sum dag: the profile of Σ1·Σ2 on G1+G2 must be the blockwise sum of
// profiles (additivity of sched.NonsinkProfile over dag.Sum), the
// brute-force split domination over that profile must agree with
// prio.HoldsProfiles, and when ▷ holds, the ▷-ordered concatenation must
// pointwise dominate the reversed one (monotonicity of the profile under
// the priority relation).
func checkMonotonicity(rng *rand.Rand, rep *Report) error {
	g1 := dag.Random(rng, 2+rng.Intn(6), 0.4)
	g2 := dag.Random(rng, 2+rng.Intn(6), 0.4)
	s1, ok := optimalNonsinks(g1)
	if !ok {
		return nil
	}
	s2, ok := optimalNonsinks(g2)
	if !ok {
		return nil
	}
	e1, err := sched.NonsinkProfile(g1, s1)
	if err != nil {
		return err
	}
	e2, err := sched.NonsinkProfile(g2, s2)
	if err != nil {
		return err
	}
	sum := dag.Sum(g1, g2)
	shift := dag.NodeID(g1.NumNodes())
	cat := append(append([]dag.NodeID{}, s1...), shifted(s2, shift)...)
	profCat, err := sched.NonsinkProfile(sum, cat)
	if err != nil {
		return fmt.Errorf("concatenated schedule illegal on sum dag: %w", err)
	}
	n1, n2 := len(s1), len(s2)
	for t := range profCat {
		x := t
		if x > n1 {
			x = n1
		}
		if profCat[t] != e1[x]+e2[t-x] {
			return fmt.Errorf("sum-dag profile not additive at step %d: %d != %d+%d",
				t, profCat[t], e1[x], e2[t-x])
		}
	}
	naive := true
	for x := 0; x <= n1 && naive; x++ {
		for y := 0; y <= n2; y++ {
			if e1[x]+e2[y] > profCat[x+y] {
				naive = false
				break
			}
		}
	}
	viaPrio, _ := prio.HoldsProfiles(e1, e2)
	if naive != viaPrio {
		return fmt.Errorf("inequality (2.1) mismatch: sum-dag re-derivation says %v, prio.HoldsProfiles says %v",
			naive, viaPrio)
	}
	if viaPrio {
		rev := append(append([]dag.NodeID{}, shifted(s2, shift)...), s1...)
		profRev, err := sched.NonsinkProfile(sum, rev)
		if err != nil {
			return fmt.Errorf("reversed concatenation illegal on sum dag: %w", err)
		}
		for t := range profRev {
			if profRev[t] > profCat[t] {
				return fmt.Errorf("▷-monotonicity violated at step %d: reversed order %d > priority order %d",
					t, profRev[t], profCat[t])
			}
		}
	}
	rep.Monotonicity++
	return nil
}

// checkLinearity exercises Theorem 2.1 on a ⇑-composed instance: when
// the composition verifies as ▷-linear, its composition schedule must be
// IC-optimal by the exact oracle.
func checkLinearity(c *compose.Composer, lat *opt.Lattice, rep *Report) error {
	linear, err := c.VerifyLinear()
	if err != nil {
		return err
	}
	if !linear || lat == nil {
		return nil
	}
	schedule, err := c.Schedule()
	if err != nil {
		return fmt.Errorf("Theorem 2.1 schedule: %w", err)
	}
	ok, step, err := lat.IsOptimal(schedule)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("Theorem 2.1 violated: ▷-linear composition schedule suboptimal at step %d", step)
	}
	rep.Linearity++
	return nil
}

// optimalNonsinks synthesizes an IC-optimal nonsink order from the
// oracle, returning ok=false when the dag admits none or the synthesized
// order interleaves sinks (outside the nonsink convention).
func optimalNonsinks(g *dag.Dag) ([]dag.NodeID, bool) {
	lat, err := opt.Analyze(g)
	if err != nil {
		return nil, false
	}
	o, ok := lat.OptimalSchedule()
	if !ok {
		return nil, false
	}
	s := sched.NonsinkPrefix(g, o)
	if _, err := sched.NonsinkProfile(g, s); err != nil {
		return nil, false
	}
	return s, true
}

// completions extracts the completion order from a trace's done events.
func completions(tr *obs.Trace) []dag.NodeID {
	var done []dag.NodeID
	for _, ev := range tr.Events() {
		if ev.Phase == obs.PhaseDone {
			done = append(done, dag.NodeID(ev.Task))
		}
	}
	return done
}

func shifted(xs []dag.NodeID, by dag.NodeID) []dag.NodeID {
	out := make([]dag.NodeID, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

func equalIDs(a, b []dag.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalValues(got, want []uint64) error {
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("node %d computed %#x, want %#x", v, got[v], want[v])
		}
	}
	return nil
}
