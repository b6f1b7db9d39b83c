package jobs

import (
	"fmt"
	"strings"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/dagio"
	"icsched/internal/heur"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/sched"
	"icsched/internal/schedcache"
)

// maxJobNodes bounds one job's dag so a single submission cannot pin the
// admitter (or the registry's memory) arbitrarily long.
const maxJobNodes = 1 << 20

// familyBuilder builds one named dag family at a size, returning the dag
// and the IC-optimal nonsink allocation prefix the analysis completes.
type familyBuilder struct {
	desc     string
	min, max int
	build    func(size int) (*dag.Dag, []dag.NodeID)
}

// familyBuilders are the named families a job submission may reference —
// the paper's three production workloads (§4–§6), at caller-chosen sizes.
var familyBuilders = map[string]familyBuilder{
	"wavefront": {"s×s grid dag (§4 dynamic-programming wavefront)", 2, 512,
		func(s int) (*dag.Dag, []dag.NodeID) {
			return mesh.Grid(s, s), mesh.GridDiagonalNonsinks(s, s)
		}},
	"fftconv": {"d-dimensional FFT butterfly network (§5)", 1, 16,
		func(d int) (*dag.Dag, []dag.NodeID) {
			return butterfly.Network(d), butterfly.Nonsinks(d)
		}},
	"prefix": {"n-input parallel-prefix network (§6)", 2, 4096,
		func(n int) (*dag.Dag, []dag.NodeID) {
			return prefix.Network(n), prefix.Nonsinks(n)
		}},
}

// buildJob is the admitter's first step: resolve a Spec into a dag plus
// (for named families) the IC-optimal nonsink prefix.  A panicking
// family constructor is reported as a build error, not a crashed admitter.
func buildJob(sp Spec) (g *dag.Dag, nonsinks []dag.NodeID, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, nonsinks, err = nil, nil, fmt.Errorf("jobs: build panic: %v", r)
		}
	}()
	switch {
	case len(sp.Dag) > 0:
		g, err = dagio.UnmarshalJSON(sp.Dag)
		if err != nil {
			return nil, nil, err
		}
		if g.NumNodes() == 0 {
			return nil, nil, fmt.Errorf("jobs: empty dag")
		}
	default:
		fb, ok := familyBuilders[sp.Family]
		if !ok {
			return nil, nil, fmt.Errorf("jobs: unknown family %q", sp.Family)
		}
		if sp.Size < fb.min || sp.Size > fb.max {
			return nil, nil, fmt.Errorf("jobs: family %s size %d outside [%d, %d]",
				sp.Family, sp.Size, fb.min, fb.max)
		}
		g, nonsinks = fb.build(sp.Size)
	}
	if g.NumNodes() > maxJobNodes {
		return nil, nil, fmt.Errorf("jobs: dag has %d nodes, cap %d", g.NumNodes(), maxJobNodes)
	}
	return g, nonsinks, nil
}

// cacheClass partitions the schedule cache by analysis kind: two dags of
// identical shape still need separate entries when different analyses
// would order them (a family's IC-optimal completion vs the raw-payload
// analyzer, MAX-NEW-ELIGIBLE under its better tie-break).
func cacheClass(sp Spec) string {
	if sp.Family != "" {
		return fmt.Sprintf("family/%s/%d", sp.Family, sp.Size)
	}
	return "heur/max-new-eligible-best-tie-break"
}

// maxNewProvenance prefixes the provenance of a raw payload's order; the
// tie-break the analyzer kept follows it.
const maxNewProvenance = "max-new-eligible/"

// provenance labels how a cached order was derived: a family's
// IC-optimal completion (tie "") or MAX-NEW-ELIGIBLE under tie.
func provenance(tie heur.TieBreak) string {
	if tie == "" {
		return "ic-optimal"
	}
	return maxNewProvenance + string(tie)
}

// tieOf reads the tie-break back out of a provenance ("" for a family's).
func tieOf(prov string) heur.TieBreak {
	if tie, ok := strings.CutPrefix(prov, maxNewProvenance); ok {
		return heur.TieBreak(tie)
	}
	return ""
}

// recoverOrder re-derives a recovered job's allocation order.  It goes
// through the cache (so recovering many same-shape jobs analyzes once),
// but a raw job keeps the MAX-NEW-ELIGIBLE tie-break its activate event
// recorded, and a job whose journal holds cursor records MUST get
// byte-for-byte the order the journal was written against — that
// variant's deterministic output on this labeled dag.  So a cache entry
// of the other tie-break, or a non-exact (relabeled) hit for a replay
// job, falls back to a direct recomputation rather than a translated
// order.
func (s *Server) recoverOrder(j *Job) ([]dag.NodeID, error) {
	res, err := s.lookupOrder(j)
	if err != nil {
		return nil, err
	}
	if tieOf(res.Provenance) == j.tie && (res.Exact || !j.replay) {
		return res.Order, nil
	}
	if j.nonsinks != nil {
		return sched.Complete(j.g, j.nonsinks), nil
	}
	order, err := heur.RunOrder(j.g, heur.MaxNewEligibleBy(j.tie))
	if err != nil {
		return nil, fmt.Errorf("jobs: analyze: %w", err)
	}
	return order, nil
}

// lookupOrder resolves a built job's allocation order through the
// schedule cache, running analyzeJob on a miss.
func (s *Server) lookupOrder(j *Job) (schedcache.Result, error) {
	return s.cfg.Cache.GetOrCompute(j.g, cacheClass(j.spec), func() ([]dag.NodeID, string, error) {
		order, tie, err := analyzeJob(j.g, j.nonsinks)
		return order, provenance(tie), err
	})
}

// analyzeJob is the admitter's analysis: compute the allocation order
// the job's scheduler replays.  Named families complete their IC-optimal
// nonsink prefix (the paper's schedule, tie ""); raw dagio payloads get
// heur.BestMaxNewEligible, the strongest online heuristic under the
// tie-break (ID or offer order) whose eligibility profile is better, and
// the tie-break it kept.  Deterministic for a given Spec, so a recovered
// job re-derives the identical order its journal was written against.
func analyzeJob(g *dag.Dag, nonsinks []dag.NodeID) ([]dag.NodeID, heur.TieBreak, error) {
	if nonsinks != nil {
		return sched.Complete(g, nonsinks), "", nil
	}
	order, tie, err := heur.BestMaxNewEligible(g)
	if err != nil {
		return nil, "", fmt.Errorf("jobs: analyze: %w", err)
	}
	return order, tie, nil
}
