package jobs

import (
	"context"
	"fmt"
	"path/filepath"

	"icsched/internal/dag"
	"icsched/internal/icserver"
	"icsched/internal/shard"
)

// taskCore is the grant surface the job service drives.  Active jobs
// normally hold a single *icserver.Server; a job submitted with
// Spec.Shards > 1 holds a shardedCore instead — K embedded shard
// servers behind one shard.Coordinator, speaking global node IDs.
type taskCore interface {
	AllocateBatch(k int) ([]dag.NodeID, icserver.AllocState)
	Report(done, failed []dag.NodeID) (icserver.BatchReport, error)
	Status() icserver.Status
	Epoch() uint64
	Finished() bool
	Shutdown(ctx context.Context) error
	Kill()
}

// shardedCore adapts a shard.Coordinator to the taskCore surface: the
// job pipeline keeps addressing tasks by global node ID while grants
// are drawn round-robin from the shard frontiers (any interleaving of
// the per-shard restrictions is IC-legal under ⇑-composition) and
// completions are routed to their owning shard, with a synchronous
// bus pump so cross-shard credits land before the report is acked.
type shardedCore struct {
	coord *shard.Coordinator
	p     *shard.Partition
	next  int // round-robin allocation cursor over shards
}

// newShardedCore cuts the job's dag into k schedule-guided components
// and starts the coordinator (journal-backed under dir, memory-only
// when dir is empty).
func newShardedCore(j *Job, k int, dir string, cfg Config) (*shardedCore, error) {
	p, err := shard.ByOrder(j.g, k, j.g.TopoOrder())
	if err != nil {
		return nil, fmt.Errorf("jobs: partition %s: %w", j.id, err)
	}
	scfg := shard.Config{
		Lease:       cfg.Lease,
		MaxAttempts: cfg.MaxAttempts,
		WalOpts:     cfg.Wal,
	}
	if dir != "" {
		scfg.Dir = filepath.Join(dir, "job-"+j.id)
	}
	coord, err := shard.New(j.g, j.order, p, scfg)
	if err != nil {
		return nil, fmt.Errorf("jobs: shard %s: %w", j.id, err)
	}
	return &shardedCore{coord: coord, p: p}, nil
}

// AllocateBatch pulls up to k tasks, sweeping the shards round-robin
// from a rotating start so no shard's frontier starves, translating
// local grants to global IDs.
func (sc *shardedCore) AllocateBatch(k int) ([]dag.NodeID, icserver.AllocState) {
	var batch []dag.NodeID
	finished := 0
	for t := 0; t < sc.p.K && len(batch) < k; t++ {
		i := (sc.next + t) % sc.p.K
		local, st := sc.coord.Server(i).AllocateBatch(k - len(batch))
		if st == icserver.AllocFinished {
			finished++
			continue
		}
		for _, lv := range local {
			batch = append(batch, sc.p.Global(i, lv))
		}
	}
	sc.next = (sc.next + 1) % sc.p.K
	switch {
	case len(batch) > 0:
		return batch, icserver.AllocOK
	case finished == sc.p.K:
		return nil, icserver.AllocFinished
	default:
		return nil, icserver.AllocEmpty
	}
}

// Report routes each acked task to its owning shard, then pumps the
// bus so completions on one shard become eligibility credits on the
// next before this report's piggybacked grant is drawn.
func (sc *shardedCore) Report(done, failed []dag.NodeID) (icserver.BatchReport, error) {
	byShard := func(vs []dag.NodeID) (map[int][]dag.NodeID, error) {
		m := make(map[int][]dag.NodeID)
		for _, v := range vs {
			if v < 0 || int(v) >= sc.p.NumNodes() {
				return nil, fmt.Errorf("icserver: task %d out of range", v)
			}
			i := sc.p.ShardOf[v]
			m[i] = append(m[i], sc.p.LocalOf[v])
		}
		return m, nil
	}
	doneBy, err := byShard(done)
	if err != nil {
		return icserver.BatchReport{}, err
	}
	failedBy, err := byShard(failed)
	if err != nil {
		return icserver.BatchReport{}, err
	}
	var rep icserver.BatchReport
	for i := 0; i < sc.p.K; i++ {
		if len(doneBy[i]) == 0 && len(failedBy[i]) == 0 {
			continue
		}
		r, err := sc.coord.Server(i).Report(doneBy[i], failedBy[i])
		if err != nil {
			return rep, err
		}
		rep.NewlyEligible += r.NewlyEligible
		rep.Completed += r.Completed
		rep.Duplicates += r.Duplicates
		rep.Requeued += r.Requeued
		rep.Quarantined += r.Quarantined
	}
	sc.coord.Pump()
	return rep, nil
}

// Status aggregates the shard servers into one icserver.Status; Epoch
// is the sum of the shard epochs, so any single shard recovery fences
// clients holding the old job-level token.
func (sc *shardedCore) Status() icserver.Status {
	st := sc.coord.Status()
	agg := icserver.Status{
		Total:       st.Total,
		Completed:   st.Completed,
		Eligible:    st.Eligible,
		Allocated:   st.Allocated,
		Quarantined: st.Quarantined,
		Reissues:    st.Reissues,
		Stalls:      st.Stalls,
	}
	for _, sh := range st.PerShard {
		agg.Failed += sh.Failed
		agg.Epoch += sh.Epoch
	}
	return agg
}

func (sc *shardedCore) Epoch() uint64 {
	var sum uint64
	for i := 0; i < sc.p.K; i++ {
		sum += sc.coord.Server(i).Epoch()
	}
	return sum
}

func (sc *shardedCore) Finished() bool { return sc.coord.Finished() }

func (sc *shardedCore) Shutdown(ctx context.Context) error { return sc.coord.Shutdown(ctx) }

func (sc *shardedCore) Kill() { sc.coord.Kill() }
