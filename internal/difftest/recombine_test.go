package difftest

import (
	"testing"

	"icsched/internal/sched"
	"icsched/internal/shard"
)

// TestShardRecombination runs Theorem 2.1's recombination property
// (shard.CheckRecombination) over the instances `icsched difftest`
// checks by default — seed 1, 200 instances, each dag and schedule drawn
// exactly as Run draws them — cut into K ∈ [2, 4] pieces by the
// schedule-guided or the depth-banded partitioner.
func TestShardRecombination(t *testing.T) {
	cfg := Config{Seed: 1, N: 200}.withDefaults()
	var st sched.State
	for idx := cfg.Start; idx < cfg.Start+cfg.N; idx++ {
		rng := instanceRNG(cfg.Seed, idx)
		inst := generate(rng, cfg.MaxNodes)
		g := inst.g
		lat, err := analyze(g)
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", idx, err)
		}
		order, _ := chooseOrder(rng, g, lat, &st)
		k := 2 + rng.Intn(3)
		var p *shard.Partition
		if rng.Intn(2) == 0 {
			p, err = shard.ByOrder(g, k, order)
		} else {
			p, err = shard.ByLevels(g, k)
		}
		if err != nil {
			t.Fatalf("instance %d: partition: %v", idx, err)
		}
		if err := shard.CheckRecombination(g, p, order, rng); err != nil {
			t.Fatalf("instance %d (%s, %d nodes): %v", idx, inst.shape, g.NumNodes(), err)
		}
	}
}
