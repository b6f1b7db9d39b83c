package compose_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"icsched/internal/blocks"
	"icsched/internal/compose"
	"icsched/internal/dag"
	"icsched/internal/opt"
)

// TestTheorem21OnRandomLinearCompositions is the theorem-level property
// test: build a RANDOM composition whose block sequence is ▷-linear by
// construction (Vee-family blocks, then Lambda-family blocks — V ▷ V,
// V ▷ Λ, Λ ▷ Λ), with RANDOM merge choices, and require the Theorem 2.1
// schedule to be IC-optimal per the exact oracle, every time.
func TestTheorem21OnRandomLinearCompositions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var c compose.Composer

		addRandomMerges := func(b compose.Block) bool {
			// Collect current sinks (nodes with outdeg 0) from the built
			// composite so far.
			g, err := c.Dag()
			if err != nil {
				return false
			}
			sinks := g.Sinks()
			sources := b.G.Sources()
			r.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
			r.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
			k := 0
			if len(sinks) > 0 && len(sources) > 0 {
				maxK := len(sinks)
				if len(sources) < maxK {
					maxK = len(sources)
				}
				k = r.Intn(maxK + 1)
			}
			var merges []compose.Merge
			for i := 0; i < k; i++ {
				merges = append(merges, compose.Merge{Source: sources[i], Sink: sinks[i]})
			}
			return c.Add(b, merges) == nil
		}

		// Phase 1: 1-3 Vee blocks of uniform degree (V ▷ V needs equal
		// degrees to be safe; see the mixed-arity counterexample).
		deg := 2 + r.Intn(2)
		nVee := 1 + r.Intn(3)
		if err := c.Add(blocks.VeeDBlock(deg), nil); err != nil {
			return false
		}
		for i := 1; i < nVee; i++ {
			if !addRandomMerges(blocks.VeeDBlock(deg)) {
				return false
			}
		}
		// Phase 2: 1-3 Lambda blocks (Λ ▷ Λ holds at any degrees? keep
		// uniform degree 2 per the paper's blocks).
		nLam := 1 + r.Intn(3)
		for i := 0; i < nLam; i++ {
			if !addRandomMerges(blocks.LambdaBlock()) {
				return false
			}
		}

		linear, err := c.VerifyLinear()
		if err != nil || !linear {
			return false // the construction must be ▷-linear
		}
		g, err := c.Dag()
		if err != nil {
			return false
		}
		l, err := opt.Analyze(g)
		if errors.Is(err, opt.ErrBudget) {
			return true // skip samples beyond the oracle's reach
		}
		if err != nil {
			return false
		}
		order, err := c.Schedule()
		if err != nil {
			return false
		}
		ok, _, err := l.IsOptimal(order)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem21OnRandomButterflyChains does the same with butterfly
// blocks only (B ▷ B), pairing random sink pairs.
func TestTheorem21OnRandomButterflyChains(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var c compose.Composer
		if err := c.Add(blocks.ButterflyBlock(), nil); err != nil {
			return false
		}
		nBlocks := 1 + r.Intn(3)
		for i := 0; i < nBlocks; i++ {
			g, err := c.Dag()
			if err != nil {
				return false
			}
			sinks := g.Sinks()
			r.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
			k := r.Intn(3) // merge 0, 1 or 2 of the block's sources
			var merges []compose.Merge
			for j := 0; j < k && j < len(sinks); j++ {
				merges = append(merges, compose.Merge{Source: dag.NodeID(j), Sink: sinks[j]})
			}
			if err := c.Add(blocks.ButterflyBlock(), merges); err != nil {
				return false
			}
		}
		linear, err := c.VerifyLinear()
		if err != nil || !linear {
			return false
		}
		g, err := c.Dag()
		if err != nil {
			return false
		}
		l, err := opt.Analyze(g)
		if errors.Is(err, opt.ErrBudget) {
			return true
		}
		if err != nil {
			return false
		}
		order, err := c.Schedule()
		if err != nil {
			return false
		}
		ok, _, err := l.IsOptimal(order)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
