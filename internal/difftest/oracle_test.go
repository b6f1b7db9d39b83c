package difftest

import "testing"

// legacyMaxNodes is the node cap of the pre-frontier oracle, which
// survives only as internal/opt's test reference (legacy_test.go).
const legacyMaxNodes = 26

// TestHarnessBeyondLegacyReach pins the raised node bound: the default
// harness configuration must generate and fully check instances larger
// than the legacy oracle could ever reach.
func TestHarnessBeyondLegacyReach(t *testing.T) {
	cfg := Config{Seed: 5, N: 60}.withDefaults()
	if cfg.MaxNodes <= legacyMaxNodes {
		t.Fatalf("default MaxNodes = %d does not exceed the legacy cap %d", cfg.MaxNodes, legacyMaxNodes)
	}
	rep, err := Run(Config{Seed: 5, N: 60})
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for idx := 0; idx < 60; idx++ {
		rng := instanceRNG(5, idx)
		if inst := generate(rng, cfg.MaxNodes); inst.g.NumNodes() > legacyMaxNodes {
			big++
		}
	}
	if big == 0 {
		t.Fatal("no instance exceeded the legacy node cap; raise N or the bound")
	}
	if rep.Oracle == 0 {
		t.Fatal("oracle checks never ran")
	}
	t.Logf("%d of %d instances beyond the legacy cap; oracle covered %d", big, rep.Instances, rep.Oracle)
}
