package chaos_test

import (
	"testing"

	"icsched/internal/chaos"
	"icsched/internal/faults"
)

// TestChaosEndToEnd is the headline recovery proof: every workload family
// (Pascal wavefront, FFT convolution, parallel prefix) executed through
// the real HTTP server under a seeded fault plan — ≥10% of allocations
// crash the client, plus compute errors, dropped responses, injected
// 500s, and latency spikes — completes with answers bit-identical to the
// fault-free execution, zero quarantined (lost) tasks, and no hang.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := chaos.Config{Seed: 7}
	reports, err := chaos.RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashes, reissues := 0, 0
	for _, r := range reports {
		t.Log(r)
		if r.Completed != r.Tasks {
			t.Errorf("%s: completed %d of %d tasks", r.Workload, r.Completed, r.Tasks)
		}
		if r.Quarantined != 0 {
			t.Errorf("%s: %d tasks lost to quarantine", r.Workload, r.Quarantined)
		}
		crashes += r.Crashes
		reissues += r.Reissues
	}
	// The plan must have produced real chaos, and the server real
	// recovery — otherwise this test proves nothing.
	if crashes == 0 {
		t.Error("no client crashes at a 10% crash rate")
	}
	if reissues == 0 {
		t.Error("no reissues despite crashes")
	}
}

// TestChaosHighFaultPressure pushes the combined fault probability near
// 30% on the wavefront alone and still demands exactness.
func TestChaosHighFaultPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	rep, err := chaos.Wavefront(chaos.Config{
		Seed: 99,
		Rates: faults.Rates{
			Crash:        0.15,
			ComputeError: 0.15,
			DropResponse: 0.08,
			HTTPError:    0.08,
			Latency:      0.05,
		},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Quarantined != 0 || rep.Completed != rep.Tasks {
		t.Fatalf("high-pressure run lost tasks: %s", rep)
	}
	if rep.Crashes == 0 || rep.HandBacks == 0 {
		t.Fatalf("high-pressure run injected no faults: %s", rep)
	}
}

// TestServerKillRecovery is the crash-safe-server acceptance proof: the
// 32×32 grid wavefront survives 3 seeded SIGKILL/restart cycles — each
// restart rebuilding the scheduler from the write-ahead journal and
// fencing the dead incarnation's clients behind a bumped epoch — with
// FNV node values bit-identical to the uncrashed serial reference, zero
// quarantined tasks, final epoch 4, and the journal's done order
// replaying to exactly the eligibility profile the obs trace
// reconstructs.
func TestServerKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	rep, err := chaos.ServerKill(chaos.Config{Seed: 7}, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Kills != 3 {
		t.Errorf("fired %d of 3 scheduled kills", rep.Kills)
	}
	if rep.Completed != rep.Tasks {
		t.Errorf("completed %d of %d tasks", rep.Completed, rep.Tasks)
	}
}

// TestServerKillBatchedProtocol reruns the kill lane with a grant cap
// of 8: a restart can now orphan whole multi-task grants at once, and the /report that tries to ack them must survive the
// stale-epoch rejection, resync the fencing token, and be absorbed by
// the successor as applications or idempotent duplicates.
func TestServerKillBatchedProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	rep, err := chaos.ServerKill(chaos.Config{Seed: 11, Batch: 8}, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Kills != 2 {
		t.Errorf("fired %d of 2 scheduled kills", rep.Kills)
	}
}

// TestChaosBatchedProtocol reruns the wavefront recovery proof with a
// grant cap of 8: crashes now abandon whole grants at once, and
// /report retries after dropped responses replay entire mixed batches —
// recovery and bit-exactness must survive both.
func TestChaosBatchedProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	rep, err := chaos.Wavefront(chaos.Config{Seed: 7, Batch: 8}, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Completed != rep.Tasks {
		t.Errorf("completed %d of %d tasks", rep.Completed, rep.Tasks)
	}
	if rep.Quarantined != 0 {
		t.Errorf("%d tasks lost to quarantine", rep.Quarantined)
	}
	if rep.Crashes == 0 {
		t.Error("no client crashes at a 10% crash rate")
	}
}
