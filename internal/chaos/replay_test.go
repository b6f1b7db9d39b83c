package chaos

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"icsched/internal/faults"
	"icsched/internal/obs"
)

// TestReplayDeterminism pins down the two random streams a chaos run
// consumes: the fault plan's per-kind decision streams and the jitter
// seeds handed to each client incarnation.  Two runs configured with the
// same Seed must see identical values from both — this is what makes a
// failing chaos seed a reproducible bug report rather than a flake.
func TestReplayDeterminism(t *testing.T) {
	kinds := []faults.Kind{
		faults.Crash, faults.ComputeError, faults.DropResponse,
		faults.HTTPError, faults.Latency,
	}
	p1 := faults.NewPlan(42, DefaultRates())
	p2 := faults.NewPlan(42, DefaultRates())
	for n := 0; n < 2000; n++ {
		for _, k := range kinds {
			d1, d2 := p1.Decide(k), p2.Decide(k)
			if d1 != d2 {
				t.Fatalf("decision %d of %v: run A %v, run B %v", n, k, d1, d2)
			}
		}
	}

	// Jitter seeds are a pure function of (run seed, client, respawn),
	// never the zero sentinel (which would fall back to process-order
	// defaults), and distinct across incarnations so the fleet stays
	// decorrelated.
	seen := make(map[int64]string)
	for c := 0; c < 8; c++ {
		for r := 0; r < 4; r++ {
			s := clientSeed(42, c, r)
			if s != clientSeed(42, c, r) {
				t.Fatalf("clientSeed(42, %d, %d) not stable", c, r)
			}
			if s == 0 {
				t.Fatalf("clientSeed(42, %d, %d) = 0, the default-seed sentinel", c, r)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("clientSeed collision: client %d respawn %d repeats %s", c, r, prev)
			}
			seen[s] = t.Name()
		}
	}
	if clientSeed(42, 0, 0) == clientSeed(43, 0, 0) {
		t.Fatal("different run seeds produced the same client seed")
	}
	// That equal seeds yield equal jitter sequences is asserted where the
	// rng lives, in icserver's jitter tests.
}

// TestChaosTraceRecorded wires a recorder through a small chaos run and
// checks the server-side story is complete: the run brackets with
// run-start/run-end, every task's completion is recorded, and client
// actors carry the fleet's IDs.
func TestChaosTraceRecorded(t *testing.T) {
	tr := obs.NewTrace()
	cfg := Config{Seed: 3, Clients: 4, Trace: tr,
		Rates: faults.Rates{ComputeError: 0.05}, Timeout: 30 * time.Second}
	rep, err := Wavefront(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.Phase]int{}
	sawClientActor := false
	for _, ev := range tr.Events() {
		counts[ev.Phase]++
		if ev.Phase == obs.PhaseDone && ev.Actor != "" {
			sawClientActor = true
		}
	}
	if counts[obs.PhaseDone] != rep.Tasks {
		t.Fatalf("%d done events for %d tasks", counts[obs.PhaseDone], rep.Tasks)
	}
	if counts[obs.PhaseRunStart] != 1 || counts[obs.PhaseRunEnd] != 1 {
		t.Fatalf("phase counts %v, want one run-start and one run-end", counts)
	}
	if !sawClientActor {
		t.Fatal("no done event carried a client actor (X-IC-Client lost)")
	}
	// What `icsched chaos -trace out.json` writes from this recorder
	// must load in chrome://tracing: one event or more under traceEvents.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) < rep.Tasks {
		t.Fatalf("chrome trace of a %d-task run: %d traceEvents, err %v", rep.Tasks, len(doc.TraceEvents), err)
	}
}
