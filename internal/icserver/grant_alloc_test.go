package icserver_test

import (
	"testing"
	"time"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/sched"
	"icsched/internal/wal"
)

// flyDag is the fly_inproc dag of bench/: the d=11 butterfly (24,576
// tasks, frontier 2048 wide) under its IC-optimal schedule.
func flyDag() (*dag.Dag, heur.Policy) {
	g := butterfly.Network(11)
	return g, heur.Static("IC-OPTIMAL", sched.Complete(g, butterfly.Nonsinks(11)))
}

// flyServers returns a constructor of the fly_inproc server: the flyDag
// on the locked grant path, in memory, with a lease set so every grant
// goes through the expiry heap.
func flyServers() func() *icserver.Server {
	g, policy := flyDag()
	return func() *icserver.Server { return icserver.New(g, policy, icserver.WithLease(time.Minute)) }
}

// flyJournaled is the flyDag server backed by a fresh journal in a
// test directory, snapshots off.
func flyJournaled(t *testing.T, wopts wal.Options) *icserver.Server {
	t.Helper()
	g, policy := flyDag()
	wopts.SnapshotEvery = -1
	srv, err := icserver.Recover(t.TempDir(), g, policy, wopts, icserver.WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	return srv
}

// TestReportAllocateAllocsPerRequest is the allocation guard of the
// locked grant core: a steady-state ReportAllocate(16 done, nil, 16)
// allocates the batch it returns and nothing per task — with a journal
// too, whose pending-record batch and encode buffer are reused.
func TestReportAllocateAllocsPerRequest(t *testing.T) {
	const k, warm, runs = 16, 200, 1000
	for _, row := range []struct {
		name string
		srv  func(*testing.T) *icserver.Server
	}{
		{"memory", func(*testing.T) *icserver.Server { return flyServers()() }},
		{"journaled", func(t *testing.T) *icserver.Server { return flyJournaled(t, wal.Options{}) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv := row.srv(t) // 1,536 requests drain it; the test makes 1,201
			_, batch, state, err := srv.ReportAllocate(nil, nil, k)
			step := func() {
				if err != nil || state != icserver.AllocOK || len(batch) != k {
					t.Fatalf("grant of %d tasks, state %d, err %v: the run left its steady state", len(batch), state, err)
				}
				_, batch, state, err = srv.ReportAllocate(batch, nil, k)
			}
			for i := 0; i < warm; i++ { // let the packet scratch and the expiry heap reach their sizes
				step()
			}
			if allocs := testing.AllocsPerRun(runs, step); allocs > 1 {
				t.Fatalf("ReportAllocate(%d done, nil, %d) allocates %v times per request, want 1 (the returned batch)", k, k, allocs)
			}
		})
	}
}

// TestReportAllocateFsyncsOncePerRequest: at strict durability
// (SyncEvery 1) a journaled request is one journal write and one fsync
// however many records it carries — here 16 completions and 16 grants,
// which per-record appends paid with 32 fsyncs.
func TestReportAllocateFsyncsOncePerRequest(t *testing.T) {
	const k = 16
	fsyncs := 0
	srv := flyJournaled(t, wal.Options{SyncEvery: 1, SyncInterval: time.Hour,
		FsyncObserver: func(time.Duration) { fsyncs++ }})
	_, batch, _, err := srv.ReportAllocate(nil, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	before := fsyncs
	_, next, _, err := srv.ReportAllocate(batch, nil, k)
	if err != nil || len(next) != k {
		t.Fatalf("ReportAllocate granted %d tasks, err %v", len(next), err)
	}
	if got := fsyncs - before; got != 1 {
		t.Fatalf("ReportAllocate(%d done, nil, %d) at SyncEvery 1 ran %d fsyncs, want 1", k, k, got)
	}
}

// BenchmarkGrantCoreFly drains the butterfly from one goroutine on
// ReportAllocate with k=16, server construction included — fly_inproc
// without the harness.  allocs/op is per 24,576-task drain.
func BenchmarkGrantCoreFly(b *testing.B) {
	newServer := flyServers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := newServer()
		var done []dag.NodeID
		for {
			_, batch, state, err := srv.ReportAllocate(done, nil, 16)
			if err != nil {
				b.Fatal(err)
			}
			if state == icserver.AllocFinished {
				break
			}
			if len(batch) == 0 {
				b.Fatal("nothing granted to the only worker before the dag finished")
			}
			done = batch
		}
	}
}

// TestAllocateBatchNonPositiveAsk: an in-process ask of zero or fewer
// tasks grants nothing (the HTTP handlers reject it before the core).
func TestAllocateBatchNonPositiveAsk(t *testing.T) {
	srv := flyServers()()
	for _, k := range []int{0, -3} {
		if batch, _ := srv.AllocateBatch(k); len(batch) != 0 {
			t.Fatalf("AllocateBatch(%d) granted %v", k, batch)
		}
	}
	if st := srv.Status(); st.Allocated != 0 {
		t.Fatalf("status %+v after empty asks", st)
	}
}
