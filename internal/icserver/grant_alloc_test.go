package icserver_test

import (
	"testing"
	"time"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/sched"
)

// flyServers returns a constructor of the fly_inproc server of bench/: the
// d=11 butterfly (24,576 tasks, frontier 2048 wide) under its IC-optimal
// schedule on the locked grant path, in memory, with a lease set so every
// grant goes through the expiry heap.
func flyServers() func() *icserver.Server {
	g := butterfly.Network(11)
	policy := heur.Static("IC-OPTIMAL", sched.Complete(g, butterfly.Nonsinks(11)))
	return func() *icserver.Server { return icserver.New(g, policy, icserver.WithLease(time.Minute)) }
}

// TestReportAllocateAllocsPerRequest is the allocation guard of the
// locked grant core: a steady-state ReportAllocate(16 done, nil, 16)
// allocates the batch it returns and nothing per task.
func TestReportAllocateAllocsPerRequest(t *testing.T) {
	const k, warm, runs = 16, 200, 1000
	srv := flyServers()() // 1,536 requests drain it; the test makes 1,201
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
