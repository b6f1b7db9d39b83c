package icserver_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/sched"
	"icsched/internal/wal"
)

// twoFans returns ten tasks: sources 0..3 feed sink 8, sources 4..7 feed
// sink 9 — eight tasks grantable at once, so several leases share one
// grant instant.
func twoFans() (*dag.Dag, heur.Policy) {
	b := dag.NewBuilder(10)
	for v := dag.NodeID(0); v < 8; v++ {
		b.AddArc(v, 8+v/4)
	}
	return b.MustBuild(), heur.Static("BY-ID", []dag.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
}

// leaseScript is one server's view of a scripted run under an injected
// clock: what each request was granted, Status() after every step, and at
// the end the journal, record by record.
type leaseScript struct {
	t    *testing.T
	srv  *icserver.Server
	now  time.Time
	line []string
}

func (s *leaseScript) logf(format string, args ...any) {
	s.line = append(s.line, fmt.Sprintf(format, args...))
}

func (s *leaseScript) status() {
	st := s.srv.Status()
	s.logf("  status completed=%d eligible=%d allocated=%d stalls=%d reissues=%d failed=%d quarantined=%d",
		st.Completed, st.Eligible, st.Allocated, st.Stalls, st.Reissues, st.Failed, st.Quarantined)
}

func (s *leaseScript) at(sec float64) { s.now = time.Unix(0, int64(sec*1e9)) }

func (s *leaseScript) allocate(k int) {
	batch, state := s.srv.AllocateBatch(k)
	s.logf("t=%v allocate(%d) -> %v state=%d", s.now.Sub(time.Unix(0, 0)), k, batch, state)
	s.status()
}

func (s *leaseScript) report(done, failed []dag.NodeID) {
	rep, err := s.srv.Report(done, failed)
	if err != nil {
		s.t.Fatal(err)
	}
	s.logf("t=%v report(done=%v failed=%v) -> %+v", s.now.Sub(time.Unix(0, 0)), done, failed, rep)
	s.status()
}

func (s *leaseScript) journal(dir string) {
	rec, err := wal.ReadAll(dir)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, r := range rec.Records {
		s.logf("journal epoch=%d %s task=%d attempt=%d", r.Epoch, r.Kind, r.Task, r.Attempt)
	}
}

// TestLeaseSemanticsGolden pins lease behaviour under an injected clock
// to the transcript the map-and-container/heap server produced: expiry
// order among leases granted at one instant, lazy invalidation of heap
// entries after a completion and a hand-back, quarantine at MaxAttempts
// from both the expiry and the hand-back side, rescue by a late
// completion — as grants, as Status() and as journal records.
func TestLeaseSemanticsGolden(t *testing.T) {
	g, policy := twoFans()
	dir := t.TempDir()
	s := &leaseScript{t: t}
	s.at(0)
	srv, err := icserver.Recover(dir, g, policy, wal.Options{SnapshotEvery: -1},
		icserver.WithLease(10*time.Second), icserver.WithMaxAttempts(2),
		icserver.WithClock(func() time.Time { return s.now }))
	if err != nil {
		t.Fatal(err)
	}
	s.srv = srv

	s.allocate(5) // five leases at one instant
	s.at(1)
	s.report([]dag.NodeID{1}, []dag.NodeID{2}) // two heap entries go stale
	s.at(2)
	s.allocate(2) // the hand-back first, then the policy
	s.at(3)
	s.allocate(1)
	s.at(11)
	s.allocate(8) // the t=0 leases expire; the t=2 and t=3 ones have not
	s.at(12.5)
	s.allocate(4) // t=2 leases expire: task 2 is out of attempts
	s.at(13)
	s.report([]dag.NodeID{2}, nil) // a late completion rescues it
	s.at(14)
	s.report(nil, []dag.NodeID{6, 5}) // one requeues, one is out of attempts
	s.at(15)
	s.allocate(3)
	s.at(30)
	s.allocate(8) // everything outstanding expires
	s.at(31)
	s.report([]dag.NodeID{7, 0, 3, 4, 5, 6}, nil)
	s.allocate(4)
	s.report([]dag.NodeID{8, 9}, nil)
	s.allocate(1)
	if !srv.Finished() {
		t.Fatal("scripted run did not finish")
	}
	srv.Kill()
	s.journal(dir)

	if len(s.line) != len(goldenLeaseTranscript) {
		t.Fatalf("transcript has %d lines, golden %d:\n%s", len(s.line), len(goldenLeaseTranscript), strings.Join(s.line, "\n"))
	}
	for i, want := range goldenLeaseTranscript {
		if s.line[i] != want {
			t.Fatalf("transcript line %d:\n got %s\nwant %s", i, s.line[i], want)
		}
	}
}

// goldenLeaseTranscript is what this script produced on the commit before
// the dense state; it is a record of that server, not regenerated from
// this one.
var goldenLeaseTranscript = []string{
	"t=0s allocate(5) -> [0 1 2 3 4] state=0",
	"  status completed=0 eligible=8 allocated=5 stalls=0 reissues=0 failed=0 quarantined=0",
	"t=1s report(done=[1] failed=[2]) -> {NewlyEligible:0 Completed:1 Duplicates:0 Requeued:1 Quarantined:0}",
	"  status completed=1 eligible=7 allocated=3 stalls=0 reissues=0 failed=1 quarantined=0",
	"t=2s allocate(2) -> [2 5] state=0",
	"  status completed=1 eligible=7 allocated=5 stalls=0 reissues=1 failed=1 quarantined=0",
	"t=3s allocate(1) -> [6] state=0",
	"  status completed=1 eligible=7 allocated=6 stalls=0 reissues=1 failed=1 quarantined=0",
	"t=11s allocate(8) -> [0 3 4 7] state=0",
	"  status completed=1 eligible=7 allocated=7 stalls=0 reissues=4 failed=1 quarantined=0",
	"t=12.5s allocate(4) -> [5] state=0",
	"  status completed=1 eligible=7 allocated=6 stalls=0 reissues=5 failed=1 quarantined=1",
	"t=13s report(done=[2] failed=[]) -> {NewlyEligible:0 Completed:1 Duplicates:0 Requeued:0 Quarantined:0}",
	"  status completed=2 eligible=6 allocated=6 stalls=0 reissues=5 failed=1 quarantined=0",
	"t=14s report(done=[] failed=[6 5]) -> {NewlyEligible:0 Completed:0 Duplicates:0 Requeued:1 Quarantined:1}",
	"  status completed=2 eligible=6 allocated=4 stalls=0 reissues=5 failed=3 quarantined=1",
	"t=15s allocate(3) -> [6] state=0",
	"  status completed=2 eligible=6 allocated=5 stalls=0 reissues=6 failed=3 quarantined=1",
	"t=30s allocate(8) -> [7] state=0",
	"  status completed=2 eligible=6 allocated=1 stalls=0 reissues=7 failed=3 quarantined=5",
	"t=31s report(done=[7 0 3 4 5 6] failed=[]) -> {NewlyEligible:2 Completed:6 Duplicates:0 Requeued:0 Quarantined:0}",
	"  status completed=8 eligible=2 allocated=0 stalls=0 reissues=7 failed=3 quarantined=0",
	"t=31s allocate(4) -> [8 9] state=0",
	"  status completed=8 eligible=2 allocated=2 stalls=0 reissues=7 failed=3 quarantined=0",
	"t=31s report(done=[8 9] failed=[]) -> {NewlyEligible:0 Completed:2 Duplicates:0 Requeued:0 Quarantined:0}",
	"  status completed=10 eligible=0 allocated=0 stalls=0 reissues=7 failed=3 quarantined=0",
	"t=31s allocate(1) -> [] state=2",
	"  status completed=10 eligible=0 allocated=0 stalls=0 reissues=7 failed=3 quarantined=0",
	"journal epoch=1 epoch task=-1 attempt=0",
	"journal epoch=1 grant task=0 attempt=1",
	"journal epoch=1 grant task=1 attempt=1",
	"journal epoch=1 grant task=2 attempt=1",
	"journal epoch=1 grant task=3 attempt=1",
	"journal epoch=1 grant task=4 attempt=1",
	"journal epoch=1 done task=1 attempt=0",
	"journal epoch=1 failed task=2 attempt=0",
	"journal epoch=1 grant task=2 attempt=2",
	"journal epoch=1 grant task=5 attempt=1",
	"journal epoch=1 grant task=6 attempt=1",
	"journal epoch=1 expiry task=0 attempt=0",
	"journal epoch=1 grant task=0 attempt=2",
	"journal epoch=1 expiry task=3 attempt=0",
	"journal epoch=1 grant task=3 attempt=2",
	"journal epoch=1 expiry task=4 attempt=0",
	"journal epoch=1 grant task=4 attempt=2",
	"journal epoch=1 grant task=7 attempt=1",
	"journal epoch=1 expiry task=5 attempt=0",
	"journal epoch=1 grant task=5 attempt=2",
	"journal epoch=1 expiry task=2 attempt=0",
	"journal epoch=1 quarantine task=2 attempt=0",
	"journal epoch=1 done task=2 attempt=0",
	"journal epoch=1 failed task=6 attempt=0",
	"journal epoch=1 failed task=5 attempt=0",
	"journal epoch=1 quarantine task=5 attempt=0",
	"journal epoch=1 grant task=6 attempt=2",
	"journal epoch=1 expiry task=3 attempt=0",
	"journal epoch=1 quarantine task=3 attempt=0",
	"journal epoch=1 expiry task=4 attempt=0",
	"journal epoch=1 quarantine task=4 attempt=0",
	"journal epoch=1 expiry task=0 attempt=0",
	"journal epoch=1 quarantine task=0 attempt=0",
	"journal epoch=1 expiry task=7 attempt=0",
	"journal epoch=1 grant task=7 attempt=2",
	"journal epoch=1 expiry task=6 attempt=0",
	"journal epoch=1 quarantine task=6 attempt=0",
	"journal epoch=1 done task=7 attempt=0",
	"journal epoch=1 done task=0 attempt=0",
	"journal epoch=1 done task=3 attempt=0",
	"journal epoch=1 done task=4 attempt=0",
	"journal epoch=1 done task=5 attempt=0",
	"journal epoch=1 done task=6 attempt=0",
	"journal epoch=1 grant task=8 attempt=1",
	"journal epoch=1 grant task=9 attempt=1",
	"journal epoch=1 done task=8 attempt=0",
	"journal epoch=1 done task=9 attempt=0",
}

// TestRecoverJournalWrittenBeforeDenseState recovers testdata/pr13-journal,
// a snapshot plus a journal tail the map-based server wrote (twoFans,
// SnapshotEvery 8: tasks 0..5 granted, 0 and 1 done, 2 handed back and
// re-granted, 3 handed back, then killed).  The on-disk formats did not
// change, so the dense-state server must resume exactly there.
func TestRecoverJournalWrittenBeforeDenseState(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/pr13-journal/*")
	if err != nil || len(files) < 2 {
		t.Fatalf("testdata/pr13-journal: %v files, err %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, policy := twoFans()
	srv, err := icserver.Recover(dir, g, policy, wal.Options{}, icserver.WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	want := icserver.Status{Total: 10, Completed: 2, Eligible: 6, Reissues: 1, Failed: 2, Epoch: 2}
	if got := srv.Status(); got != want {
		t.Fatalf("recovered status %+v, want %+v", got, want)
	}
	// Hand-backs first, then the fenced in-flight grants in grant order,
	// then the policy's never-granted tasks.
	batch, _ := srv.AllocateBatch(8)
	if fmt.Sprint(batch) != "[3 4 5 2 6 7]" {
		t.Fatalf("post-recovery grant %v, want [3 4 5 2 6 7]", batch)
	}
	if _, err := srv.Report(batch, nil); err != nil {
		t.Fatal(err)
	}
	drainServer(t, srv)
	if st := srv.Status(); st.Completed != 10 || st.Reissues != 5 {
		t.Fatalf("final status %+v", st)
	}
}

// fnvValue hashes v's ID with its parents' values (FNV-1a): any execution
// that respects the dependencies computes the same value for every node.
func fnvValue(g *dag.Dag, v dag.NodeID, vals []uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ x&0xff) * 1099511628211
			x >>= 8
		}
	}
	mix(uint64(v))
	for _, p := range g.Parents(v) {
		mix(vals[p])
	}
	return h
}

// TestRecoverJournalWrittenByRelaxedCore recovers
// testdata/pr14-relaxed-journal (see its README): a WithRelaxed(4) server
// of the parent commit, killed with 12 of 36 wavefront tasks done, grants
// out of rank order, two tasks in flight and one handed back.  The
// journal holds ordinary per-task grant/done records, so the locked path
// must recover it, finish, and compute the serial reference's values.
func TestRecoverJournalWrittenByRelaxedCore(t *testing.T) {
	dir := t.TempDir()
	const segment = "wal-0000000000000001.log"
	data, err := os.ReadFile(filepath.Join("testdata/pr14-relaxed-journal", segment))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segment), data, 0o644); err != nil {
		t.Fatal(err)
	}
	g := mesh.Grid(6, 6)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(6, 6))
	n := g.NumNodes()
	want := make([]uint64, n)
	rank := make([]int, n)
	for r, v := range order {
		want[v] = fnvValue(g, v, want)
		rank[v] = r
	}

	// What the dead incarnation left: its completions' values, and proof
	// that this really is a journal no locked server would have written.
	vals := make([]uint64, n)
	before, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var doneOrder []dag.NodeID
	inversions, lastRank := 0, -1
	for _, r := range before.Records {
		switch r.Kind {
		case wal.KindGrant:
			if rank[r.Task] < lastRank {
				inversions++
			}
			lastRank = rank[r.Task]
		case wal.KindDone:
			v := dag.NodeID(r.Task)
			vals[v] = fnvValue(g, v, vals)
			doneOrder = append(doneOrder, v)
		}
	}
	if len(doneOrder) != 12 || inversions == 0 {
		t.Fatalf("testdata: %d done, %d rank inversions among grants; want 12 and > 0", len(doneOrder), inversions)
	}

	srv, err := icserver.Recover(dir, g, heur.Static("IC-OPTIMAL", order), wal.Options{}, icserver.WithLease(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); st.Completed != 12 || st.Epoch != 2 || st.Failed != 1 {
		t.Fatalf("recovered status %+v, want 12 completed, epoch 2, 1 failed", st)
	}
	// The hand-back first, then the fenced in-flight grants in grant order.
	batch, _ := srv.AllocateBatch(3)
	if fmt.Sprint(batch) != "[19 9 24]" {
		t.Fatalf("post-recovery grant %v, want [19 9 24]", batch)
	}
	for len(batch) > 0 {
		for _, v := range batch {
			vals[v] = fnvValue(g, v, vals)
		}
		if _, batch, _, err = srv.ReportAllocate(batch, nil, 3); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Status(); st.Completed != n || st.Quarantined != 0 || !srv.Finished() {
		t.Fatalf("final status %+v", st)
	}
	for v := range want {
		if vals[v] != want[v] {
			t.Fatalf("task %d computed %#x, want %#x", v, vals[v], want[v])
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after.Records[len(before.Records):] {
		if r.Kind == wal.KindDone {
			doneOrder = append(doneOrder, dag.NodeID(r.Task))
		}
	}
	if err := sched.NewState(g).Replay(doneOrder); err != nil || len(doneOrder) != n {
		t.Fatalf("journal done-order (%d tasks) is not a legal schedule: %v", len(doneOrder), err)
	}
}
