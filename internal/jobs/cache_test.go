package jobs

import (
	"path/filepath"
	"testing"

	"icsched/internal/dag"
	"icsched/internal/wal"
)

// TestCacheWarmHitArmsReplay submits every family twice: the repeat
// must be served from the schedule cache, run in steady-state replay
// mode, and still compute the serial reference bit for bit.
func TestCacheWarmHitArmsReplay(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	specs := map[string]Spec{}
	families := []Spec{
		{Tenant: "a", Family: "wavefront", Size: 4},
		{Tenant: "a", Family: "fftconv", Size: 3},
		{Tenant: "a", Family: "prefix", Size: 8},
	}
	var cold, warm []string
	for _, sp := range families {
		id := h.submit(sp)
		cold = append(cold, id)
		specs[id] = sp
	}
	for _, sp := range families {
		id := h.submit(sp)
		warm = append(warm, id)
		specs[id] = sp
	}
	h.drain(2)
	h.checkValues(specs)
	for _, id := range cold {
		st, _ := s.JobByID(id)
		if st.CacheHit {
			t.Errorf("first submission %s marked cacheHit", id)
		}
	}
	for _, id := range warm {
		st, _ := s.JobByID(id)
		if !st.CacheHit || !st.Replay {
			t.Errorf("repeat %s: cacheHit=%v replay=%v, want true/true", id, st.CacheHit, st.Replay)
		}
	}
	cs := s.CacheStats()
	if cs.Analyses != 3 {
		t.Errorf("analyses = %d, want 3 (one per distinct shape)", cs.Analyses)
	}
	if cs.Hits+cs.Shared != 3 {
		t.Errorf("hits+shared = %d, want 3", cs.Hits+cs.Shared)
	}
}

// TestCacheIsoTwinHitsWithoutReplay: a relabeled raw payload of a seen
// shape hits the cache (the translated order is legal and profile-equal)
// but must NOT replay — the labeling differs, so recovery could not
// re-derive the translated order from the spec alone.
func TestCacheIsoTwinHitsWithoutReplay(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	specs := map[string]Spec{}
	a := Spec{Tenant: "a", Dag: rawDag(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})}
	b := Spec{Tenant: "a", Dag: rawDag(4, [][2]int{{3, 2}, {2, 0}, {0, 1}})} // same chain, relabeled
	idA := h.submit(a)
	specs[idA] = a
	idB := h.submit(b)
	specs[idB] = b
	h.drain(1)
	h.checkValues(specs)
	stB, _ := s.JobByID(idB)
	if !stB.CacheHit || stB.Replay {
		t.Fatalf("iso twin: cacheHit=%v replay=%v, want true/false", stB.CacheHit, stB.Replay)
	}
}

// TestCacheCrashMidReplayRecovers kills the service while a cached
// steady-state job is mid-replay (with one grant still in flight) and
// checks that recovery resumes from the journaled cursor: the job
// finishes, its journal stays cursor-form, and the fleet's FNV values
// match the serial reference bit for bit.
func TestCacheCrashMidReplayRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, s)
	sp := Spec{Tenant: "a", Family: "wavefront", Size: 6}
	specs := map[string]Spec{}
	id1 := h.submit(sp)
	specs[id1] = sp
	h.drain(2) // job 1 analyzes cold and finishes
	id2 := h.submit(sp)
	specs[id2] = sp
	if st := waitState(t, s, id2, StateActive); !st.CacheHit || !st.Replay {
		t.Fatalf("repeat job: cacheHit=%v replay=%v, want true/true", st.CacheHit, st.Replay)
	}
	// Walk a dozen grants of the replayed order, then die with one more
	// grant leased but unreported.
	for i := 0; i < 12; i++ {
		grant, err := s.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Tasks) == 0 {
			t.Fatalf("no work mid-replay (grant %d)", i)
		}
		h.compute(grant.Job, grant.Tasks[0])
		if _, err := s.Report(grant.Job, []dag.NodeID{grant.Tasks[0]}, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
	if grant, err := s.Allocate(1); err != nil || len(grant.Tasks) == 0 {
		t.Fatalf("leased grant: %v %v", grant, err)
	}
	s.Kill()

	s2, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s2.JobByID(id2)
	if !ok || st.State != StateActive || !st.Replay {
		t.Fatalf("recovered job: %+v", st)
	}
	if st.Completed != 12 {
		t.Fatalf("recovered completions = %d, want 12", st.Completed)
	}
	h.s = s2
	h.drain(2)
	h.checkValues(specs)
	if err := closeServer(s2); err != nil {
		t.Fatal(err)
	}
	// The journal stayed cursor-form: cursor records drove the grants,
	// with explicit per-task records only for post-fence reissues.
	rec, err := wal.ReadAll(filepath.Join(dir, "job-"+id2))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[wal.Kind]int)
	firstGrants := 0
	for _, r := range rec.Records {
		kinds[r.Kind]++
		if r.Kind == wal.KindGrant && r.Attempt == 1 {
			firstGrants++
		}
	}
	if kinds[wal.KindCursor] == 0 {
		t.Fatalf("no cursor records in replay journal: %v", kinds)
	}
	if firstGrants != 0 {
		t.Fatalf("%d first-attempt per-task grants in a replay journal", firstGrants)
	}
	if kinds[wal.KindEpoch] != 2 {
		t.Fatalf("epochs journaled = %d, want 2", kinds[wal.KindEpoch])
	}
}
