package jobs

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/dagio"
	"icsched/internal/heur"
	"icsched/internal/mesh"
	"icsched/internal/sched"
	"icsched/internal/wal"
)

// TestRawWavefrontsGetDiagonalProfile: a wavefront submitted as a raw
// payload analyzes to the eligibility profile of the same grid
// submitted by family name, the IC-optimal diagonal one, and the job
// reports the offer-order tie-break that won (a family job reports none).
func TestRawWavefrontsGetDiagonalProfile(t *testing.T) {
	for size := 8; size <= 24; size++ {
		g := mesh.Grid(size, size)
		payload, err := dagio.MarshalJSON(g)
		if err != nil {
			t.Fatal(err)
		}
		rg, nonsinks, err := buildJob(Spec{Tenant: "a", Dag: payload})
		if err != nil {
			t.Fatal(err)
		}
		order, tie, err := analyzeJob(rg, nonsinks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sched.Profile(rg, order)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.Profile(g, sched.Complete(g, mesh.GridDiagonalNonsinks(size, size)))
		if err != nil {
			t.Fatal(err)
		}
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("wavefront %d (ties by %s): |ELIGIBLE| after step %d = %d, the diagonal schedule's %d", size, tie, x, got[x], want[x])
			}
		}
	}

	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	payload, err := dagio.MarshalJSON(mesh.Grid(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{}
	for _, sp := range []Spec{{Tenant: "a", Dag: payload}, {Tenant: "a", Family: "wavefront", Size: 8}} {
		specs[h.submit(sp)] = sp
	}
	h.drain(4)
	h.checkValues(specs)
	for id, want := range map[string]string{"j1": "offer", "j2": ""} {
		if st, _ := s.JobByID(id); st.TieBreak != want {
			t.Errorf("job %s reports tie-break %q, want %q", id, st.TieBreak, want)
		}
	}
}

// TestAnalyzerNeverWorseThanIDOrder: on 1,000 seeded random dags the
// analyzer's order is never dominated by MAX-NEW-ELIGIBLE's ID-order
// run, and never has the smaller area.
func TestAnalyzerNeverWorseThanIDOrder(t *testing.T) {
	offer := 0
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *dag.Dag
		switch seed % 3 {
		case 0:
			g = dag.Random(rng, 2+rng.Intn(60), 0.05+0.3*rng.Float64())
		case 1:
			layers := make([]int, 2+rng.Intn(6))
			for l := range layers {
				layers[l] = 1 + rng.Intn(10)
			}
			g = dag.RandomLayered(rng, layers, 1+rng.Intn(3))
		default:
			g = dag.RandomSeriesParallel(rng, 2+rng.Intn(60))
		}
		order, tie, err := analyzeJob(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		byID, err := heur.RunOrder(g, heur.MaxNewEligible())
		if err != nil {
			t.Fatal(err)
		}
		got, err := sched.Profile(g, order)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sched.Profile(g, byID)
		if err != nil {
			t.Fatal(err)
		}
		below, above, area := false, false, 0
		for x := range ref {
			below = below || got[x] < ref[x]
			above = above || got[x] > ref[x]
			area += got[x] - ref[x]
		}
		if (below && !above) || area < 0 {
			t.Fatalf("seed %d (ties by %s): profile %v against the ID order's %v", seed, tie, got, ref)
		}
		if tie == heur.TieByOffer {
			offer++
		}
	}
	if offer == 0 {
		t.Fatal("the offer-order tie-break never won")
	}
}

// TestWideRawPayloadDoesNotStallAdmission submits a two-layer raw
// payload w = 100,000 wide ahead of a small family job: the analysis of
// the wide one runs on the admitter, so the small job finishes only
// after it, and that must take seconds, not minutes.
func TestWideRawPayloadDoesNotStallAdmission(t *testing.T) {
	const w = 100000
	arcs := make([][2]int, w)
	for i := range arcs {
		arcs[i] = [2]int{i, w + i}
	}
	s := New(Config{})
	defer s.Kill()
	start := time.Now()
	if _, err := s.Submit(Spec{Tenant: "wide", Dag: rawDag(2*w, arcs)}); err != nil {
		t.Fatal(err)
	}
	small, err := s.Submit(Spec{Tenant: "small", Family: "prefix", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if st, _ := s.JobByID(small.Job); st.State == StateFinished {
			break
		}
		if time.Since(start) > 10*time.Second {
			st, _ := s.JobByID(small.Job)
			t.Fatalf("small job still %s %v after the wide submission", st.State, time.Since(start))
		}
		grant, err := s.Allocate(64)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Tasks) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if _, err := s.Report(grant.Job, grant.Tasks, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// copyDir copies a testdata service directory into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoverIDTieReplayJob recovers testdata/idtie-replay-service (see
// its README): a replay job whose cursor journal was written against
// the ID-order MAX-NEW-ELIGIBLE run, in a manifest that names no
// tie-break.  The analyzer now prefers the offer order on that grid, so
// recovery must re-derive the ID order all the same: the job finishes
// with the serial reference's values in a legal order.  A new
// submission of the same payload then replays the offer order from the
// cache, and survives a kill of its own.
func TestRecoverIDTieReplayJob(t *testing.T) {
	const src = "testdata/idtie-replay-service"
	dir := t.TempDir()
	copyDir(t, src, dir)
	events, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sp Spec
	for _, ev := range events {
		switch {
		case ev.Event == "submit" && ev.Job == "j2":
			sp = Spec{Tenant: ev.Tenant, Dag: ev.Dag}
		case ev.Event == "activate" && ev.Job == "j2" && (!ev.Replay || ev.TieBreak != ""):
			t.Fatalf("testdata activate event %+v, want replay with no tie-break", ev)
		}
	}

	s, err := Recover(dir, Config{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(s)
	h := newHarness(t, s)
	h.track("j2", sp)
	g := h.graphs["j2"]
	rec, err := wal.ReadAll(filepath.Join(src, "job-j2"))
	if err != nil {
		t.Fatal(err)
	}
	var doneOrder []dag.NodeID
	for _, r := range rec.Records {
		if r.Kind == wal.KindDone {
			h.compute("j2", dag.NodeID(r.Task))
			doneOrder = append(doneOrder, dag.NodeID(r.Task))
		}
	}
	st, _ := s.JobByID("j2")
	if st.State != StateActive || !st.Replay || st.TieBreak != string(heur.TieByID) || st.Epoch != 2 || st.Completed != len(doneOrder) || len(doneOrder) != 9 {
		t.Fatalf("recovered j2 %+v with %d journaled completions, want an active ID-order replay at epoch 2 with 9", st, len(doneOrder))
	}
	for {
		grant, err := s.Allocate(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Tasks) == 0 {
			break
		}
		for _, v := range grant.Tasks {
			h.compute("j2", v)
		}
		if _, err := s.Report(grant.Job, grant.Tasks, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
		doneOrder = append(doneOrder, grant.Tasks...)
	}
	if st, _ := s.JobByID("j2"); st.State != StateFinished || st.Completed != st.Nodes {
		t.Fatalf("j2 stalled: %+v", st)
	}
	if err := sched.Validate(g, doneOrder); err != nil {
		t.Fatalf("done order %v: %v", doneOrder, err)
	}
	specs := map[string]Spec{"j2": sp}
	id := h.submit(sp)
	specs[id] = sp
	if st := waitState(t, s, id, StateActive); !st.CacheHit || !st.Replay || st.TieBreak != string(heur.TieByOffer) {
		t.Fatalf("resubmitted grid %+v, want a replayed cache hit ordered by offer", st)
	}
	// Die mid-replay of the offer order, one grant leased: the activate
	// event's tie-break must bring that order back.
	for i := 0; i <= 4; i++ {
		grant, err := s.Allocate(3)
		if err != nil || len(grant.Tasks) == 0 {
			t.Fatalf("grant %d mid-replay: %+v %v", i, grant, err)
		}
		if i == 4 {
			break
		}
		for _, v := range grant.Tasks {
			h.compute(id, v)
		}
		if _, err := s.Report(grant.Job, grant.Tasks, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Kill()
	s2, err := Recover(dir, Config{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(s2)
	if st, _ := s2.JobByID(id); st.State != StateActive || !st.Replay || st.TieBreak != string(heur.TieByOffer) {
		t.Fatalf("recovered %s: %+v", id, st)
	}
	h.s = s2
	h.drain(3)
	h.checkValues(specs)
}
