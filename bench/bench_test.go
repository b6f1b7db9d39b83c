package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func smokeOptions(t *testing.T, seed int64) options {
	return options{sz: smokeSizes, seed: seed, rounds: 2, trace: true, outDir: t.TempDir()}
}

// TestSmokeWorkloads runs all four workloads at smoke sizes, traced, so
// tier-1 keeps the benchmark compiling and its correctness gate honest,
// and checks that a seed reproduces every exact count.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := smokeOptions(t, 7)
			a, err := runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(w, smokeOptions(t, 7))
			if err != nil {
				t.Fatal(err)
			}
			if !a.Correct || a.Attempted < 1 || a.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", a.Correct, a.Attempted, a.Failed)
			}
			if a.tasks != b.tasks || a.jobs != b.jobs || a.digest != b.digest {
				t.Errorf("same seed, different inputs: %d/%d tasks, %d/%d jobs, digest %x/%x",
					a.tasks, b.tasks, a.jobs, b.jobs, a.digest, b.digest)
			}
			for _, name := range []string{"schedcache.hits", "schedcache.misses"} {
				if a.layers[name] != b.layers[name] {
					t.Errorf("same seed, %s = %v then %v", name, a.layers[name], b.layers[name])
				}
			}
			for _, d := range endToEnd {
				if a.e2e[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, a.e2e[d.name])
				}
			}
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(a.Metrics), len(perLayer))
			}
			if st, err := os.Stat(filepath.Join(opt.outDir, w.name+".trace.jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("span file missing or empty: %v", err)
			}
			left, err := os.ReadDir(opt.outDir)
			if err != nil || len(left) != 1 {
				t.Errorf("run left %d entries in its output directory, want the span file alone (%v)", len(left), err)
			}

			switch w.name {
			case "wave_http_wal":
				// One epoch record, then a grant and a done per task.
				if want := float64(2*a.tasks + 1); a.layers["wal.records"] != want || b.layers["wal.records"] != want {
					t.Errorf("wal.records = %v and %v, want %v", a.layers["wal.records"], b.layers["wal.records"], want)
				}
				if a.layers["wal.recover_ms"] <= 0 {
					t.Errorf("wal.recover_ms = %v: the recovery cycles did not run", a.layers["wal.recover_ms"])
				}
			case "jobs_mix":
				if want := float64(a.jobs / 4); a.layers["schedcache.misses"] != want {
					t.Errorf("schedcache.misses = %v, want %v: exactly the fresh shapes", a.layers["schedcache.misses"], want)
				}
				c, err := runWorkload(w, smokeOptions(t, 8))
				if err != nil {
					t.Fatal(err)
				}
				if c.digest == a.digest {
					t.Errorf("seeds 7 and 8 submitted the same payload sequence (digest %x)", a.digest)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in main.go and
// workloads.go in step: the driver reads the one, the program prints by
// the other.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %s [%s] %s, implemented %s [%s] %s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound declared %v, implemented %v", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestUndisturbed pins the reduction over rounds to the fast decile: the
// low end of a time, the high end of a rate.
func TestUndisturbed(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	if got := undisturbed(xs, false); got != 1 {
		t.Errorf("undisturbed(time) = %v, want 1", got)
	}
	if got := undisturbed(xs, true); got != 9 {
		t.Errorf("undisturbed(rate) = %v, want 9", got)
	}
	if got := undisturbed(nil, true); got != 0 {
		t.Errorf("undisturbed(nil) = %v, want 0", got)
	}
}
