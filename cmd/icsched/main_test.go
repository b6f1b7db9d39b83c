package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icsched/internal/opt"
)

func TestRunHelpAndFamilies(t *testing.T) {
	for _, args := range [][]string{nil, {"help"}, {"families"}} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestRunUnknownCommand(t *testing.T) {
	// go run ./bench is the only performance harness: neither loadgen
	// nor bench may come back as a subcommand.
	for _, cmd := range []string{"bogus", "loadgen", "bench"} {
		err := run([]string{cmd})
		if err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Fatalf("run(%q) = %v, want unknown command", cmd, err)
		}
	}
}

func TestVerifyEveryFamilyAtDefaultSize(t *testing.T) {
	for _, f := range families {
		if err := run([]string{"verify", f.name}); err != nil {
			t.Fatalf("verify %s: %v", f.name, err)
		}
	}
}

func TestDotAndScheduleCommands(t *testing.T) {
	for _, cmd := range []string{"dot", "schedule"} {
		if err := run([]string{cmd, "diamond", "2"}); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

func TestProfileCommand(t *testing.T) {
	if err := run([]string{"profile", "outmesh", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestSimCommand(t *testing.T) {
	if err := run([]string{"sim", "prefix", "8", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"sim", "prefix", "8", "x"}); err == nil {
		t.Fatal("bad client count accepted")
	}
}

func TestBatchCommand(t *testing.T) {
	if err := run([]string{"batch", "outmesh", "4", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"batch", "outmesh", "4", "zero"}); err == nil {
		t.Fatal("bad width accepted")
	}
}

func TestLoadCommandEdgeList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.txt")
	if err := os.WriteFile(path, []byte("setup build\nbuild test\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"load", path}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCommandJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.json")
	if err := os.WriteFile(path, []byte(`{"nodes": 3, "arcs": [[0,1],[0,2]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"load", path}); err != nil {
		t.Fatal(err)
	}
}

func TestPrioritizeCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.txt")
	if err := os.WriteFile(path, []byte("fetch sim\nsim analyze\nfetch render\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"prioritize", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"prioritize"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCountCommand(t *testing.T) {
	if err := run([]string{"count", "diamond", "2"}); err != nil {
		t.Fatal(err)
	}
	// Too large for the oracle.
	if err := run([]string{"count", "butterfly", "4"}); err == nil {
		t.Fatal("oversized count accepted")
	}
}

// captureRun runs the CLI with os.Stdout redirected and returns what it
// printed.
func captureRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

// TestOracleBudgetFallback feeds a 36-node antichain — within the
// oracle's node cap — to load and prioritize.  An unbounded lattice
// walk would need C(36,18) ≈ 9.1·10⁹ ideals in its widest layer, and
// layer 10 alone is C(36,10) ≈ 2.5·10⁸ entries × 16 B ≈ 4 GB; under the
// default layer budget both commands fall back to MAX-NEW-ELIGIBLE
// within a fraction of a second.  count takes a family, and W with 17
// sources (35 nodes, a 1.25·10⁶-ideal layer) is its in-cap dag of the
// same kind: it must fail with an error wrapping opt.ErrBudget.
func TestOracleBudgetFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "antichain.json")
	if err := os.WriteFile(path, []byte(`{"nodes": 36, "arcs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ cmd, want string }{
		{"load", "using MAX-NEW-ELIGIBLE"},
		{"prioritize", "order source: MAX-NEW-ELIGIBLE"},
	} {
		start := time.Now()
		out, err := captureRun(t, c.cmd, path)
		if err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		if !strings.Contains(out, c.want) {
			t.Fatalf("%s printed no MAX-NEW-ELIGIBLE fallback:\n%s", c.cmd, out)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("%s took %v to fall back", c.cmd, d)
		}
	}
	if _, err := captureRun(t, "count", "w", "17"); !errors.Is(err, opt.ErrBudget) {
		t.Fatalf("count w 17: err = %v, want ErrBudget", err)
	}
}

func TestLoadCommandErrors(t *testing.T) {
	if err := run([]string{"load"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"load", "/nonexistent/x.txt"}); err == nil {
		t.Fatal("missing path accepted")
	}
}

func TestParseFamilyErrors(t *testing.T) {
	if _, _, err := parseFamily(nil); err == nil {
		t.Fatal("missing family accepted")
	}
	if _, _, err := parseFamily([]string{"nope"}); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, _, err := parseFamily([]string{"vee", "huge?"}); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestFiguresCommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"figures", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// All 17 paper figures (some with sub-parts) plus the extras.
	if len(entries) < 20 {
		t.Fatalf("only %d figure files written", len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || string(data[:7]) != "digraph" {
			t.Fatalf("%s is not a DOT file", e.Name())
		}
	}
}

func TestExperimentsCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments run is sizeable")
	}
	if err := run([]string{"experiments"}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSizesBuild(t *testing.T) {
	for _, f := range families {
		g, _, err := f.build(defaultSize(f.name))
		if err != nil {
			t.Fatalf("%s default build: %v", f.name, err)
		}
		if g.NumNodes() == 0 {
			t.Fatalf("%s default build is empty", f.name)
		}
	}
}
