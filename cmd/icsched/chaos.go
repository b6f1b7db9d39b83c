package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"icsched/internal/chaos"
	"icsched/internal/obs"
)

// cmdChaos runs the fault-injection smoke proof: every chaos workload
// (Pascal wavefront, FFT convolution, parallel prefix) executed through
// the real HTTP task server with a crashing, erroring, lossy client
// fleet, checked bit-for-bit against the fault-free execution.  A
// non-zero exit means the recovery machinery lost work or produced a
// wrong answer.  -trace writes the server-side task trace: Chrome
// trace-event JSON for chrome://tracing, or one event per line when the
// file ends in .jsonl.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	traceOut := fs.String("trace", "", "write the task trace to this file (.json for chrome://tracing, .jsonl for raw events)")
	batch := fs.Int("batch", 1, "per-grant cap of the client fleet (1 = one task per request)")
	kills := fs.Int("kills", 0, "additionally run the server-kill lane: SIGKILL/journal-restart the server this many times mid-run on a 32×32 wavefront")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	seed := int64(7)
	if len(args) >= 1 {
		s, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", args[0], err)
		}
		seed = s
	}
	cfg := chaos.Config{Seed: seed, Batch: *batch}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		cfg.Trace = tr
	}
	rates := chaos.DefaultRates()
	fmt.Printf("chaos run (seed %d): crash %.0f%%, compute-error %.0f%%, drop %.0f%%, 500s %.0f%%, latency %.0f%%\n",
		seed, 100*rates.Crash, 100*rates.ComputeError, 100*rates.DropResponse,
		100*rates.HTTPError, 100*rates.Latency)
	fmt.Printf("fleet: up to %d tasks per grant\n", max(*batch, 1))
	reports, err := chaos.RunAll(cfg)
	if err != nil {
		return err
	}
	if *kills > 0 {
		fmt.Printf("server-kill lane: %d SIGKILL/journal-restart cycles on a 32x32 wavefront\n", *kills)
		rep, err := chaos.ServerKill(cfg, 32, *kills)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	lost := 0
	for _, r := range reports {
		fmt.Println(r)
		lost += r.Quarantined + (r.Tasks - r.Completed)
	}
	if lost != 0 {
		return fmt.Errorf("chaos: %d tasks lost", lost)
	}
	fmt.Println("all workloads recovered: results bit-identical, 0 tasks lost")
	if tr != nil {
		out, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer out.Close()
		if strings.HasSuffix(*traceOut, ".jsonl") {
			err = tr.WriteJSONL(out)
		} else {
			err = tr.WriteChromeTrace(out)
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d events written to %s\n", tr.Len(), *traceOut)
	}
	return nil
}
