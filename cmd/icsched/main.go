// Command icsched is the command-line face of the IC-Scheduling library:
// it generates the paper's dag families, emits their figures as DOT,
// verifies IC-optimality against the exact oracle, prints eligibility
// profiles against the heuristic schedulers, runs the Internet-computing
// simulator, and regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	icsched families
//	icsched dot <family> [size]
//	icsched verify <family> [size]
//	icsched profile <family> [size]
//	icsched sim <family> [size] [clients]
//	icsched experiments
package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"

	"icsched/internal/heur"
	"icsched/internal/icsim"
	"icsched/internal/opt"
	"icsched/internal/sched"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icsched:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "families":
		return cmdFamilies()
	case "dot":
		return cmdDot(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "sim":
		return cmdSim(args[1:])
	case "schedule":
		return cmdSchedule(args[1:])
	case "load":
		return cmdLoad(args[1:])
	case "prioritize":
		return cmdPrioritize(args[1:])
	case "count":
		return cmdCount(args[1:])
	case "batch":
		return cmdBatch(args[1:])
	case "figures":
		return cmdFigures(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "difftest":
		return cmdDifftest(args[1:])
	case "experiments":
		return cmdExperiments()
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Println(`icsched — IC-Scheduling Theory toolbox (Cordasco/Malewicz/Rosenberg, IPPS 2007)

commands:
  families                    list the dag families
  dot <family> [size]         emit the family's dag in Graphviz DOT
  verify <family> [size]      check the family's schedule against the exact oracle
  profile <family> [size]     print eligibility profiles: IC-optimal vs heuristics
  sim <family> [size] [N]     simulate Internet computing with N clients
  schedule <family> [size]    print the IC-optimal schedule as JSON
  load <file>                 read a dag (.json or edge list), analyze & schedule it
  prioritize <file>           emit PRIO-style "task priority" lines for a workflow
  count <family> [size]       count legal vs IC-optimal schedules (exact oracle)
  batch <family> [size] [w]   plan batched allocation ([20]-style), greedy vs exact
  figures [dir]               write every paper figure as a DOT file (default ./figures)
  serve [-pprof] [-wal DIR] <family> [size] [addr]  run the HTTP task server (default :8080)
  chaos [-trace FILE] [-kills N] [seed]  fault-injection proof: all workloads under chaos, bit-checked
  difftest [-seed S] [-n N]   differential test: exec vs icsim vs icserver + theorem properties
  experiments                 regenerate the EXPERIMENTS.md tables

performance is measured by the benchmark, not by this command: go run ./bench (bench/README.md)`)
}

func parseFamily(args []string) (family, int, error) {
	if len(args) < 1 {
		return family{}, 0, fmt.Errorf("missing family name")
	}
	f, err := familyByName(args[0])
	if err != nil {
		return family{}, 0, err
	}
	size := defaultSize(f.name)
	if len(args) >= 2 {
		size, err = strconv.Atoi(args[1])
		if err != nil {
			return family{}, 0, fmt.Errorf("bad size %q: %w", args[1], err)
		}
	}
	return f, size, nil
}

func cmdFamilies() error {
	fmt.Printf("%-10s %-34s %s\n", "NAME", "SIZE PARAMETER", "DESCRIPTION")
	for _, f := range families {
		fmt.Printf("%-10s %-34s %s\n", f.name, f.sizes, f.desc)
	}
	return nil
}

func cmdDot(args []string) error {
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	g, _, err := f.build(size)
	if err != nil {
		return err
	}
	fmt.Print(g.DOT(fmt.Sprintf("%s_%d", f.name, size)))
	return nil
}

func cmdVerify(args []string) error {
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	g, nonsinks, err := f.build(size)
	if err != nil {
		return err
	}
	order := sched.Complete(g, nonsinks)
	fmt.Printf("family %s (size %d): %s\n", f.name, size, g)
	if err := sched.Validate(g, order); err != nil {
		return fmt.Errorf("schedule invalid: %w", err)
	}
	fmt.Println("schedule: legal")
	l, err := opt.Analyze(g)
	if errors.Is(err, opt.ErrBudget) {
		fmt.Printf("oracle: skipped (%v)\n", err)
		return nil
	}
	if err != nil {
		return err
	}
	ok, step, err := l.IsOptimal(order)
	if err != nil {
		return err
	}
	if ok {
		fmt.Printf("oracle: IC-OPTIMAL (ideal lattice: %d ideals)\n", l.NumIdeals())
	} else {
		fmt.Printf("oracle: NOT optimal — first shortfall at step %d\n", step)
	}
	return nil
}

func cmdProfile(args []string) error {
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	g, nonsinks, err := f.build(size)
	if err != nil {
		return err
	}
	optOrder := sched.Complete(g, nonsinks)
	rows := []struct {
		name  string
		order []int
	}{}
	prof, err := sched.Profile(g, optOrder)
	if err != nil {
		return err
	}
	rows = append(rows, struct {
		name  string
		order []int
	}{"IC-OPTIMAL", prof})
	for _, p := range heur.Standard(1) {
		order, err := heur.RunOrder(g, p)
		if err != nil {
			return err
		}
		hp, err := sched.Profile(g, order)
		if err != nil {
			return err
		}
		rows = append(rows, struct {
			name  string
			order []int
		}{p.Name(), hp})
	}
	fmt.Printf("eligibility profiles for %s (size %d), E(t) after t executions:\n", f.name, size)
	for _, r := range rows {
		fmt.Printf("%-18s", r.name)
		for t, e := range r.order {
			if t%10 == 0 && t > 0 {
				fmt.Print(" |")
			}
			fmt.Printf(" %2d", e)
		}
		fmt.Println()
	}
	return nil
}

func cmdSim(args []string) error {
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	clients := 8
	if len(args) >= 3 {
		clients, err = strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad client count %q: %w", args[2], err)
		}
	}
	g, nonsinks, err := f.build(size)
	if err != nil {
		return err
	}
	policies := append([]heur.Policy{
		heur.Static("IC-OPTIMAL", sched.Complete(g, nonsinks)),
	}, heur.Standard(17)...)
	results, err := icsim.Compare(g, policies, icsim.Config{Clients: clients, Seed: 42})
	if err != nil {
		return err
	}
	fmt.Printf("IC simulation of %s (size %d, %d nodes) with %d clients:\n\n",
		f.name, size, g.NumNodes(), clients)
	fmt.Printf("%-18s %10s %8s %11s %12s %14s\n",
		"POLICY", "MAKESPAN", "STALLS", "STALL-TIME", "UTILIZATION", "AVG-ELIGIBLE")
	for _, r := range results {
		fmt.Printf("%-18s %10.2f %8d %11.2f %12.3f %14.2f\n",
			r.Policy, r.Makespan, r.Stalls, r.StallTime, r.Utilization, r.AvgEligibleAtRequest)
	}
	return nil
}
