package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"icsched/internal/batch"
	"icsched/internal/dag"
	"icsched/internal/dagio"
	"icsched/internal/heur"
	"icsched/internal/opt"
	"icsched/internal/sched"
)

// cmdSchedule prints a family's IC-optimal schedule as JSON.
func cmdSchedule(args []string) error {
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	g, nonsinks, err := f.build(size)
	if err != nil {
		return err
	}
	data, err := dagio.MarshalSchedule(g, sched.Complete(g, nonsinks))
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// cmdLoad reads a dag from a file (JSON if the name ends in .json, else a
// DAGMan-style edge list), then analyzes and schedules it: structural
// summary, oracle verdict when feasible, and the best available schedule.
func cmdLoad(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("load: missing file name")
	}
	g, err := loadDag(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s: %s (critical path %d)\n", args[0], g, g.CriticalPathLen())

	l, err := opt.Analyze(g)
	switch {
	case errors.Is(err, opt.ErrBudget):
		fmt.Printf("oracle: skipped (%v); using MAX-NEW-ELIGIBLE\n", err)
	case err != nil:
		return err
	default:
		if order, ok := l.OptimalSchedule(); ok {
			fmt.Println("oracle: the dag ADMITS an IC-optimal schedule:")
			data, err := dagio.MarshalSchedule(g, order)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			return nil
		}
		fmt.Println("oracle: the dag admits NO IC-optimal schedule; falling back to MAX-NEW-ELIGIBLE")
	}
	order, tie, err := heur.BestMaxNewEligible(g)
	if err != nil {
		return err
	}
	fmt.Printf("MAX-NEW-ELIGIBLE kept ties by %s:\n", tie)
	data, err := dagio.MarshalSchedule(g, order)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// cmdBatch plans batched allocation ([20]-style) for a family.
func cmdBatch(args []string) error {
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	width := 4
	if len(args) >= 3 {
		width, err = strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad width %q: %w", args[2], err)
		}
	}
	g, _, err := f.build(size)
	if err != nil {
		return err
	}
	cmp, err := batch.Run(g, width)
	if err != nil {
		return err
	}
	fmt.Printf("batched scheduling of %s (size %d, %d nodes) at width %d:\n",
		f.name, size, g.NumNodes(), width)
	fmt.Printf("greedy: %d rounds, post-round eligibility %v\n",
		cmp.Greedy.Rounds(), cmp.GreedyProf)
	if cmp.Exact != nil {
		fmt.Printf("exact : %d rounds, post-round eligibility %v\n",
			cmp.Exact.Rounds(), cmp.ExactProf)
	} else {
		fmt.Printf("exact : skipped (%d nodes > %d)\n", g.NumNodes(), batch.MaxNodesExact)
	}
	return nil
}

func loadDag(path string) (*dag.Dag, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		return dagio.UnmarshalJSON(data)
	}
	return dagio.ReadEdgeList(strings.NewReader(string(data)))
}
