package main

import (
	"errors"
	"fmt"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/opt"
)

// cmdPrioritize mimics the PRIO tool of [19]: read a workflow dag (edge
// list or JSON), compute an IC-quality-maximizing execution order, and
// emit one "name priority" line per task — higher priority means execute
// earlier — ready to paste into a DAGMan-style submit file.
func cmdPrioritize(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("prioritize: missing file name")
	}
	g, err := loadDag(args[0])
	if err != nil {
		return err
	}
	order, source, err := prioritizedOrder(g)
	if err != nil {
		return err
	}
	fmt.Printf("# %d tasks, order source: %s\n", g.NumNodes(), source)
	n := len(order)
	for i, v := range order {
		// DAGMan convention: larger priority runs first.
		fmt.Printf("%s %d\n", g.Name(v), n-i)
	}
	return nil
}

// prioritizedOrder picks the best available schedule: the exact oracle's
// IC-optimal schedule when the dag is small enough and admits one,
// otherwise the job service's raw-dag analyzer, MAX-NEW-ELIGIBLE under
// its better tie-break (heur.BestMaxNewEligible).
func prioritizedOrder(g *dag.Dag) ([]dag.NodeID, string, error) {
	why := "dag beyond the exact oracle's reach"
	l, err := opt.Analyze(g)
	switch {
	case err == nil:
		if order, ok := l.OptimalSchedule(); ok {
			return order, "exact oracle (IC-optimal)", nil
		}
		why = "no IC-optimal schedule exists"
	case !errors.Is(err, opt.ErrBudget):
		return nil, "", err
	}
	order, tie, err := heur.BestMaxNewEligible(g)
	if err != nil {
		return nil, "", err
	}
	return order, fmt.Sprintf("MAX-NEW-ELIGIBLE, ties by %s (%s)", tie, why), nil
}
