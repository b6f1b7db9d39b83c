package main

import (
	"fmt"
	"math/big"

	"icsched/internal/opt"
	"icsched/internal/sched"
)

// cmdCount reports how demanding IC optimality is for a family: the
// number of legal schedules (linear extensions) vs the number that are
// IC-optimal.
func cmdCount(args []string) error {
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	g, nonsinks, err := f.build(size)
	if err != nil {
		return err
	}
	l, err := opt.Analyze(g)
	if err != nil {
		return fmt.Errorf("count: %d nodes: %w", g.NumNodes(), err)
	}
	total := l.CountSchedules()
	optimal := l.CountOptimal()
	fmt.Printf("family %s (size %d): %s\n", f.name, size, g)
	fmt.Printf("legal schedules:      %s\n", total.String())
	fmt.Printf("IC-optimal schedules: %s\n", optimal.String())
	if total.Sign() > 0 {
		ratio := new(big.Float).Quo(new(big.Float).SetInt(optimal), new(big.Float).SetInt(total))
		fmt.Printf("fraction optimal:     %.6f\n", ratio)
	}
	// Sanity: the family's shipped schedule must be among the optimal ones
	// whenever any exist.
	if optimal.Sign() > 0 {
		ok, _, err := l.IsOptimal(sched.Complete(g, nonsinks))
		if err != nil {
			return err
		}
		fmt.Printf("shipped schedule optimal: %v\n", ok)
	}
	return nil
}
