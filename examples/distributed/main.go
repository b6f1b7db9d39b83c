// Distributed: the paper's actual setting — an Internet-computing server
// hands ELIGIBLE tasks to remote clients over HTTP in IC-optimal order.
// This example runs the server and a small fleet of clients in one
// process (over the loopback interface) and executes a real wavefront
// computation: Pascal's triangle accumulated down an out-mesh.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sync"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/sched"
)

func main() {
	levels := 12
	g := mesh.OutMesh(levels)
	order := sched.Complete(g, mesh.OutMeshNonsinks(levels))
	srv := icserver.New(g, heur.Static("IC-OPTIMAL", order),
		icserver.WithLease(2*time.Second))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("server: %s — out-mesh with %d levels (%d tasks)\n", ts.URL, levels, g.NumNodes())

	var mu sync.Mutex
	vals := make([]int64, g.NumNodes())
	compute := func(v dag.NodeID, name string) error {
		mu.Lock()
		defer mu.Unlock()
		if g.IsSource(v) {
			vals[v] = 1
			return nil
		}
		var sum int64
		for _, p := range g.Parents(v) {
			sum += vals[p]
		}
		vals[v] = sum
		return nil
	}

	const clients = 5
	var wg sync.WaitGroup
	stats := make([]icserver.Stats, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &icserver.Client{BaseURL: ts.URL, Compute: compute}
			stats[i], errs[i] = c.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			log.Fatalf("client %d: %v", i, err)
		}
	}

	final, err := icserver.FetchStatus(context.Background(), nil, ts.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d/%d tasks, %d stalls, %d lease reissues\n",
		final.Completed, final.Total, final.Stalls, final.Reissues)
	if final.Completed != final.Total {
		log.Fatalf("server finished %d of %d tasks", final.Completed, final.Total)
	}
	for i, st := range stats {
		fmt.Printf("client %d executed %3d tasks (%d idle polls)\n", i, st.Completed, st.IdlePolls)
	}

	// The bottom mesh row now holds binomial coefficients C(levels-1, j).
	fmt.Printf("bottom row (binomials C(%d, j)): ", levels-1)
	want := int64(1)
	for j := 0; j < levels; j++ {
		got := vals[mesh.TriID(levels-1, j)]
		fmt.Printf("%d ", got)
		if got != want {
			fmt.Println()
			log.Fatalf("bottom row entry %d = %d, want C(%d, %d) = %d", j, got, levels-1, j, want)
		}
		want = want * int64(levels-1-j) / int64(j+1)
	}
	fmt.Println()
}
