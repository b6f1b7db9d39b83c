package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icsched/internal/dag"
	"icsched/internal/shard"
)

// serveSharded is the `serve -shards K` path: the dag is cut into K
// schedule-guided components and served by K embedded task servers
// behind one coordinator, each shard mounted under /shard/<i>/ with
// cross-shard arcs forwarded (and, with -wal, journaled) by the bus.
// The coordinator-level GET /status, /healthz and /metrics aggregate
// all shards.
func serveSharded(g *dag.Dag, order []dag.NodeID, family string, size int, addr string, k int, walDir string, withPprof bool, lease time.Duration) error {
	// Schedule-guided cut over the global IC-optimal order: contiguous
	// chunks keep the cut forward-only and the eligibility frontier
	// spread across shards.
	p, err := shard.ByOrder(g, k, g.TopoOrder())
	if err != nil {
		return err
	}
	cfg := shard.Config{Dir: walDir, Lease: lease}
	coord, err := shard.New(g, order, p, cfg)
	if err != nil {
		return err
	}
	if walDir != "" {
		st := coord.Status()
		fmt.Printf("journal: %s (bus + %d shard journals, resuming at %d/%d tasks)\n",
			walDir, p.K, st.Completed, st.Total)
	}
	fmt.Printf("serving %s (size %d, %d tasks) sharded %d ways on %s\n",
		family, size, g.NumNodes(), p.K, addr)
	for _, s := range p.PerShard() {
		fmt.Printf("  shard %d: %d tasks, %d arcs in, %d arcs out (/shard/%d/)\n",
			s.Shard, s.Nodes, s.CrossIn, s.CrossOut, s.Shard)
	}
	fmt.Println("protocol per shard: POST /shard/<i>/tasks {\"k\": n} | POST /shard/<i>/report | GET /shard/<i>/status; coordinator: GET /status | GET /healthz | GET /metrics")

	handler := http.Handler(coord.Handler())
	if withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Println("pprof: mounted at /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("\n%s: draining in-flight leases on %d shards (up to %v)...\n", sig, p.K, lease)
		drainCtx, cancel := context.WithTimeout(context.Background(), lease)
		defer cancel()
		if err := coord.Shutdown(drainCtx); err != nil {
			fmt.Println(err)
		}
		closeCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := httpSrv.Shutdown(closeCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		st := coord.Status()
		fmt.Printf("stopped: %d/%d tasks completed, %d reissues, %d quarantined, %d cross-shard credits\n",
			st.Completed, st.Total, st.Reissues, st.Quarantined, st.ArcsForwarded)
		return nil
	}
}
