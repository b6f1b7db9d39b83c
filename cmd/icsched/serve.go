package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/sched"
	"icsched/internal/wal"
)

// cmdServe runs the Internet-computing task server for a family on the
// given address, allocating in IC-optimal order.  Clients follow the
// protocol in internal/icserver (POST /tasks, POST /report, GET
// /status, GET /healthz, GET /metrics).  -pprof additionally mounts
// net/http/pprof under /debug/pprof/ for live profiling.  On
// SIGINT/SIGTERM the server drains: grants are refused while in-flight
// leases get up to one lease period to report, then the listener shuts
// down.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	withPprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	walDir := fs.String("wal", "", "crash-safe mode: journal every state change to this directory and resume from it on restart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	addr := ":8080"
	if len(args) >= 3 {
		addr = args[2]
	}
	g, nonsinks, err := f.build(size)
	if err != nil {
		return err
	}
	lease := time.Minute
	order := sched.Complete(g, nonsinks)
	var srv *icserver.Server
	if *walDir != "" {
		srv, err = icserver.Recover(*walDir, g, heur.Static("IC-OPTIMAL", order),
			wal.Options{}, icserver.WithLease(lease))
		if err != nil {
			return err
		}
		st := srv.Status()
		fmt.Printf("journal: %s (epoch %d, resuming at %d/%d tasks)\n",
			*walDir, st.Epoch, st.Completed, st.Total)
	} else {
		srv = icserver.New(g, heur.Static("IC-OPTIMAL", order), icserver.WithLease(lease))
	}
	fmt.Printf("serving %s (size %d, %d tasks) on %s\n", f.name, size, g.NumNodes(), addr)
	fmt.Println("protocol: POST /tasks {\"k\": n} | POST /report {\"done\": [ids], \"failed\": [ids], \"k\": n, \"epoch\": e} | GET /status | GET /healthz | GET /metrics")

	handler := srv.Handler()
	if *withPprof {
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
		fmt.Printf("\n%s: draining in-flight leases (up to %v)...\n", sig, lease)
		drainCtx, cancel := context.WithTimeout(context.Background(), lease)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Println(err)
		}
		closeCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := httpSrv.Shutdown(closeCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		st := srv.Status()
		fmt.Printf("stopped: %d/%d tasks completed, %d reissues, %d quarantined\n",
			st.Completed, st.Total, st.Reissues, st.Quarantined)
		return nil
	}
}
