// Command reed-server runs a REED storage server: server-side
// deduplication of trimmed packages plus blob storage for recipes, stub
// files, and key states.
//
// The paper's deployment runs four of these as data-store servers and a
// fifth as the key-store server; the roles differ only in which requests
// clients send, so there is a single binary.
//
// Usage:
//
//	reed-server -listen :9000 -backend disk:///var/lib/reed
//	reed-server -listen :9000 -backend http://10.0.0.5:9100/reed
//
// The default backend (mem://) lives in memory and vanishes on exit
// (useful for experiments). On startup the server recovers its dedup
// index from the last checkpoint plus the write-ahead log, so a kill -9
// loses no acknowledged data on a durable backend.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	reed "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reed-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":9000", "address to listen on")
		dsn       = flag.String("backend", "mem://", "backend DSN: mem://, disk:///path, or http://host/bucket")
		adminAddr = flag.String("admin", "", "admin HTTP address for /metrics, /healthz, /debug/pprof (e.g. 127.0.0.1:9090; empty = disabled)")
	)
	flag.Parse()
	ctx := context.Background()

	backend, err := reed.OpenBackend(ctx, *dsn)
	if err != nil {
		return err
	}

	reg := reed.NewMetricsRegistry()
	srv, err := reed.OpenStorageServer(ctx, backend, reed.WithStorageMetrics(reg))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("storage server listening on %s (backend=%s)", ln.Addr(), *dsn)

	if *adminAddr != "" {
		adm, err := reed.StartAdmin(*adminAddr, reg.Snapshot, nil)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer adm.Close()
		log.Printf("admin endpoint on http://%s/metrics (unauthenticated; keep it loopback or firewalled)", adm.Addr())
	}

	// Flush containers and the dedup index on SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
		return srv.Shutdown()
	case err := <-errc:
		return err
	}
}
