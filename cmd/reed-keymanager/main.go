// Command reed-keymanager runs the REED key manager: the dedicated
// service that turns blinded chunk fingerprints into MLE keys via an
// oblivious PRF (blinded RSA signatures, as in DupLESS).
//
// The key manager never learns fingerprints or content. Per-client rate
// limiting defends against online brute-force probing from compromised
// clients.
//
// Usage:
//
//	reed-keymanager -listen :9002 -key km.key -bits 1024 -rate 10000
//
// -key names the file holding the OPRF key (PKCS#1, the key manager's
// root secret): it is loaded if it exists, else generated and written
// with mode 0600. Without -key every start mints a fresh key, and no
// upload after a restart deduplicates against chunks stored before it.
package main

import (
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
		fmt.Fprintln(os.Stderr, "reed-keymanager:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":9002", "address to listen on")
		keyFile   = flag.String("key", "", "OPRF key file: loaded if it exists, else generated and written with mode 0600 (empty = a fresh key per start)")
		bits      = flag.Int("bits", 1024, "RSA modulus size for a generated OPRF key")
		rate      = flag.Float64("rate", 0, "per-client key generations per second (0 = unlimited)")
		adminAddr = flag.String("admin", "", "admin HTTP address for /metrics, /healthz, /debug/pprof (e.g. 127.0.0.1:9091; empty = disabled)")
	)
	flag.Parse()

	reg := reed.NewMetricsRegistry()
	var srv *reed.KeyManagerServer
	var err error
	if *keyFile != "" {
		srv, err = reed.OpenKeyManagerServer(*keyFile, *bits, *rate, reed.WithKeyManagerMetrics(reg))
	} else {
		srv, err = reed.NewKeyManagerServer(*bits, *rate, reed.WithKeyManagerMetrics(reg))
	}
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("key manager listening on %s (rsa=%d bits, rate=%v/s)", ln.Addr(), *bits, *rate)

	if *adminAddr != "" {
		adm, err := reed.StartAdmin(*adminAddr, reg.Snapshot, nil)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer adm.Close()
		log.Printf("admin endpoint on http://%s/metrics (unauthenticated; keep it loopback or firewalled)", adm.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
		srv.Shutdown()
		return nil
	case err := <-errc:
		return err
	}
}
