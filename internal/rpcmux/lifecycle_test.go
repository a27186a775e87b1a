package rpcmux_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/keymanager"
	"repro/internal/oprf"
	"repro/internal/server"
	"repro/internal/store"
)

// kmKey is generated once per test binary: make chaos runs the
// lifecycle test hundreds of times in one process.
var kmKey = sync.OnceValues(func() (*oprf.ServerKey, error) {
	return oprf.GenerateServerKey(oprf.DefaultBits, nil)
})

// TestServeShutdown runs the Serve/Shutdown contract on both daemons
// that serve through rpcmux.Server. Whether Shutdown or the Serve
// goroutine reaches the server's mutex first is the scheduler's choice,
// so make chaos repeats this test many times to visit both orders.
func TestServeShutdown(t *testing.T) {
	daemons := []struct {
		name  string
		start func(t *testing.T) (serve func(net.Listener) error, shutdown func() error)
	}{
		{"server", func(t *testing.T) (func(net.Listener) error, func() error) {
			srv, err := server.New(context.Background(), store.NewMemory())
			if err != nil {
				t.Fatal(err)
			}
			return srv.Serve, srv.Shutdown
		}},
		{"keymanager", func(t *testing.T) (func(net.Listener) error, func() error) {
			key, err := kmKey()
			if err != nil {
				t.Fatal(err)
			}
			srv := keymanager.NewServer(key)
			return srv.Serve, func() error { srv.Shutdown(); return nil }
		}},
	}
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			// A Serve loop stopped by Shutdown reports the normalized
			// net.ErrClosed, so callers can tell a clean stop from a
			// real accept failure.
			t.Run("ReturnsErrClosedAfterShutdown", func(t *testing.T) {
				serve, shutdown := d.start(t)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				errCh := make(chan error, 1)
				go func() { errCh <- serve(ln) }()

				// Prove the loop is live before shutting it down.
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				conn.Close()

				if err := shutdown(); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-errCh:
					if !errors.Is(err, net.ErrClosed) {
						t.Fatalf("Serve returned %v, want net.ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Serve did not return after Shutdown")
				}
			})
			// The ordering the case above hits only when Shutdown wins
			// the race to the mutex: Serve is handed a listener the
			// shutdown never saw, and must close it and report the same
			// clean stop.
			t.Run("AfterShutdownClosesListener", func(t *testing.T) {
				serve, shutdown := d.start(t)
				if err := shutdown(); err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				if err := serve(ln); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("Serve returned %v, want net.ErrClosed", err)
				}
				if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("listener still open after Serve returned: Accept error = %v", err)
				}
			})
		})
	}
}
