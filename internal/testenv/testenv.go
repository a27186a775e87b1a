// Package testenv boots a complete in-process REED deployment — key
// manager, data-store servers, and key-store server on loopback TCP —
// for integration tests, benchmarks, and the experiment driver.
//
// It mirrors the paper's testbed topology (one key manager, four data
// servers, one key-store server, clients on separate "machines") with
// goroutines in one process; an optional netem link caps bandwidth at
// the testbed's effective 1 Gb/s.
package testenv

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/abe"
	"repro/internal/keymanager"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/oprf"
	"repro/internal/server"
	"repro/internal/store"
)

// Options configures a cluster.
type Options struct {
	// DataServers is the number of data-store servers (default 4, per
	// the paper).
	DataServers int
	// RSABits sizes the key manager's OPRF key (default 1024, per the
	// paper; tests may use 512 for speed).
	RSABits int
	// KMKey reuses an existing OPRF key instead of generating one
	// (RSA keygen is the slowest part of cluster startup).
	KMKey *oprf.ServerKey
	// LinkBandwidth, if positive, caps client connections at this many
	// bytes/second via internal/netem.
	LinkBandwidth float64
	// LinkRTT adds per-request latency on emulated links.
	LinkRTT time.Duration
	// RateLimit, if positive, enables key manager per-client rate
	// limiting.
	RateLimit float64
}

// Cluster is a running deployment.
type Cluster struct {
	KMAddr    string
	DataAddrs []string
	KeyAddr   string

	// Authority issues ABE keys for the deployment.
	Authority *abe.Authority

	// Link is non-nil when bandwidth emulation is on; pass
	// Link.Dialer(nil) as the client dialer.
	Link *netem.Link

	km          *keymanager.Server
	servers     []*server.Server
	DataServers []*server.Server
	listeners   []net.Listener
	serveWG     sync.WaitGroup
}

// Start boots a cluster.
func Start(opts Options) (*Cluster, error) {
	if opts.DataServers <= 0 {
		opts.DataServers = 4
	}
	if opts.RSABits <= 0 {
		opts.RSABits = oprf.DefaultBits
	}

	c := &Cluster{}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	kmKey := opts.KMKey
	if kmKey == nil {
		var err error
		kmKey, err = oprf.GenerateServerKey(opts.RSABits, nil)
		if err != nil {
			return nil, fmt.Errorf("testenv: key manager key: %w", err)
		}
	}
	kmOpts := []keymanager.ServerOption{keymanager.WithMetrics(metrics.NewRegistry())}
	if opts.RateLimit > 0 {
		kmOpts = append(kmOpts, keymanager.WithRateLimit(opts.RateLimit, opts.RateLimit))
	}
	c.km = keymanager.NewServer(kmKey, kmOpts...)
	kmLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.listeners = append(c.listeners, kmLn)
	c.KMAddr = kmLn.Addr().String()
	c.serveWG.Add(1)
	go func() {
		defer c.serveWG.Done()
		_ = c.km.Serve(kmLn)
	}()

	// Data servers plus one key-store server.
	for i := 0; i <= opts.DataServers; i++ {
		srv, err := server.New(context.Background(), store.NewMemory(), server.WithMetrics(metrics.NewRegistry()))
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.listeners = append(c.listeners, ln)
		c.servers = append(c.servers, srv)
		c.serveWG.Add(1)
		go func() {
			defer c.serveWG.Done()
			_ = srv.Serve(ln)
		}()
		if i < opts.DataServers {
			c.DataAddrs = append(c.DataAddrs, ln.Addr().String())
			c.DataServers = append(c.DataServers, srv)
		} else {
			c.KeyAddr = ln.Addr().String()
		}
	}

	c.Authority, err = abe.NewAuthority(nil)
	if err != nil {
		return nil, err
	}

	if opts.LinkBandwidth > 0 {
		c.Link, err = netem.NewLinkRTT(opts.LinkBandwidth, opts.LinkRTT)
		if err != nil {
			return nil, err
		}
	}

	ok = true
	return c, nil
}

// Dialer returns the dialer clients should use: the throttled link when
// emulation is on, plain TCP otherwise.
func (c *Cluster) Dialer() func(addr string) (net.Conn, error) {
	if c.Link != nil {
		return c.Link.Dialer(nil)
	}
	return nil
}

// KM returns the cluster's key manager (for metrics inspection and
// direct shutdown in fault tests).
func (c *Cluster) KM() *keymanager.Server { return c.km }

// KMEvaluations returns the number of OPRF evaluations the key manager
// has served.
func (c *Cluster) KMEvaluations() uint64 {
	if c.km == nil {
		return 0
	}
	return c.km.Evaluations()
}

// Close shuts everything down and waits for every serve loop to exit,
// so tests with goroutine-leak checks see a quiet process afterwards.
// It is idempotent.
func (c *Cluster) Close() {
	if c.km != nil {
		c.km.Shutdown()
	}
	for _, s := range c.servers {
		_ = s.Shutdown()
	}
	for _, ln := range c.listeners {
		_ = ln.Close()
	}
	c.serveWG.Wait()
}

// ShardedOptions configures a ShardedCluster.
type ShardedOptions struct {
	// Shards is the number of storage shards (default 4).
	Shards int
	// RSABits sizes the key manager's OPRF key (default 1024; tests may
	// use 512 for speed).
	RSABits int
	// KMKey reuses an existing OPRF key instead of generating one.
	KMKey *oprf.ServerKey
	// LinkBandwidth and LinkRTT emulate the client links via
	// internal/netem, as in Options.
	LinkBandwidth float64
	LinkRTT       time.Duration
	// RateLimit, if positive, enables key manager rate limiting.
	RateLimit float64
}

// ShardedCluster is an N-shard deployment: N storage shards, one key
// manager, one key-store server. It is the cluster topology the ring
// router targets — pass ShardAddrs as the client's DataServers and the
// consistent-hash ring partitions the fingerprint space across the
// shards. The embedded Cluster keeps every single-node helper
// (Dialer, KM, Close) working unchanged, and client connections remain
// netem-wrappable through LinkBandwidth/LinkRTT.
type ShardedCluster struct {
	*Cluster
}

// StartSharded boots an N-shard cluster.
func StartSharded(opts ShardedOptions) (*ShardedCluster, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	c, err := Start(Options{
		DataServers:   opts.Shards,
		RSABits:       opts.RSABits,
		KMKey:         opts.KMKey,
		LinkBandwidth: opts.LinkBandwidth,
		LinkRTT:       opts.LinkRTT,
		RateLimit:     opts.RateLimit,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedCluster{Cluster: c}, nil
}

// ShardAddrs returns the storage shard addresses, in boot order.
func (c *ShardedCluster) ShardAddrs() []string { return c.DataAddrs }

// Shards returns the in-process shard servers, index-aligned with
// ShardAddrs (for metrics inspection and targeted shutdown in fault
// tests).
func (c *ShardedCluster) Shards() []*server.Server { return c.DataServers }

// TB is the subset of testing.TB the test helpers need; an interface so
// testenv does not import testing into non-test binaries.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Cleanup(func())
}

// StartServer boots one standalone storage server on loopback TCP —
// for tests that need a server they can kill independently of a shared
// cluster. Cleanup shuts the server down and waits for its serve loop
// to exit, so a test that already killed it (Shutdown is idempotent)
// or failed mid-way leaks neither the goroutine nor the listener.
func StartServer(tb TB) (*server.Server, string) {
	tb.Helper()
	return StartServerOn(tb, store.NewMemory())
}

// StartServerOn is StartServer over the given backend, for tests that
// wrap one to inject faults.
func StartServerOn(tb TB, backend store.Backend) (*server.Server, string) {
	tb.Helper()
	srv, err := server.New(context.Background(), backend, server.WithMetrics(metrics.NewRegistry()))
	if err != nil {
		tb.Fatalf("testenv: start server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("testenv: listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	tb.Cleanup(func() {
		_ = srv.Shutdown()
		_ = ln.Close()
		<-done
	})
	return srv, ln.Addr().String()
}
