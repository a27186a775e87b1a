package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	reed "repro"
	"repro/internal/keymanager"
	"repro/internal/oprf"
)

const (
	shardCount = 4
	ownerName  = "owner"
)

// provision holds everything whose creation time is random — RSA prime
// searches for the key manager's OPRF key and each owner's
// key-regression key — plus the ABE authority. It is built once per run,
// outside every timed phase, and reported as setup.provision_s.
type provision struct {
	kmKey     *oprf.ServerKey
	authority *reed.Authority
	owners    map[string]*reed.Owner
	took      time.Duration
}

func newProvision(owners ...string) (*provision, error) {
	start := time.Now()
	kmKey, err := oprf.GenerateServerKey(oprf.DefaultBits, nil) // RSA-1024, the paper's setting
	if err != nil {
		return nil, fmt.Errorf("key manager key: %w", err)
	}
	authority, err := reed.NewAuthority()
	if err != nil {
		return nil, fmt.Errorf("authority: %w", err)
	}
	p := &provision{kmKey: kmKey, authority: authority, owners: make(map[string]*reed.Owner)}
	for _, name := range owners {
		if p.owners[name], err = reed.NewOwner(); err != nil {
			return nil, fmt.Errorf("owner %s: %w", name, err)
		}
	}
	p.took = time.Since(start)
	return p, nil
}

// deployment is one in-process REED cluster on loopback TCP: a key
// manager, shardCount storage shards and a key-store server, every
// store a disk:// backend with fsync on (the product default) under dir.
// There is no netem link: connections are raw loopback.
type deployment struct {
	dir  string
	prov *provision
	tr   *tracer // nil in untraced runs: no registries, no wrappers

	km         *keymanager.Server
	servers    []*reed.StorageServer // shards, then the key-store server
	backends   []reed.Backend
	listeners  []net.Listener
	serveWG    sync.WaitGroup
	kmAddr     string
	shardAddrs []string
	keyAddr    string
	dialed     int // clients dialed so far (traced passes only)
}

// The servers listen on fixed loopback ports, because the client's
// placement ring hashes shard addresses: the same addresses give every
// run the same chunk placement and shard balance, and a reopened
// deployment finds what the first one stored only at the addresses that
// stored it. A run therefore reserves one block of ports for its whole
// life by holding the block's last port, which no server uses, and every
// deployment it boots — set-up repetitions, the reopen of the verify
// step, the layer replay — listens in that block. Overlapping runs skip
// to the next block.
const (
	portBase   = 21500
	portBlocks = 8
	portStride = 10 // > the shardCount+2 listeners of one deployment
)

type portBlock struct {
	base int
	hold net.Listener
}

func reservePorts() (*portBlock, error) {
	var err error
	for b := 0; b < portBlocks; b++ {
		base := portBase + b*portStride
		var hold net.Listener
		if hold, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+portStride-1)); err == nil {
			return &portBlock{base: base, hold: hold}, nil
		}
	}
	return nil, fmt.Errorf("no free port block: %w", err)
}

func (p *portBlock) release() { _ = p.hold.Close() }

// listen binds the block's server ports. A port taken by a process that
// does not reserve blocks is an error, not a reason to move: moving would
// change the placement.
func (p *portBlock) listen() ([]net.Listener, error) {
	var lns []net.Listener
	for i := 0; i < shardCount+2; i++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p.base+i))
		if err != nil {
			for _, ln := range lns {
				_ = ln.Close()
			}
			return nil, fmt.Errorf("port %d of the reserved block is busy: %w", p.base+i, err)
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// boot opens (or reopens) the stores under dir and starts every server
// on the run's reserved ports.
func boot(ctx context.Context, dir string, prov *provision, tr *tracer, ports *portBlock) (*deployment, error) {
	d := &deployment{dir: dir, prov: prov, tr: tr}
	ok := false
	defer func() {
		if !ok {
			_ = d.shutdown()
		}
	}()
	var err error
	if d.listeners, err = ports.listen(); err != nil {
		return nil, err
	}

	var kmOpts []reed.KeyManagerOption
	if tr != nil {
		kmOpts = append(kmOpts, reed.WithKeyManagerMetrics(tr.kmReg))
	}
	d.km = keymanager.NewServer(prov.kmKey, kmOpts...)
	kmLn := d.listeners[shardCount+1]
	d.kmAddr = kmLn.Addr().String()
	d.serve(func() { _ = d.km.Serve(kmLn) })

	for i := 0; i <= shardCount; i++ {
		name := fmt.Sprintf("shard-%d", i)
		if i == shardCount {
			name = "keystore"
		}
		backend, err := reed.OpenBackend(ctx, "disk://"+filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var opts []reed.StorageServerOption
		if tr != nil {
			backend = tr.wrapBackend(backend)
			opts = append(opts, reed.WithStorageMetrics(tr.serverRegs[i]))
		}
		d.backends = append(d.backends, backend)
		srv, err := reed.OpenStorageServer(ctx, backend, opts...)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, srv)
		ln := d.listeners[i]
		if i < shardCount {
			d.shardAddrs = append(d.shardAddrs, ln.Addr().String())
		} else {
			d.keyAddr = ln.Addr().String()
		}
		d.serve(func() { _ = srv.Serve(ln) })
	}
	ok = true
	return d, nil
}

func (d *deployment) serve(fn func()) {
	d.serveWG.Add(1)
	go func() {
		defer d.serveWG.Done()
		fn()
	}()
}

// shutdown stops every server cleanly — storage servers flush their
// dedup store and file index — closes the backends and waits for the
// serve loops, so the directories can be reopened or measured.
func (d *deployment) shutdown() error {
	var errs []error
	if d.km != nil {
		d.km.Shutdown()
	}
	for _, s := range d.servers {
		errs = append(errs, s.Shutdown())
	}
	for _, ln := range d.listeners {
		_ = ln.Close() // Shutdown already closed it unless Serve never ran
	}
	d.serveWG.Wait()
	for _, b := range d.backends {
		errs = append(errs, b.Close())
	}
	return errors.Join(errs...)
}

// client dials a client for user. Every ClientConfig field is the
// product default except the scheme and the chunking, which are the
// paper's: the enhanced scheme and 8 KB-average Rabin chunks. Users in
// prov.owners can upload and rekey; the rest can only read.
func (d *deployment) client(ctx context.Context, user string) (*reed.Client, error) {
	cfg := reed.ClientConfig{
		UserID:         user,
		Scheme:         reed.SchemeEnhanced,
		DataServers:    d.shardAddrs,
		KeyStoreServer: d.keyAddr,
		KeyManager:     d.kmAddr,
		Chunking:       reed.ChunkerOptions{MinSize: 2 << 10, AvgSize: 8 << 10, MaxSize: 16 << 10},
		PrivateKey:     d.prov.authority.IssueKey(user, []string{user}),
		Directory:      d.prov.authority,
		Owner:          d.prov.owners[user],
	}
	if d.tr != nil {
		// Workloads dial their closed-loop clients in index order, so
		// the dial order is the client index spans are attributed to.
		cfg.Metrics = d.tr.newClientReg()
		cfg.Dialer = d.tr.dialer(d.dialed)
		d.dialed++
	}
	return reed.NewClient(ctx, cfg)
}
