// Lifecycle demonstrates the full life of sensitive data in REED beyond
// the basic upload/download flow: pathname obfuscation, remote data
// checking (audits), amortized group rekeying, and secure deletion with
// reference-counted garbage collection.
//
// Run it with:
//
//	go run ./examples/lifecycle
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"

	reed "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	dataAddrs, keyAddr, kmAddr, authority, shutdown, err := startDeployment()
	if err != nil {
		return err
	}
	defer shutdown()

	owner, err := reed.NewOwner()
	if err != nil {
		return err
	}
	client, err := reed.NewClient(context.Background(), reed.ClientConfig{
		UserID:         "records-admin",
		Scheme:         reed.SchemeEnhanced,
		DataServers:    dataAddrs,
		KeyStoreServer: keyAddr,
		KeyManager:     kmAddr,
		PrivateKey:     authority.IssueKey("records-admin", []string{"records-admin"}),
		Directory:      authority,
		Owner:          owner,

		// Hide pathnames from the cloud: every remote object is
		// addressed by a salted hash of its path.
		ObfuscatePaths: true,
		PathSalt:       []byte("example-salt-32-bytes-long-okay!"),

		// Generate remote-data-checking tickets at upload time.
		AuditTickets: 8,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	pol := reed.PolicyForUsers("records-admin")

	// --- Upload a set of quarterly archives. ---
	fmt.Println("== uploading archives (pathnames obfuscated on the wire) ==")
	rng := rand.New(rand.NewSource(3))
	paths := []string{"/records/q1.tar", "/records/q2.tar", "/records/q3.tar"}
	books := make(map[string]*reed.AuditBook, len(paths))
	contents := make(map[string][]byte, len(paths))
	for _, path := range paths {
		data := make([]byte, 2<<20)
		rng.Read(data)
		contents[path] = data
		res, err := client.Upload(ctx, path, bytes.NewReader(data), pol)
		if err != nil {
			return err
		}
		books[path] = res.AuditBook
		fmt.Printf("%s: %d chunks, %d audit tickets issued\n",
			path, res.Chunks, res.AuditBook.Remaining())
	}
	names, err := client.List(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("remote listing shows opaque names, e.g. %s...\n", names[0][:16])

	// --- Periodic audits: prove the cloud still holds the bytes. ---
	fmt.Println("\n== auditing stored data (spot-check tickets) ==")
	for _, path := range paths {
		for i := 0; i < 2; i++ {
			ok, err := client.Audit(ctx, books[path])
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("audit of %s failed: data corrupted or lost", path)
			}
		}
		fmt.Printf("%s: 2 audits passed, %d tickets left\n", path, books[path].Remaining())
	}

	// --- Group rekey: one wind + one policy encryption for all files. ---
	fmt.Println("\n== group rekey (annual key rotation) ==")
	res, err := client.RekeyGroup(ctx, paths, pol, reed.ActiveRevocation)
	if err != nil {
		return err
	}
	fmt.Printf("rotated %d files to key version %d in %v: %d policy encryption (not %d), %d stub bytes re-encrypted\n",
		res.Files, res.NewVersion, res.Elapsed.Round(1e6), res.PolicyEncryptions, res.Files, res.StubBytes)

	// --- Secure deletion with reference-counted GC. ---
	fmt.Println("\n== retention expiry: delete q1 ==")
	// First upload a duplicate of q1 under another path, to show that
	// shared chunks survive a single deletion.
	if _, err := client.Upload(ctx, "/hold/q1-legal-hold.tar", bytes.NewReader(contents[paths[0]]), pol); err != nil {
		return err
	}
	del, err := client.Delete(ctx, paths[0])
	if err != nil {
		return err
	}
	fmt.Printf("deleted %s: %d chunk refs dropped, %d chunks reclaimed (legal-hold copy still references them)\n",
		paths[0], del.Chunks, del.FreedChunks)
	if _, err := client.Download(ctx, paths[0]); err == nil {
		return fmt.Errorf("deleted file still downloadable")
	}
	got, err := client.Download(ctx, "/hold/q1-legal-hold.tar")
	if err != nil || !bytes.Equal(got, contents[paths[0]]) {
		return fmt.Errorf("legal-hold copy damaged: %v", err)
	}
	fmt.Println("original gone; legal-hold copy intact")

	del2, err := client.Delete(ctx, "/hold/q1-legal-hold.tar")
	if err != nil {
		return err
	}
	fmt.Printf("deleted the legal-hold copy: %d chunks reclaimed this time\n", del2.FreedChunks)

	// Storage accounting after the lifecycle.
	stats, err := client.ServerStats(ctx)
	if err != nil {
		return err
	}
	var physical, stub uint64
	for _, s := range stats {
		physical += s.PhysicalBytes
		stub += s.StubBytes
	}
	fmt.Printf("\nfinal storage: %.2f MB physical + %.2f MB stubs for %d remaining files\n",
		float64(physical)/(1<<20), float64(stub)/(1<<20), len(paths)-1)
	return nil
}

// startDeployment boots an in-process deployment (see examples/quickstart
// for the annotated version).
func startDeployment() (dataAddrs []string, keyAddr, kmAddr string, authority *reed.Authority, shutdown func(), err error) {
	var shutdowns []func()
	shutdown = func() {
		for _, fn := range shutdowns {
			fn()
		}
	}

	km, err := reed.NewKeyManagerServer(1024, 0)
	if err != nil {
		return nil, "", "", nil, shutdown, err
	}
	kmAddr, err = serve(func(ln net.Listener) error { return km.Serve(ln) })
	if err != nil {
		return nil, "", "", nil, shutdown, err
	}
	shutdowns = append(shutdowns, km.Shutdown)

	// Two data servers, then the key-store server.
	ctx := context.Background()
	var addrs []string
	for i := 0; i < 3; i++ {
		backend, err := reed.OpenBackend(ctx, "mem://")
		if err != nil {
			return nil, "", "", nil, shutdown, err
		}
		srv, err := reed.OpenStorageServer(ctx, backend)
		if err != nil {
			return nil, "", "", nil, shutdown, err
		}
		addr, err := serve(func(ln net.Listener) error { return srv.Serve(ln) })
		if err != nil {
			return nil, "", "", nil, shutdown, err
		}
		shutdowns = append(shutdowns, func() { _ = srv.Shutdown() })
		addrs = append(addrs, addr)
	}
	dataAddrs, keyAddr = addrs[:2], addrs[2]

	authority, err = reed.NewAuthority()
	if err != nil {
		return nil, "", "", nil, shutdown, err
	}
	return dataAddrs, keyAddr, kmAddr, authority, shutdown, nil
}

func serve(fn func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = fn(ln) }()
	return ln.Addr().String(), nil
}
