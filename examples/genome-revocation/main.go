// Genome-revocation walks through the access-control scenario from the
// paper's Section II-B: a genome research project stores a large,
// highly deduplicable dataset in the cloud; when a researcher leaves the
// project, their access must be revoked without re-encrypting terabytes
// of sequence data.
//
// The example shows both revocation modes:
//
//   - lazy revocation replaces only the policy-encrypted key state —
//     the departed researcher can no longer obtain any current or
//     future file key, while remaining members keep reading old data
//     via key regression;
//   - active revocation additionally re-encrypts each file's stub file
//     (64 bytes per chunk) under the new key — immediate protection at
//     a cost proportional to the stub data, not the dataset.
//
// Run it with:
//
//	go run ./examples/genome-revocation
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

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

	// The project lead owns the datasets; two researchers collaborate.
	members := []string{"prof-chen", "dr-ellis", "dr-novak"}
	clients := make(map[string]*reed.Client, len(members))
	for _, name := range members {
		owner, err := reed.NewOwner()
		if err != nil {
			return err
		}
		c, err := reed.NewClient(context.Background(), reed.ClientConfig{
			UserID:         name,
			Scheme:         reed.SchemeEnhanced, // resists MLE-key leakage
			DataServers:    dataAddrs,
			KeyStoreServer: keyAddr,
			KeyManager:     kmAddr,
			PrivateKey:     authority.IssueKey(name, []string{name}),
			Directory:      authority,
			Owner:          owner,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		clients[name] = c
	}
	lead := clients["prof-chen"]

	// Sequencing runs share most of their content (reference genome,
	// re-sequenced regions) — the dedup-friendly workload the paper's
	// genome motivation describes (83% dedup in real deployments).
	fmt.Println("== uploading sequencing runs ==")
	reference := make([]byte, 6<<20)
	rand.New(rand.NewSource(2)).Read(reference)
	projectPolicy := reed.PolicyForUsers(members...)

	runs := []string{"/genome/run-001.fastq", "/genome/run-002.fastq"}
	for i, path := range runs {
		// Each run is the reference with a sprinkling of variants.
		data := append([]byte(nil), reference...)
		rng := rand.New(rand.NewSource(int64(i + 10)))
		for v := 0; v < 16; v++ {
			off := rng.Intn(len(data) - 4096)
			rng.Read(data[off : off+4096])
		}
		res, err := lead.Upload(ctx, path, bytes.NewReader(data), projectPolicy)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d chunks, %d deduplicated against earlier runs\n",
			path, res.Chunks, res.DuplicateChunks)
	}

	fmt.Println("\n== all members can read ==")
	for _, name := range members {
		if _, err := clients[name].Download(ctx, runs[0]); err != nil {
			return fmt.Errorf("%s cannot read: %w", name, err)
		}
		fmt.Printf("%s: ok\n", name)
	}

	// dr-novak leaves the project. Lazy-revoke run-001 and
	// active-revoke run-002 to show the cost difference.
	fmt.Println("\n== dr-novak leaves the project ==")
	remaining := reed.PolicyForUsers("prof-chen", "dr-ellis")

	start := time.Now()
	if _, err := lead.Rekey(ctx, runs[0], remaining, reed.LazyRevocation); err != nil {
		return err
	}
	fmt.Printf("lazy revocation of %s:   %v (key state only)\n",
		runs[0], time.Since(start).Round(time.Microsecond))

	start = time.Now()
	res, err := lead.Rekey(ctx, runs[1], remaining, reed.ActiveRevocation)
	if err != nil {
		return err
	}
	fmt.Printf("active revocation of %s: %v (%d stub bytes re-encrypted — not the %d MB dataset)\n",
		runs[1], time.Since(start).Round(time.Microsecond), res.StubBytes, len(reference)>>20)

	fmt.Println("\n== after revocation ==")
	for _, path := range runs {
		for _, name := range members {
			_, err := clients[name].Download(ctx, path)
			switch {
			case name == "dr-novak" && err == nil:
				return fmt.Errorf("revoked researcher still reads %s", path)
			case name != "dr-novak" && err != nil:
				return fmt.Errorf("%s lost access to %s: %w", name, path, err)
			}
		}
	}
	fmt.Println("prof-chen: ok    dr-ellis: ok    dr-novak: access denied")

	// New data under the new policy stays out of dr-novak's reach too.
	fmt.Println("\n== new uploads are protected by the new key state ==")
	newRun := make([]byte, 1<<20)
	rand.New(rand.NewSource(99)).Read(newRun)
	if _, err := lead.Upload(ctx, "/genome/run-003.fastq", bytes.NewReader(newRun), remaining); err != nil {
		return err
	}
	if _, err := clients["dr-novak"].Download(ctx, "/genome/run-003.fastq"); err == nil {
		return fmt.Errorf("revoked researcher read a new upload")
	}
	if _, err := clients["dr-ellis"].Download(ctx, "/genome/run-003.fastq"); err != nil {
		return err
	}
	fmt.Println("run-003 readable by members, denied to dr-novak")
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
