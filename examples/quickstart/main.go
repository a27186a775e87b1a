// Quickstart boots a complete in-process REED deployment — a key
// manager, two data-store servers, and a key-store server — then
// uploads, deduplicates, downloads, and verifies a file with each
// encryption scheme, printing what happened at every step.
//
// Run it with:
//
//	go run ./examples/quickstart
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
	// --- Deployment: in production these are separate machines; ---
	// --- reed-server and reed-keymanager run the same code.      ---
	fmt.Println("== starting deployment ==")

	km, err := reed.NewKeyManagerServer(1024, 0)
	if err != nil {
		return err
	}
	kmAddr, err := serve(func(ln net.Listener) error { return km.Serve(ln) })
	if err != nil {
		return err
	}
	defer km.Shutdown()
	fmt.Println("key manager:     ", kmAddr)

	// Three in-memory storage servers: two hold data, the third holds
	// key states (the key store).
	var addrs []string
	for i := 0; i < 3; i++ {
		backend, err := reed.OpenBackend(ctx, "mem://")
		if err != nil {
			return err
		}
		srv, err := reed.OpenStorageServer(ctx, backend)
		if err != nil {
			return err
		}
		addr, err := serve(func(ln net.Listener) error { return srv.Serve(ln) })
		if err != nil {
			return err
		}
		defer srv.Shutdown()
		addrs = append(addrs, addr)
	}
	dataAddrs, keyAddr := addrs[:2], addrs[2]
	fmt.Println("data servers:    ", dataAddrs)
	fmt.Println("key-store server:", keyAddr)

	// --- Access control: the authority issues per-user credentials. ---
	authority, err := reed.NewAuthority()
	if err != nil {
		return err
	}

	// --- The interesting part: upload, dedup, download, verify. ---
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(data)

	for _, scheme := range []reed.Scheme{reed.SchemeBasic, reed.SchemeEnhanced} {
		fmt.Printf("\n== %v scheme ==\n", scheme)
		user := "alice-" + scheme.String()

		owner, err := reed.NewOwner()
		if err != nil {
			return err
		}
		client, err := reed.NewClient(context.Background(), reed.ClientConfig{
			UserID:         user,
			Scheme:         scheme,
			DataServers:    dataAddrs,
			KeyStoreServer: keyAddr,
			KeyManager:     kmAddr,
			PrivateKey:     authority.IssueKey(user, []string{user}),
			Directory:      authority,
			Owner:          owner,
		})
		if err != nil {
			return err
		}
		defer client.Close()

		pol := reed.PolicyForUsers(user)
		res, err := client.Upload(ctx, "/quickstart.bin", bytes.NewReader(data), pol)
		if err != nil {
			return err
		}
		fmt.Printf("uploaded %d bytes as %d chunks (%d already stored)\n",
			res.LogicalBytes, res.Chunks, res.DuplicateChunks)

		// A second upload of the same data deduplicates completely:
		// only tiny encrypted stubs and metadata are stored anew.
		res2, err := client.Upload(ctx, "/quickstart-copy.bin", bytes.NewReader(data), pol)
		if err != nil {
			return err
		}
		fmt.Printf("re-uploaded: %d/%d chunks were duplicates\n",
			res2.DuplicateChunks, res2.Chunks)

		got, err := client.Download(ctx, "/quickstart.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("downloaded data differs")
		}
		fmt.Printf("downloaded and verified %d bytes\n", len(got))
	}

	return nil
}

// serve starts fn on a loopback listener and returns the address.
func serve(fn func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = fn(ln) }()
	return ln.Addr().String(), nil
}
