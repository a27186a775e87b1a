package reed_test

import (
	"bytes"
	"context"
	"fmt"
	"net"

	reed "repro"
)

// ctx is the default context test call sites run under.
var ctx = context.Background()

// Example demonstrates the complete REED lifecycle against an
// in-process deployment: provision, upload, deduplicate, download, and
// revoke.
func Example() {
	// Deployment (one key manager, one data server, one key store; a
	// production setup runs these as separate processes — see
	// cmd/reed-server and cmd/reed-keymanager).
	km, err := reed.NewKeyManagerServer(1024, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	kmLn, _ := net.Listen("tcp", "127.0.0.1:0")
	go func() { _ = km.Serve(kmLn) }()
	defer km.Shutdown()

	dataBackend, _ := reed.OpenBackend(ctx, "mem://")
	dataSrv, _ := reed.OpenStorageServer(ctx, dataBackend)
	dataLn, _ := net.Listen("tcp", "127.0.0.1:0")
	go func() { _ = dataSrv.Serve(dataLn) }()
	defer dataSrv.Shutdown()

	keyBackend, _ := reed.OpenBackend(ctx, "mem://")
	keySrv, _ := reed.OpenStorageServer(ctx, keyBackend)
	keyLn, _ := net.Listen("tcp", "127.0.0.1:0")
	go func() { _ = keySrv.Serve(keyLn) }()
	defer keySrv.Shutdown()

	// Access control.
	authority, _ := reed.NewAuthority()
	owner, _ := reed.NewOwner()

	client, err := reed.NewClient(context.Background(), reed.ClientConfig{
		UserID:         "alice",
		Scheme:         reed.SchemeEnhanced,
		DataServers:    []string{dataLn.Addr().String()},
		KeyStoreServer: keyLn.Addr().String(),
		KeyManager:     kmLn.Addr().String(),
		PrivateKey:     authority.IssueKey("alice", []string{"alice"}),
		Directory:      authority,
		Owner:          owner,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer client.Close()

	// Upload, shared with bob; then revoke bob.
	data := bytes.Repeat([]byte("backup data "), 10000)
	res, err := client.Upload(ctx, "/demo.bin", bytes.NewReader(data), reed.PolicyForUsers("alice", "bob"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("uploaded %d bytes in %d chunks\n", res.LogicalBytes, res.Chunks)

	got, err := client.Download(ctx, "/demo.bin")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("downloaded %d bytes intact: %v\n", len(got), bytes.Equal(got, data))

	rk, err := client.Rekey(ctx, "/demo.bin", reed.PolicyForUsers("alice"), reed.ActiveRevocation)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("rekeyed: version %d -> %d\n", rk.OldVersion, rk.NewVersion)

	// Output:
	// uploaded 120000 bytes in 8 chunks
	// downloaded 120000 bytes intact: true
	// rekeyed: version 1 -> 2
}

// ExampleParsePolicy shows the policy language.
func ExampleParsePolicy() {
	pol, err := reed.ParsePolicy("and(dept-genomics, or(alice, bob, 2of(x, y, z)))")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(pol.String())
	fmt.Println("leaves:", pol.CountLeaves())
	// Output:
	// and(dept-genomics, or(alice, bob, 2of(x, y, z)))
	// leaves: 6
}
