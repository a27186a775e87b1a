package reed_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	reed "repro"
)

// startDeployment boots a minimal REED deployment through the public API
// only, as a downstream user would.
func startDeployment(t *testing.T) (dataAddrs []string, keyAddr, kmAddr string, authority *reed.Authority) {
	t.Helper()

	km, err := reed.NewKeyManagerServer(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	kmLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = km.Serve(kmLn) }()
	t.Cleanup(km.Shutdown)

	// Two data servers, then the key-store server.
	var addrs []string
	for i := 0; i < 3; i++ {
		backend, err := reed.OpenBackend(context.Background(), "mem://")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := reed.OpenStorageServer(context.Background(), backend)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Shutdown() })
		addrs = append(addrs, ln.Addr().String())
	}

	authority, err = reed.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	return addrs[:2], addrs[2], kmLn.Addr().String(), authority
}

func newPublicClient(t *testing.T, user string, dataAddrs []string, keyAddr, kmAddr string, authority *reed.Authority) *reed.Client {
	t.Helper()
	owner, err := reed.NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reed.NewClient(ctx, reed.ClientConfig{
		UserID:         user,
		Scheme:         reed.SchemeEnhanced,
		DataServers:    dataAddrs,
		KeyStoreServer: keyAddr,
		KeyManager:     kmAddr,
		PrivateKey:     authority.IssueKey(user, []string{user}),
		Directory:      authority,
		Owner:          owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestPublicAPIEndToEnd exercises the complete published workflow:
// deploy, upload, deduplicate, download, revoke.
func TestPublicAPIEndToEnd(t *testing.T) {
	dataAddrs, keyAddr, kmAddr, authority := startDeployment(t)
	alice := newPublicClient(t, "alice", dataAddrs, keyAddr, kmAddr, authority)
	bob := newPublicClient(t, "bob", dataAddrs, keyAddr, kmAddr, authority)

	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(42)).Read(data)

	res, err := alice.Upload(ctx, "/shared.dat", bytes.NewReader(data), reed.PolicyForUsers("alice", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks == 0 || res.LogicalBytes != int64(len(data)) {
		t.Fatalf("upload result = %+v", res)
	}

	// Both users read the shared file.
	for name, c := range map[string]*reed.Client{"alice": alice, "bob": bob} {
		got, err := c.Download(ctx, "/shared.dat")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s download: %v", name, err)
		}
	}

	// A second upload of the same content deduplicates fully.
	res2, err := alice.Upload(ctx, "/copy.dat", bytes.NewReader(data), reed.PolicyForUsers("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.DuplicateChunks != res2.Chunks {
		t.Fatalf("dedup: %d/%d", res2.DuplicateChunks, res2.Chunks)
	}

	// Revoke bob actively; alice keeps access, bob loses it.
	if _, err := alice.Rekey(ctx, "/shared.dat", reed.PolicyForUsers("alice"), reed.ActiveRevocation); err != nil {
		t.Fatal(err)
	}
	if got, err := alice.Download(ctx, "/shared.dat"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("alice after revocation: %v", err)
	}
	if _, err := bob.Download(ctx, "/shared.dat"); err == nil {
		t.Fatal("bob still reads after revocation")
	}
}

// TestKeyManagerRestartKeepsDeduplicating restarts the key manager on
// the same key file. A fresh client, with no cached MLE keys, then
// re-uploads a file through a non-seekable reader, so no whole-file clone
// can happen: every chunk must be found already stored. With a key
// minted per start none would be.
func TestKeyManagerRestartKeepsDeduplicating(t *testing.T) {
	dataAddrs, keyAddr, _, authority := startDeployment(t)
	keyFile := filepath.Join(t.TempDir(), "km.key")
	startKM := func() (*reed.KeyManagerServer, string) {
		km, err := reed.OpenKeyManagerServer(keyFile, 1024, 0)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = km.Serve(ln) }()
		t.Cleanup(km.Shutdown)
		return km, ln.Addr().String()
	}

	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(7)).Read(data)
	upload := func(c *reed.Client, path string) *reed.UploadResult {
		res, err := c.Upload(ctx, path, struct{ io.Reader }{bytes.NewReader(data)}, reed.PolicyForUsers("alice"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	km, kmAddr := startKM()
	upload(newPublicClient(t, "alice", dataAddrs, keyAddr, kmAddr, authority), "/before.dat")
	km.Shutdown()
	if fi, err := os.Stat(keyFile); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("key file: %v, mode %v", err, fi.Mode())
	}

	_, kmAddr = startKM()
	res := upload(newPublicClient(t, "alice", dataAddrs, keyAddr, kmAddr, authority), "/after.dat")
	if res.WholeFileHit || res.Chunks == 0 || res.SkippedChunks != res.Chunks {
		t.Fatalf("after restart: whole-file hit %v, skipped %d of %d chunks; want every chunk skipped without a clone",
			res.WholeFileHit, res.SkippedChunks, res.Chunks)
	}
}

func TestParsePolicy(t *testing.T) {
	pol, err := reed.ParsePolicy("and(dept, or(alice, bob))")
	if err != nil {
		t.Fatal(err)
	}
	if pol.CountLeaves() != 3 {
		t.Fatalf("leaves = %d", pol.CountLeaves())
	}
	if _, err := reed.ParsePolicy("or("); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestOpenBackendDSN(t *testing.T) {
	if _, err := reed.OpenBackend(ctx, "mem://"); err != nil {
		t.Fatalf("mem://: %v", err)
	}
	if _, err := reed.OpenBackend(ctx, "disk://"+t.TempDir()); err != nil {
		t.Fatalf("disk://: %v", err)
	}
	for _, dsn := range []string{"", "ftp://x", "mem://host", "disk://"} {
		if _, err := reed.OpenBackend(ctx, dsn); err == nil {
			t.Errorf("OpenBackend(%q) accepted", dsn)
		}
	}
}

func TestDiskBackedDeployment(t *testing.T) {
	backend, err := reed.OpenBackend(ctx, "disk://"+t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := reed.OpenStorageServer(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Shutdown()

	// Reuse the rest of a deployment but point data at the disk server.
	_, keyAddr, kmAddr, authority := startDeployment(t)
	owner, err := reed.NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reed.NewClient(ctx, reed.ClientConfig{
		UserID:         "disk-user",
		Scheme:         reed.SchemeBasic,
		DataServers:    []string{ln.Addr().String()},
		KeyStoreServer: keyAddr,
		KeyManager:     kmAddr,
		PrivateKey:     authority.IssueKey("disk-user", []string{"disk-user"}),
		Directory:      authority,
		Owner:          owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := c.Upload(ctx, "/on-disk", bytes.NewReader(data), reed.PolicyForUsers("disk-user")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Download(ctx, "/on-disk")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("disk-backed round trip: %v", err)
	}
}
