package main

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	reed "repro"
)

// startDeployment boots servers for the CLI to talk to.
func startDeployment(t *testing.T) (dataAddrs string, keyAddr, kmAddr string) {
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

	return addrs[0] + "," + addrs[1], addrs[2], kmLn.Addr().String()
}

// TestCLIWorkflow drives the complete CLI surface: provisioning, upload,
// download, rekey, stats.
func TestCLIWorkflow(t *testing.T) {
	servers, keyAddr, kmAddr := startDeployment(t)
	state := t.TempDir()

	// Provisioning.
	if err := run(context.Background(), []string{"init-authority", "-state", state}); err != nil {
		t.Fatalf("init-authority: %v", err)
	}
	if err := run(context.Background(), []string{"init-authority", "-state", state}); err == nil {
		t.Fatal("second init-authority should refuse to overwrite")
	}
	for _, user := range []string{"alice", "bob"} {
		if err := run(context.Background(), []string{"issue", "-state", state, "-user", user}); err != nil {
			t.Fatalf("issue %s: %v", user, err)
		}
	}
	if err := run(context.Background(), []string{"publish", "-state", state, "-users", "alice,bob"}); err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Upload.
	src := filepath.Join(state, "input.bin")
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(data)
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	conn := []string{
		"-state", state, "-servers", servers, "-keystore", keyAddr, "-km", kmAddr,
	}
	if err := run(context.Background(), append([]string{"upload", "-user", "alice",
		"-file", src, "-as", "/cli/file.bin", "-policy", "or(alice, bob)"}, conn...)); err != nil {
		t.Fatalf("upload: %v", err)
	}

	// Download as each authorized user.
	for _, user := range []string{"alice", "bob"} {
		out := filepath.Join(state, "out-"+user+".bin")
		if err := run(context.Background(), append([]string{"download", "-user", user,
			"-path", "/cli/file.bin", "-out", out}, conn...)); err != nil {
			t.Fatalf("download as %s: %v", user, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("download as %s: data mismatch", user)
		}
	}

	// Rekey: revoke bob (active).
	if err := run(context.Background(), append([]string{"rekey", "-user", "alice",
		"-path", "/cli/file.bin", "-policy", "alice", "-active"}, conn...)); err != nil {
		t.Fatalf("rekey: %v", err)
	}
	out := filepath.Join(state, "out-after.bin")
	if err := run(context.Background(), append([]string{"download", "-user", "alice",
		"-path", "/cli/file.bin", "-out", out}, conn...)); err != nil {
		t.Fatalf("download after rekey: %v", err)
	}
	if err := run(context.Background(), append([]string{"download", "-user", "bob",
		"-path", "/cli/file.bin", "-out", out}, conn...)); err == nil {
		t.Fatal("revoked user downloaded via CLI")
	}

	// Listing.
	if err := run(context.Background(), append([]string{"ls", "-user", "alice"}, conn...)); err != nil {
		t.Fatalf("ls: %v", err)
	}

	// Stats.
	if err := run(context.Background(), append([]string{"stats", "-user", "alice"}, conn...)); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run(context.Background(), []string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run(context.Background(), []string{"issue", "-state", t.TempDir(), "-user", "x"}); err == nil {
		t.Fatal("issue without authority accepted")
	}
	if err := run(context.Background(), []string{"upload"}); err == nil {
		t.Fatal("upload without flags accepted")
	}
	if err := run(context.Background(), []string{"init-authority"}); err == nil {
		t.Fatal("init-authority without -state accepted")
	}
}

// TestCLIOwnerPersistsAcrossRekeys verifies that the owner's key chain
// version survives CLI process "restarts" (state reloaded from disk).
func TestCLIOwnerPersistsAcrossRekeys(t *testing.T) {
	servers, keyAddr, kmAddr := startDeployment(t)
	state := t.TempDir()
	if err := run(context.Background(), []string{"init-authority", "-state", state}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"issue", "-state", state, "-user", "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"publish", "-state", state, "-users", "alice"}); err != nil {
		t.Fatal(err)
	}

	src := filepath.Join(state, "in.bin")
	if err := os.WriteFile(src, bytes.Repeat([]byte("z"), 32<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	conn := []string{"-state", state, "-servers", servers, "-keystore", keyAddr, "-km", kmAddr}
	if err := run(context.Background(), append([]string{"upload", "-user", "alice",
		"-file", src, "-as", "/p", "-policy", "alice"}, conn...)); err != nil {
		t.Fatal(err)
	}
	// Each rekey is a separate "process"; winding must persist so the
	// chain version strictly grows and downloads keep working.
	for i := 0; i < 3; i++ {
		if err := run(context.Background(), append([]string{"rekey", "-user", "alice",
			"-path", "/p", "-policy", "alice"}, conn...)); err != nil {
			t.Fatalf("rekey %d: %v", i, err)
		}
	}
	out := filepath.Join(state, "out.bin")
	if err := run(context.Background(), append([]string{"download", "-user", "alice",
		"-path", "/p", "-out", out}, conn...)); err != nil {
		t.Fatalf("download after rekeys: %v", err)
	}
}
