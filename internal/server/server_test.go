package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/store"
)

// ctx is the default context test call sites run under.
var ctx = context.Background()

// startServer runs a storage server over an in-memory backend.
func startServer(t testing.TB) (*Server, string) {
	t.Helper()
	srv, err := New(ctx, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	return srv, serveTest(t, srv)
}

// serveTest serves srv on a loopback port until the test ends.
func serveTest(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Shutdown() })
	return ln.Addr().String()
}

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := DialStore(ctx, addr, nil, retry.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func uploads(n int, tag string) []proto.ChunkUpload {
	out := make([]proto.ChunkUpload, n)
	for i := range out {
		data := []byte(fmt.Sprintf("%s-chunk-%d-%s", tag, i, strings.Repeat("x", 100)))
		out[i] = proto.ChunkUpload{FP: fingerprint.New(data), Data: data}
	}
	return out
}

func TestPutGetChunks(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)

	chunks := uploads(5, "a")
	dups, err := c.PutChunks(ctx, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dups {
		if d {
			t.Fatalf("chunk %d reported duplicate on first upload", i)
		}
	}

	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i := range chunks {
		fps[i] = chunks[i].FP
	}
	datas, err := c.GetChunks(ctx, fps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if !bytes.Equal(datas[i], chunks[i].Data) {
			t.Fatalf("chunk %d corrupted", i)
		}
	}
}

func TestServerSideDedup(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)

	chunks := uploads(5, "dup")
	if _, err := c.PutChunks(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	dups, err := c.PutChunks(ctx, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dups {
		if !d {
			t.Fatalf("chunk %d not deduplicated on second upload", i)
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalPuts != 10 || stats.DedupedPuts != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PhysicalBytes*2 != stats.LogicalBytes {
		t.Fatalf("expected 50%% savings, stats = %+v", stats)
	}
}

func TestCrossClientDedup(t *testing.T) {
	// Deduplication must work across clients ("uploaded by the same or
	// a different client", Section III-A).
	_, addr := startServer(t)
	c1 := dialTest(t, addr)
	c2 := dialTest(t, addr)

	chunks := uploads(3, "shared")
	if _, err := c1.PutChunks(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	dups, err := c2.PutChunks(ctx, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dups {
		if !d {
			t.Fatalf("chunk %d from second client not deduplicated", i)
		}
	}
}

func TestGetMissingChunk(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)
	if _, err := c.GetChunks(ctx, []fingerprint.Fingerprint{fingerprint.New([]byte("absent"))}); err == nil {
		t.Fatal("missing chunk expected error")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)

	for _, ns := range []string{store.NSRecipes, store.NSStubs, store.NSKeyStates} {
		if err := c.PutBlob(ctx, ns, "file-1", []byte(ns+" payload")); err != nil {
			t.Fatalf("PutBlob(%s): %v", ns, err)
		}
		got, err := c.GetBlob(ctx, ns, "file-1")
		if err != nil {
			t.Fatalf("GetBlob(%s): %v", ns, err)
		}
		if !bytes.Equal(got, []byte(ns+" payload")) {
			t.Fatalf("blob in %s corrupted", ns)
		}
	}
}

func TestBlobNamespaceRestricted(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)
	if err := c.PutBlob(ctx, store.NSContainers, "evil", []byte("x")); err == nil {
		t.Fatal("write to containers namespace should be rejected")
	}
	if err := c.PutBlob(ctx, store.NSMeta, "evil", []byte("x")); err == nil {
		t.Fatal("write to meta namespace should be rejected")
	}
	if _, err := c.GetBlob(ctx, store.NSMeta, "dedup-index"); err == nil {
		t.Fatal("read of meta namespace should be rejected")
	}
}

func TestGetMissingBlob(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)
	if _, err := c.GetBlob(ctx, store.NSRecipes, "absent"); err == nil {
		t.Fatal("missing blob expected error")
	}
}

func TestStubByteAccounting(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)

	if err := c.PutBlob(ctx, store.NSStubs, "f1", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBlob(ctx, store.NSStubs, "f2", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StubBytes != 150 {
		t.Fatalf("StubBytes = %d, want 150", stats.StubBytes)
	}
	// Re-uploading a stub file (active revocation) must not double
	// count.
	if err := c.PutBlob(ctx, store.NSStubs, "f1", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	stats, _ = c.Stats(ctx)
	if stats.StubBytes != 150 {
		t.Fatalf("StubBytes after re-upload = %d, want 150", stats.StubBytes)
	}
}

func TestEmptyBatches(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)
	if dups, err := c.PutChunks(ctx, nil); err != nil || dups != nil {
		t.Fatalf("PutChunks(nil) = %v, %v", dups, err)
	}
	if datas, err := c.GetChunks(ctx, nil); err != nil || datas != nil {
		t.Fatalf("GetChunks(nil) = %v, %v", datas, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialStore(ctx, addr, nil, retry.Policy{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			chunks := uploads(20, fmt.Sprintf("g%d", g%4))
			if _, err := c.PutChunks(ctx, chunks); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	backend := store.NewMemory()
	srv1, err := New(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv1.Serve(ln1) }()
	c1, err := DialStore(ctx, ln1.Addr().String(), nil, retry.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := uploads(3, "persist")
	if _, err := c1.PutChunks(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same backend.
	srv2, err := New(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	defer srv2.Shutdown()
	c2 := dialTest(t, ln2.Addr().String())

	fps := []fingerprint.Fingerprint{chunks[0].FP, chunks[1].FP, chunks[2].FP}
	datas, err := c2.GetChunks(ctx, fps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if !bytes.Equal(datas[i], chunks[i].Data) {
			t.Fatalf("chunk %d lost across restart", i)
		}
	}
}

// TestPoisoningRejected verifies the server refuses a chunk whose data
// does not match its claimed fingerprint — the classic dedup poisoning
// attack, where a malicious client plants garbage under a fingerprint
// other users' recipes will later reference.
func TestPoisoningRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)

	victim := []byte("the chunk an honest user will upload later")
	poisoned := proto.ChunkUpload{
		FP:   fingerprint.New(victim),
		Data: []byte("attacker-controlled garbage of any length"),
	}
	if _, err := c.PutChunks(ctx, []proto.ChunkUpload{poisoned}); err == nil {
		t.Fatal("server accepted a poisoned chunk")
	}

	// The honest upload must still go through and round-trip.
	honest := proto.ChunkUpload{FP: fingerprint.New(victim), Data: victim}
	if _, err := c.PutChunks(ctx, []proto.ChunkUpload{honest}); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetChunks(ctx, []fingerprint.Fingerprint{honest.FP})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], victim) {
		t.Fatal("honest chunk corrupted")
	}
}

func TestListBlobs(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr)

	for _, name := range []string{"/b", "/a"} {
		if err := c.PutBlob(ctx, store.NSRecipes, name, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := c.ListBlobs(ctx, store.NSRecipes)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "/a" || names[1] != "/b" {
		t.Fatalf("ListBlobs = %v, want sorted [/a /b]", names)
	}
	// Restricted namespaces stay restricted.
	if _, err := c.ListBlobs(ctx, store.NSContainers); err == nil {
		t.Fatal("listing containers namespace should be rejected")
	}
}
