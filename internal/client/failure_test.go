package client

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/testenv"
)

// Failure-injection tests: REED clients must fail cleanly (error, not
// hang or corrupt) when infrastructure disappears mid-session. The
// extra killable servers come from testenv.StartServer, whose cleanup
// waits for the serve loop to exit — these tests leak no goroutines
// even when they fail early.

func TestUploadFailsCleanlyWhenDataServerDies(t *testing.T) {
	cluster := startCluster(t)
	srv, addr := testenv.StartServer(t)

	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         "alice",
		Scheme:         core.SchemeBasic,
		DataServers:    []string{addr}, // only the stoppable server
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey("alice", []string{"alice"}),
		Directory:      cluster.Authority,
		Owner:          owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := randomFile(t, 64<<10, 61)
	pol := policy.OrOfUsers([]string{"alice"})
	if _, err := c.Upload(ctx, "/ok", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}

	// Kill the data plane, then try again: must error within a bounded
	// time, not hang.
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Upload(ctx, "/after-crash", bytes.NewReader(data), pol)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("upload succeeded against a dead server")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("upload hung against a dead server")
	}
}

func TestDownloadFailsCleanlyWhenKeyStoreDies(t *testing.T) {
	cluster := startCluster(t)
	keySrv, keyAddr := testenv.StartServer(t)

	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         "alice",
		Scheme:         core.SchemeBasic,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: keyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey("alice", []string{"alice"}),
		Directory:      cluster.Authority,
		Owner:          owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := randomFile(t, 32<<10, 62)
	pol := policy.OrOfUsers([]string{"alice"})
	if _, err := c.Upload(ctx, "/k", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}
	if err := keySrv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Download(ctx, "/k"); err == nil {
		t.Fatal("download succeeded without the key store")
	}
}

func TestUploadFailsCleanlyWhenKeyManagerDies(t *testing.T) {
	// A dedicated cluster whose KM we can kill without affecting other
	// tests' shared fixtures.
	cluster, err := testenv.Start(testenv.Options{DataServers: 1, KMKey: sharedKMKey(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Intentionally no cluster cleanup order issues: Close is
	// idempotent for the parts we kill early.
	t.Cleanup(cluster.Close)

	c := newUser(t, cluster, "alice", core.SchemeBasic)
	data := randomFile(t, 32<<10, 63)
	pol := policy.OrOfUsers([]string{"alice"})
	if _, err := c.Upload(ctx, "/pre", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}

	cluster.Close() // kills the key manager (and everything else)

	other := randomFile(t, 32<<10, 64)
	if _, err := c.Upload(ctx, "/post", bytes.NewReader(other), pol); err == nil {
		t.Fatal("upload succeeded without a key manager")
	}
}

func TestDownloadAfterDataLoss(t *testing.T) {
	// Deleting a container from the backend must surface as an error on
	// download, not a silent wrong result.
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 128<<10, 65)
	if _, err := c.Upload(ctx, "/lost", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	for _, srv := range cluster.DataServers {
		if err := srv.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		backend := srv.Backend()
		names, err := backend.List(ctx, store.NSContainers)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := backend.Delete(ctx, store.NSContainers, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Download(ctx, "/lost"); err == nil {
		t.Fatal("download succeeded after container loss")
	}
}

// slowWriteConn delays every write by delay, so each request on the
// connection takes at least that long.
type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (c slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestCallTimeoutBoundsEachKeyManagerCall: CallTimeout bounds every
// key-manager RPC, not a segment's whole key generation. Each round trip
// to the key manager takes 0.6 × CallTimeout, and the one segment
// uploaded needs three batches, so a deadline over all of them expires
// on a healthy key manager.
func TestCallTimeoutBoundsEachKeyManagerCall(t *testing.T) {
	cluster := startCluster(t)
	const timeout = 500 * time.Millisecond
	dial := func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil || addr != cluster.KMAddr {
			return conn, err
		}
		return slowWriteConn{Conn: conn, delay: timeout * 6 / 10}, nil
	}
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         "alice",
		Scheme:         core.SchemeBasic,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey("alice", []string{"alice"}),
		Directory:      cluster.Authority,
		Owner:          owner,
		Dialer:         dial,
		FixedChunkSize: 4 << 10,
		KeyGenBatch:    4,
		CallTimeout:    timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	data := randomFile(t, 12*4<<10, 71) // 12 chunks: three batches of four
	res, err := c.Upload(ctx, "/f", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"}))
	if err != nil {
		t.Fatalf("upload with %v per key-manager round trip and a %v CallTimeout: %v", timeout*6/10, timeout, err)
	}
	if res.Segments != 1 || res.Chunks != 12 {
		t.Fatalf("upload split into %d segments of %d chunks, want 1 segment of 12", res.Segments, res.Chunks)
	}
}
