package client

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/testenv"
)

// newUserSegmented builds a client with a small pipeline segment so
// multi-segment behavior shows up on small test files.
func newUserSegmented(t testing.TB, cluster *testenv.Cluster, user string, segBytes, chunkSize int) *Client {
	t.Helper()
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         user,
		Scheme:         core.SchemeEnhanced,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		FixedChunkSize: chunkSize,
		SegmentBytes:   segBytes,
		PrivateKey:     cluster.Authority.IssueKey(user, []string{user}),
		Directory:      cluster.Authority,
		Owner:          owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestStreamingBoundedMemory uploads a file 8× larger than the segment
// budget and asserts the pipeline's peak buffered bytes stay under
// twice the budget (plus per-chunk ciphertext slack), i.e. memory is
// O(segment), not O(file).
func TestStreamingBoundedMemory(t *testing.T) {
	cluster := startCluster(t)
	const (
		segBytes  = 256 << 10
		chunkSize = 8 << 10
		fileSize  = 8 * segBytes
	)
	c := newUserSegmented(t, cluster, "stream-mem", segBytes, chunkSize)
	data := randomFile(t, fileSize, 42)
	pol := policy.OrOfUsers([]string{"stream-mem"})

	res, err := c.Upload(ctx, "/stream/mem", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogicalBytes != int64(fileSize) {
		t.Fatalf("LogicalBytes = %d, want %d", res.LogicalBytes, fileSize)
	}
	// Pipeline units are a quarter of the segment budget.
	if want := fileSize / (segBytes / 4); res.Segments != want {
		t.Fatalf("Segments = %d, want %d", res.Segments, want)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
	// The gate admits up to 2×segment; encryption transiently overshoots
	// by at most the workers' in-flight ciphertext (≈ chunk + stub each).
	slack := int64(DefaultWorkers * 2 * chunkSize)
	if limit := 2*int64(segBytes) + slack; res.PeakBuffered > limit {
		t.Fatalf("PeakBuffered = %d, want ≤ %d (2×segment + slack) for a %d-byte file",
			res.PeakBuffered, limit, fileSize)
	}
	if res.PeakBuffered <= 0 {
		t.Fatal("PeakBuffered not recorded")
	}

	// Round-trip through the streaming download path.
	var out bytes.Buffer
	dres, err := c.DownloadTo(ctx, "/stream/mem", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("DownloadTo output differs from upload")
	}
	if dres.LogicalBytes != int64(fileSize) || dres.Chunks != res.Chunks {
		t.Fatalf("DownloadResult = %+v, want %d bytes / %d chunks", dres, fileSize, res.Chunks)
	}
}

// cancelAfterReader cancels a context once n bytes have been read
// through it, simulating a caller aborting mid-stream.
type cancelAfterReader struct {
	r      io.Reader
	n      int64
	read   int64
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += int64(n)
	if c.read >= c.n {
		c.once.Do(c.cancel)
	}
	return n, err
}

// waitGoroutines polls until the goroutine count settles at or below
// the baseline (plus tolerance), failing the test otherwise.
// goroutineBaseline counts goroutines once every server has answered an
// RPC on c's connections. A server starts a connection's handler and
// writer goroutines when its accept loop gets to the connection, which
// can be after the client's dial returned; counted before that, they
// look like a leak later.
func goroutineBaseline(t *testing.T, c *Client) int {
	t.Helper()
	if _, err := c.ClusterMetricsBySource(ctx); err != nil {
		t.Fatal(err)
	}
	return runtime.NumGoroutine()
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertNoFileMetadata asserts no recipe or stub blob exists on any
// data server — the invariant a cancelled upload must preserve.
func assertNoFileMetadata(t *testing.T, cluster *testenv.Cluster) {
	t.Helper()
	for i, srv := range cluster.DataServers {
		for _, ns := range []string{store.NSRecipes, store.NSStubs} {
			names, err := srv.Backend().List(ctx, ns)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 0 {
				t.Fatalf("server %d: cancelled upload left %s blobs %v", i, ns, names)
			}
		}
	}
}

func TestUploadCancellation(t *testing.T) {
	cluster := startCluster(t)
	const (
		segBytes  = 64 << 10
		chunkSize = 4 << 10
		fileSize  = 16 * segBytes
	)
	c := newUserSegmented(t, cluster, "cancel-up", segBytes, chunkSize)
	data := randomFile(t, fileSize, 7)
	pol := policy.OrOfUsers([]string{"cancel-up"})

	baseline := goroutineBaseline(t, c)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterReader{r: bytes.NewReader(data), n: fileSize / 4, cancel: cancel}

	if _, err := c.Upload(cctx, "/cancel/upload", src, pol); err == nil {
		t.Fatal("cancelled upload succeeded")
	}
	// Pipeline goroutines (stages, gate watcher, per-call conn guards)
	// must all unwind; allow a little tolerance for runtime/test-harness
	// background churn.
	waitGoroutines(t, baseline+2)
	assertNoFileMetadata(t, cluster)
}

// blockingReader yields n bytes, then blocks in Read until released —
// a stalled pipe or hung network filesystem.
type blockingReader struct {
	r       io.Reader
	n       int64
	read    int64
	stalled chan struct{}
	unblock chan struct{}
	once    sync.Once
}

func (b *blockingReader) Read(p []byte) (int, error) {
	if b.read >= b.n {
		b.once.Do(func() { close(b.stalled) })
		<-b.unblock
		return 0, io.EOF
	}
	if int64(len(p)) > b.n-b.read {
		p = p[:b.n-b.read]
	}
	n, err := b.r.Read(p)
	b.read += int64(n)
	return n, err
}

// TestUploadCancelWhileReaderBlocked verifies cancellation returns
// promptly even while the input reader is stuck in an uninterruptible
// Read (only the detached reading goroutine waits for the Read).
func TestUploadCancelWhileReaderBlocked(t *testing.T) {
	cluster := startCluster(t)
	c := newUserSegmented(t, cluster, "cancel-stall", 64<<10, 4<<10)
	pol := policy.OrOfUsers([]string{"cancel-stall"})
	src := &blockingReader{
		r:       bytes.NewReader(randomFile(t, 1<<20, 11)),
		n:       512 << 10,
		stalled: make(chan struct{}),
		unblock: make(chan struct{}),
	}
	baseline := goroutineBaseline(t, c)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	errc := make(chan error, 1)
	go func() {
		_, err := c.Upload(cctx, "/cancel/stalled", src, pol)
		errc <- err
	}()
	<-src.stalled
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled upload succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Upload did not return while reader was blocked")
	}
	close(src.unblock) // release the stranded read, then check for leaks
	waitGoroutines(t, baseline+2)
	assertNoFileMetadata(t, cluster)
}

// cancelAfterWriter cancels a context on the first write, simulating a
// consumer aborting mid-download.
type cancelAfterWriter struct {
	cancel context.CancelFunc
	once   sync.Once
	n      int
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	w.once.Do(w.cancel)
	return len(p), nil
}

func TestDownloadCancellation(t *testing.T) {
	cluster := startCluster(t)
	const (
		segBytes  = 64 << 10
		chunkSize = 4 << 10
		fileSize  = 16 * segBytes
	)
	up := newUserSegmented(t, cluster, "cancel-down", segBytes, chunkSize)
	data := randomFile(t, fileSize, 9)
	pol := policy.OrOfUsers([]string{"cancel-down"})
	if _, err := up.Upload(ctx, "/cancel/download", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}

	// A separate client downloads: cancellation retires its in-flight
	// connections, so the uploader's stay usable.
	down := newUserSegmented(t, cluster, "cancel-down", segBytes, chunkSize)
	baseline := goroutineBaseline(t, down)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{cancel: cancel}

	if _, err := down.DownloadTo(cctx, "/cancel/download", w); err == nil {
		t.Fatal("cancelled download succeeded")
	}
	if w.n >= fileSize {
		t.Fatalf("cancelled download still wrote the whole file (%d bytes)", w.n)
	}
	waitGoroutines(t, baseline+2)

	// The file itself is untouched: a fresh client still reads it back.
	got, err := up.Download(ctx, "/cancel/download")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file corrupted after cancelled download")
	}
}

// TestUploadCancelledBeforeStart verifies an already-cancelled context
// fails fast without touching the servers.
func TestUploadCancelledBeforeStart(t *testing.T) {
	cluster := startCluster(t)
	c := newUserSegmented(t, cluster, "cancel-pre", 64<<10, 4<<10)
	pol := policy.OrOfUsers([]string{"cancel-pre"})
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Upload(cctx, "/cancel/pre", bytes.NewReader(randomFile(t, 32<<10, 3)), pol); err == nil {
		t.Fatal("upload with pre-cancelled context succeeded")
	}
	assertNoFileMetadata(t, cluster)
}
