package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/proto"
	"repro/internal/store"
)

// TestBlobCrashModel drives the blob plane with random put, overwrite,
// delete, get, list, commit, checkpoint and crash sequences against a
// reference model (see runBlobSequence).
func TestBlobCrashModel(t *testing.T) {
	f := func(seed int64) bool {
		runBlobSequence(t, seed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// FuzzBlobCrash runs the same model over fuzzer-chosen seeds.
func FuzzBlobCrash(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runBlobSequence(t, seed)
	})
}

var errFold = errors.New("injected fold fault")

// foldFaults fails, once armed, every blob-plane Put and Delete after
// the first left of them: a crash in the middle of a checkpoint's fold.
type foldFaults struct {
	store.Backend
	mu    sync.Mutex
	armed bool
	left  int
}

func (f *foldFaults) fire(ns string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed || !allowedNamespaces[ns] {
		return false
	}
	if f.left == 0 {
		return true
	}
	f.left--
	return false
}

func (f *foldFaults) Put(ctx context.Context, ns, name string, data []byte) error {
	if f.fire(ns) {
		return errFold
	}
	return f.Backend.Put(ctx, ns, name, data)
}

func (f *foldFaults) Delete(ctx context.Context, ns, name string) error {
	if f.fire(ns) {
		return errFold
	}
	return f.Backend.Delete(ctx, ns, name)
}

func mustOpenBlobs(t *testing.T, backend store.Backend) *blobs {
	t.Helper()
	b, err := openBlobs(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// segmentLens returns the length of every blob journal segment.
func segmentLens(t *testing.T, backend store.Backend) map[string]int {
	t.Helper()
	names, err := backend.List(ctx, store.NSBlobWAL)
	if err != nil {
		t.Fatal(err)
	}
	lens := make(map[string]int, len(names))
	for _, name := range names {
		seg, err := backend.Get(ctx, store.NSBlobWAL, name)
		if err != nil {
			t.Fatal(err)
		}
		lens[name] = len(seg)
	}
	return lens
}

// checkBlobs fails unless get and list agree with want for every key,
// and the stub-file total with the stub files in want.
func checkBlobs(t *testing.T, b *blobs, keys []blobKey, want map[blobKey][]byte, what string) {
	t.Helper()
	var stubs uint64
	for key, data := range want {
		if key.ns == store.NSStubs {
			stubs += uint64(len(data))
		}
	}
	if got := b.stubFileBytes(); got != stubs {
		t.Fatalf("%s: stub files total %d bytes, want %d", what, got, stubs)
	}
	wantNames := make(map[string][]string)
	for _, key := range keys {
		got, err := b.get(ctx, key.ns, key.name)
		data, ok := want[key]
		switch {
		case ok && (err != nil || !bytes.Equal(got, data)):
			t.Fatalf("%s: get %s/%s = %d bytes, %v; want %d bytes", what, key.ns, key.name, len(got), err, len(data))
		case !ok && !errors.Is(err, store.ErrNotFound):
			t.Fatalf("%s: get %s/%s = %d bytes, %v; want not found", what, key.ns, key.name, len(got), err)
		}
		if ok {
			wantNames[key.ns] = append(wantNames[key.ns], key.name)
		}
	}
	for _, ns := range []string{store.NSRecipes, store.NSStubs, store.NSKeyStates} {
		got, err := b.list(ctx, ns)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(wantNames[ns])
		if !slices.Equal(got, wantNames[ns]) {
			t.Fatalf("%s: list %s = %v, want %v", what, ns, got, wantNames[ns])
		}
	}
}

// runBlobSequence is the blob plane's crash model. The model keeps the
// live state — every write, acknowledged or not — and the durable
// state: a copy taken whenever the journal commits, which is also what
// get and list must show, as no write is visible before its commit. A crash
// abandons the plane and opens a new one over the same backend, in one
// of three ways:
//
//   - at rest: the reopened plane must hold the durable state;
//   - mid-append: the uncommitted writes are appended and the segment
//     is then torn at a random byte of that append: cut there, or, past
//     the append's header, zeroed from there to its end. Only a tear at
//     its very end leaves the batch whole; any other must drop all of
//     it, so no unacknowledged write is ever half-applied;
//   - mid-checkpoint: the checkpoint's commit lands, then its fold to
//     the backend fails after a random number of blob writes. The
//     reopened plane must hold everything committed.
//
// Every acknowledged write — delete included — must hold after every
// crash. The stream stays far below the journal's checkpoint threshold
// (300 steps, at most 2 KB per put), so every checkpoint is one the
// model runs; a commit may start a new segment, and a tear then cuts
// that one.
func runBlobSequence(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	backend := &foldFaults{Backend: store.NewMemory()}
	b := mustOpenBlobs(t, backend)

	var keys []blobKey
	for _, ns := range []string{store.NSRecipes, store.NSStubs, store.NSKeyStates} {
		for i := 0; i < 4; i++ {
			keys = append(keys, blobKey{ns, fmt.Sprintf("file-%d", i)})
		}
	}
	live := make(map[blobKey][]byte)
	durable := maps.Clone(live)
	uncommitted := false
	commit := func() {
		if err := b.Commit(ctx); err != nil {
			t.Fatalf("seed %d: commit: %v", seed, err)
		}
		durable, uncommitted = maps.Clone(live), false
	}

	for step := 0; step < 300; step++ {
		what := fmt.Sprintf("seed %d step %d", seed, step)
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(12); {
		case op < 4: // put, or overwrite a name already held
			data := make([]byte, rng.Intn(2048))
			rng.Read(data)
			if err := b.put(key.ns, key.name, data); err != nil {
				t.Fatalf("%s: put: %v", what, err)
			}
			live[key], uncommitted = data, true
		case op < 6:
			if err := b.delete(key.ns, key.name); err != nil {
				t.Fatalf("%s: delete: %v", what, err)
			}
			delete(live, key)
			uncommitted = true
		case op < 8:
			commit()
		case op < 9:
			if err := b.Flush(ctx); err != nil {
				t.Fatalf("%s: flush: %v", what, err)
			}
			durable, uncommitted = maps.Clone(live), false
		case op < 11: // reads see exactly the committed writes
			checkBlobs(t, b, keys, durable, what)
		default:
			switch {
			case uncommitted && rng.Intn(2) == 0: // mid-append
				before, prev := segmentLens(t, backend), durable
				commit()
				after := segmentLens(t, backend)
				var last string
				for name := range after {
					last = max(last, name)
				}
				cut := before[last] + rng.Intn(after[last]-before[last]+1)
				var tail []byte
				if before[last] > 0 && cut >= before[last]+8 && rng.Intn(2) == 0 {
					// The append's header and length landed, its bytes
					// from cut on did not.
					tail = make([]byte, after[last]-cut)
				}
				if err := backend.WriteAt(ctx, store.NSBlobWAL, last, int64(cut), tail); err != nil {
					t.Fatal(err)
				}
				if cut < after[last] {
					durable = prev
				}
			case rng.Intn(2) == 0: // mid-checkpoint
				backend.armed, backend.left = true, rng.Intn(len(keys))
				err := b.Flush(ctx)
				backend.armed = false
				if err != nil && !errors.Is(err, errFold) {
					t.Fatalf("%s: flush: %v", what, err)
				}
				durable, uncommitted = maps.Clone(live), false
			}
			b = mustOpenBlobs(t, backend)
			live, uncommitted = maps.Clone(durable), false
			checkBlobs(t, b, keys, live, what+" after crash")
		}
	}

	// A final checkpoint leaves every blob in its namespace and the log
	// empty.
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if segs := segmentLens(t, backend); len(segs) != 0 {
		t.Fatalf("seed %d: segments after the final checkpoint: %v", seed, segs)
	}
	checkBlobs(t, mustOpenBlobs(t, backend.Backend), keys, live, fmt.Sprintf("seed %d at the end", seed))
}

// TestParentLayoutStoreReopens opens a disk store in the layout written
// before the blob plane was journaled — blobs published by rename in
// their own namespaces, the file index's log as sealed segments — and
// checks the server serves every blob and keeps working on top of it.
func TestParentLayoutStoreReopens(t *testing.T) {
	dir := t.TempDir()
	backend, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[blobKey][]byte{
		{store.NSRecipes, "file-a"}:   []byte("recipe a"),
		{store.NSStubs, "file-a"}:     []byte("stub file a"),
		{store.NSKeyStates, "file-a"}: []byte("key state a"),
		{store.NSRecipes, "file-b"}:   []byte("recipe b"),
	}
	for key, data := range want {
		if err := backend.Put(ctx, key.ns, key.name, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, fx := range []struct{ file, ns, name string }{
		{"snapshot_v1.bin", store.NSMeta, "file-index"},
		{"wal_register.bin", store.NSFileWAL, "f0000000000000001"},
	} {
		blob, err := os.ReadFile(filepath.Join("..", "fileindex", "testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(ctx, fx.ns, fx.name, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() *Server {
		t.Helper()
		backend, err := store.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(ctx, backend)
		if err != nil {
			t.Fatalf("opening the older layout: %v", err)
		}
		return srv
	}
	var keys []blobKey
	for key := range want {
		keys = append(keys, key)
	}
	srv := reopen()
	checkBlobs(t, srv.blobs, keys, want, "older layout")
	if n := srv.FileIndexLen(); n != 3 {
		t.Fatalf("file index holds %d entries, want 3", n)
	}

	// New writes journal on top of it and survive a crash, then a
	// checkpoint.
	mustDispatch(t, srv, proto.MsgDeleteBlobReq, proto.EncodeBlobReq(store.NSRecipes, "file-b", nil))
	mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSStubs, "file-a", []byte("stub file a, rekeyed")))
	delete(want, blobKey{store.NSRecipes, "file-b"})
	want[blobKey{store.NSStubs, "file-a"}] = []byte("stub file a, rekeyed")
	srv = reopen()
	checkBlobs(t, srv.blobs, keys, want, "after a crash")
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	checkBlobs(t, reopen().blobs, keys, want, "after a checkpoint")
}

// countingPuts counts the blob-plane Puts and Deletes that reach the
// backend.
type countingPuts struct {
	store.Backend
	writes atomic.Int64
}

func (c *countingPuts) Put(ctx context.Context, ns, name string, data []byte) error {
	if allowedNamespaces[ns] {
		c.writes.Add(1)
	}
	return c.Backend.Put(ctx, ns, name, data)
}

func (c *countingPuts) Delete(ctx context.Context, ns, name string) error {
	if allowedNamespaces[ns] {
		c.writes.Add(1)
	}
	return c.Backend.Delete(ctx, ns, name)
}

// TestCheckpointWritesEachBlobOnce: acknowledged writes reach the
// backend only at a checkpoint, and a name written many times since the
// last one reaches it once, with its last value.
func TestCheckpointWritesEachBlobOnce(t *testing.T) {
	backend := &countingPuts{Backend: store.NewMemory()}
	srv, err := New(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSStubs, "rekeyed", []byte{byte(i)}))
		mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSKeyStates, "gone", []byte{byte(i)}))
	}
	mustDispatch(t, srv, proto.MsgDeleteBlobReq, proto.EncodeBlobReq(store.NSKeyStates, "gone", nil))
	if n := backend.writes.Load(); n != 0 {
		t.Fatalf("%d blob writes reached the backend before a checkpoint", n)
	}
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := backend.writes.Load(); n != 2 {
		t.Fatalf("the checkpoint wrote %d blobs, want 2", n)
	}
	if got, err := backend.Get(ctx, store.NSStubs, "rekeyed"); err != nil || !bytes.Equal(got, []byte{4}) {
		t.Fatalf("stored stub file = %v, %v; want the last value", got, err)
	}
	if ok, _ := backend.Has(ctx, store.NSKeyStates, "gone"); ok {
		t.Fatal("a deleted key state reached the backend")
	}
}

// slowPuts stands in for a disk: a blob-plane Put takes a while, which
// keeps a checkpoint's fold in progress long enough to race with reads.
type slowPuts struct{ store.Backend }

func (s slowPuts) Put(ctx context.Context, ns, name string, data []byte) error {
	if allowedNamespaces[ns] {
		time.Sleep(100 * time.Microsecond)
	}
	return s.Backend.Put(ctx, ns, name, data)
}

// TestBlobReadsDuringCheckpoints runs writers and readers of the blob
// plane against checkpoints that keep moving blobs to the backend: every
// read sees the writer's last acknowledged value, whichever side holds it.
func TestBlobReadsDuringCheckpoints(t *testing.T) {
	srv, err := New(ctx, slowPuts{store.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	flushed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flushed <- nil
				return
			default:
			}
			if err := srv.Flush(ctx); err != nil {
				flushed <- err
				return
			}
		}
	}()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			name := fmt.Sprintf("file-%d", w)
			for i := 0; i < 200; i++ {
				want := []byte(fmt.Sprintf("%s v%d", name, i))
				if respType, _ := srv.dispatch(ctx, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSStubs, name, want)); respType != proto.MsgPutBlobResp {
					done <- fmt.Errorf("put %s: %v", name, respType)
					return
				}
				got, err := srv.blobs.get(ctx, store.NSStubs, name)
				if err != nil || !bytes.Equal(got, want) {
					done <- fmt.Errorf("get %s = %q, %v; want %q", name, got, err, want)
					return
				}
				names, err := srv.blobs.list(ctx, store.NSStubs)
				if err != nil || !slices.Contains(names, name) {
					done <- fmt.Errorf("list = %v, %v; want %s in it", names, err, name)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}

// TestBadBlobNamesRefused: a put or delete under a name the backend
// cannot store — empty, or too long once escaped for a file name — is
// refused before it is journaled. Were it acknowledged, every later
// checkpoint would fail on it, and so would Shutdown, after restarts
// too.
func TestBadBlobNamesRefused(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		t.Helper()
		backend, err := store.NewDisk(dir, store.WithNoSync())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(ctx, backend)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	for _, name := range []string{"", strings.Repeat("/", 100)} {
		for _, typ := range []proto.MsgType{proto.MsgPutBlobReq, proto.MsgDeleteBlobReq} {
			if respType, _ := srv.dispatch(ctx, typ, proto.EncodeBlobReq(store.NSStubs, name, []byte("x"))); respType != proto.MsgError {
				t.Fatalf("%v of a %d-byte name answered %v", typ, len(name), respType)
			}
		}
	}
	mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSStubs, "good", []byte("x")))
	if err := srv.Flush(ctx); err != nil {
		t.Fatalf("checkpoint after refused names: %v", err)
	}
	mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSStubs, "after", []byte("y")))
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown after refused names: %v", err)
	}
	checkBlobs(t, open().blobs, []blobKey{{store.NSStubs, "good"}, {store.NSStubs, "after"}},
		map[blobKey][]byte{{store.NSStubs, "good"}: []byte("x"), {store.NSStubs, "after"}: []byte("y")}, "reopened")
}

// failingAppends fails every append to the blob journal while fail is
// set.
type failingAppends struct {
	store.Backend
	fail atomic.Bool
}

func (f *failingAppends) WriteAt(ctx context.Context, ns, name string, off int64, data []byte) error {
	if ns == store.NSBlobWAL && f.fail.Load() {
		return errors.New("injected append fault")
	}
	return f.Backend.WriteAt(ctx, ns, name, off, data)
}

// TestFailedAppendStaysInvisible: a write whose append fails is never
// shown to a reader, who could otherwise act on a blob that a crash can
// still erase. It becomes visible with the next append that lands, as
// part of that batch.
func TestFailedAppendStaysInvisible(t *testing.T) {
	backend := &failingAppends{Backend: store.NewMemory()}
	srv, err := New(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	old := blobKey{store.NSKeyStates, "old"}
	mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(old.ns, old.name, []byte("v1")))
	backend.fail.Store(true)
	for _, req := range []struct {
		typ  proto.MsgType
		key  blobKey
		data []byte
	}{
		{proto.MsgPutBlobReq, blobKey{store.NSKeyStates, "new"}, []byte("unacknowledged")},
		{proto.MsgPutBlobReq, old, []byte("v2")},
		{proto.MsgDeleteBlobReq, old, nil},
	} {
		if respType, _ := srv.dispatch(ctx, req.typ, proto.EncodeBlobReq(req.key.ns, req.key.name, req.data)); respType != proto.MsgError {
			t.Fatalf("%v answered %v through a failing append", req.typ, respType)
		}
	}
	keys := []blobKey{old, {store.NSKeyStates, "new"}}
	checkBlobs(t, srv.blobs, keys, map[blobKey][]byte{old: []byte("v1")}, "after failed appends")

	backend.fail.Store(false)
	mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSKeyStates, "new", []byte("acknowledged")))
	want := map[blobKey][]byte{{store.NSKeyStates, "new"}: []byte("acknowledged")}
	checkBlobs(t, srv.blobs, keys, want, "after the next append")
	checkBlobs(t, mustOpenBlobs(t, backend), keys, want, "reopened")
}

// gatedPuts holds every blob-plane Put until release is closed, and
// reports on started when the first one arrives.
type gatedPuts struct {
	store.Backend
	started chan struct{}
	once    sync.Once
	release chan struct{}
}

func (g *gatedPuts) Put(ctx context.Context, ns, name string, data []byte) error {
	if allowedNamespaces[ns] {
		g.once.Do(func() { close(g.started) })
		<-g.release
	}
	return g.Backend.Put(ctx, ns, name, data)
}

// TestFoldLetsWritesThrough: the commit that takes the log past the
// checkpoint threshold replies without waiting for the fold, and while
// the fold writes the journaled blobs to the backend, puts and deletes
// are still acknowledged and read back. A blob overwritten during the
// fold keeps its new value in the journal; a crash after the checkpoint
// replays it from the log's new segment.
func TestFoldLetsWritesThrough(t *testing.T) {
	backend := &gatedPuts{Backend: store.NewMemory(), started: make(chan struct{}), release: make(chan struct{})}
	srv, err := New(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := blobKey{store.NSStubs, "a"}, blobKey{store.NSStubs, "b"}, blobKey{store.NSStubs, "c"}
	half := bytes.Repeat([]byte{1}, int(blobJournalSpec.CheckpointEvery/2))
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		for _, key := range []blobKey{a, b} {
			if respType, resp := srv.dispatch(ctx, proto.MsgPutBlobReq, proto.EncodeBlobReq(key.ns, key.name, half)); respType != proto.MsgPutBlobResp {
				t.Errorf("put %s answered %v: %s", key.name, respType, resp)
			}
		}
	}()
	<-backend.started // the second commit started a checkpoint
	select {
	case <-filled:
	case <-time.After(10 * time.Second):
		t.Fatal("the commit that started the checkpoint waited for its fold")
	}

	acked := make(chan struct{})
	go func() {
		defer close(acked)
		for _, req := range []struct {
			typ  proto.MsgType
			key  blobKey
			data []byte
		}{
			{proto.MsgPutBlobReq, a, []byte("during")},
			{proto.MsgDeleteBlobReq, b, nil},
			{proto.MsgPutBlobReq, c, []byte("during")},
		} {
			if respType, resp := srv.dispatch(ctx, req.typ, proto.EncodeBlobReq(req.key.ns, req.key.name, req.data)); respType != req.typ.Response() {
				t.Errorf("%v answered %v: %s", req.typ, respType, resp)
			}
		}
	}()
	select {
	case <-acked:
	case <-time.After(10 * time.Second):
		t.Fatal("writes waited for the checkpoint's fold")
	}
	want := map[blobKey][]byte{a: []byte("during"), c: []byte("during")}
	keys := []blobKey{a, b, c}
	checkBlobs(t, srv.blobs, keys, want, "during the fold")
	close(backend.release)
	srv.blobs.mu.Lock()
	for srv.blobs.folding {
		srv.blobs.idle.Wait()
	}
	srv.blobs.mu.Unlock()
	checkBlobs(t, srv.blobs, keys, want, "after the checkpoint")
	checkBlobs(t, mustOpenBlobs(t, backend), keys, want, "after a crash")
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	checkBlobs(t, mustOpenBlobs(t, backend), keys, want, "after shutdown")
	if segs := segmentLens(t, backend); len(segs) != 0 {
		t.Fatalf("segments after shutdown: %v", segs)
	}
}

// TestStubSizesFromVersion1Snapshot opens a store whose blob-journal
// snapshot is version 1, which has no stub-file sizes: the plane must
// count the stub files in the backend, and those its log still holds,
// once at open.
func TestStubSizesFromVersion1Snapshot(t *testing.T) {
	backend := store.NewMemory()
	b := mustOpenBlobs(t, backend)
	for name, size := range map[string]int{"a": 100, "b": 30} {
		if err := b.put(store.NSStubs, name, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.put(store.NSRecipes, "a", make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Rewrite the snapshot as version 1 wrote it: version, replay
	// position, an empty body, CRC-32.
	snap, err := backend.Get(ctx, store.NSMeta, blobJournalSpec.Blob)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{1}, snap[1:9]...)
	v1 = binary.BigEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	if err := backend.Put(ctx, store.NSMeta, blobJournalSpec.Blob, v1); err != nil {
		t.Fatal(err)
	}
	b = mustOpenBlobs(t, backend)
	if got := b.stubFileBytes(); got != 130 {
		t.Fatalf("after a version 1 snapshot: stub files total %d bytes, want 130", got)
	}
	// One more write stays in the log only.
	if err := b.put(store.NSStubs, "b", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := backend.Put(ctx, store.NSMeta, blobJournalSpec.Blob, v1); err != nil {
		t.Fatal(err)
	}
	if got := mustOpenBlobs(t, backend).stubFileBytes(); got != 105 {
		t.Fatalf("after a version 1 snapshot and a logged overwrite: stub files total %d bytes, want 105", got)
	}
}
