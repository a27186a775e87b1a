package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/wal"
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

// FuzzBlobCrash runs the same model over fuzzer-chosen seeds. Seed 488
// cuts the power while a fresh segment's first append has landed only
// part of its length field, with zeros after it.
func FuzzBlobCrash(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42, 488} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runBlobSequence(t, seed)
	})
}

// blobNamespaces are the namespaces a checkpoint folds journaled blob
// writes into.
var blobNamespaces = []string{store.NSRecipes, store.NSStubs, store.NSKeyStates}

func mustOpenBlobs(t *testing.T, backend store.Backend) *blobs {
	t.Helper()
	b, err := openBlobs(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	for _, ns := range blobNamespaces {
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
// cuts the power to the plane's backend and opens a new plane on what
// the cut left, in one of three ways:
//
//   - at rest: the reopened plane must hold the durable state;
//   - mid-append: the cut comes while the uncommitted writes are being
//     appended, and the append lands as a power cut leaves a write in
//     flight (see storetest.Faulty.Cut): torn at a random byte, the rest
//     missing or zeroed. Only an append that landed whole leaves the
//     batch whole; any other must drop all of it, so no unacknowledged
//     write is ever half-applied;
//   - mid-checkpoint: the checkpoint's commit lands, then the cut
//     comes during its fold to the backend, after a random number of
//     blob writes. The reopened plane must hold everything committed.
//
// Every acknowledged write — delete included — must hold after every
// crash. Each crash's cuts draw from a source of their own, seeded by
// the step: how many fold writes are in flight at a cut is the
// scheduler's choice, and must not shift what follows. The stream stays far below the journal's checkpoint threshold
// (300 steps, at most 2 KB per put), so every checkpoint is one the
// model runs; a commit may start a new segment, and a tear then cuts
// that one.
func runBlobSequence(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	faults := storetest.New()
	b := mustOpenBlobs(t, faults.View("server"))

	var keys []blobKey
	for _, ns := range blobNamespaces {
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
			cuts := rand.New(rand.NewSource(seed ^ int64(step)<<32))
			switch {
			case uncommitted && rng.Intn(2) == 0: // mid-append
				at := &storetest.Rule{Ops: storetest.WriteAt, NS: []string{store.NSBlobWAL}}
				lost, err := faults.CutAt(cuts, at, func() error { return b.Commit(ctx) }, "server")
				if !errors.Is(err, storetest.ErrPowerCut) {
					t.Fatalf("%s: commit across a power cut: %v", what, err)
				}
				if lost == 0 {
					durable = maps.Clone(live)
				}
			case rng.Intn(2) == 0: // mid-checkpoint
				at := &storetest.Rule{Ops: storetest.Put | storetest.Delete, NS: blobNamespaces, Skip: rng.Intn(len(keys))}
				if _, err := faults.CutAt(cuts, at, func() error { return b.Flush(ctx) }, "server"); err != nil && !errors.Is(err, storetest.ErrPowerCut) {
					t.Fatalf("%s: flush: %v", what, err)
				}
				durable, uncommitted = maps.Clone(live), false
			}
			faults.Cut(cuts, "server")
			b = mustOpenBlobs(t, faults.View("server"))
			live, uncommitted = maps.Clone(durable), false
			checkBlobs(t, b, keys, live, what+" after crash")
		}
	}

	// A final checkpoint leaves every blob in its namespace and the log
	// empty.
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	backend := faults.View("server")
	if segs, err := backend.List(ctx, store.NSBlobWAL); err != nil || len(segs) != 0 {
		t.Fatalf("seed %d: segments after the final checkpoint: %v, %v", seed, segs, err)
	}
	checkBlobs(t, mustOpenBlobs(t, backend), keys, live, fmt.Sprintf("seed %d at the end", seed))
}

// backendBlobs returns every blob a storage server keeps in backend.
func backendBlobs(t *testing.T, backend store.Backend) map[blobKey][]byte {
	t.Helper()
	all := make(map[blobKey][]byte)
	for _, ns := range []string{store.NSContainers, store.NSRecipes, store.NSStubs, store.NSKeyStates,
		store.NSMeta, store.NSWAL, store.NSFileWAL, store.NSBlobWAL} {
		names, err := backend.List(ctx, ns)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if all[blobKey{ns, name}], err = backend.Get(ctx, ns, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return all
}

// TestRetiredBlobLayoutsFailClosed writes a disk store in each layout of
// the blob plane this build no longer reads — blobs published in their
// namespaces before the journal existed, and a version-1 journal
// snapshot, which has no stub-file sizes, with a write still in the log
// — and requires New to refuse it with wal.ErrRetiredLayout and to
// leave every blob byte for byte as it was, so the upgrade step the
// error names still finds the store intact.
func TestRetiredBlobLayoutsFailClosed(t *testing.T) {
	published := map[blobKey][]byte{
		{store.NSRecipes, "file-a"}:   []byte("recipe a"),
		{store.NSStubs, "file-a"}:     []byte("stub file a"),
		{store.NSKeyStates, "file-a"}: []byte("key state a"),
		{store.NSRecipes, "file-b"}:   []byte("recipe b"),
	}
	for name, write := range map[string]func(t *testing.T, backend store.Backend){
		"pre-journal store": func(t *testing.T, backend store.Backend) {
			for key, data := range published {
				if err := backend.Put(ctx, key.ns, key.name, data); err != nil {
					t.Fatal(err)
				}
			}
		},
		"version-1 snapshot": func(t *testing.T, backend store.Backend) {
			b := mustOpenBlobs(t, backend)
			for key, data := range published {
				if err := b.put(key.ns, key.name, data); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			// Rewrite the snapshot as version 1 wrote it: version,
			// replay position, an empty body, CRC-32.
			snap, err := backend.Get(ctx, store.NSMeta, blobJournalSpec.Blob)
			if err != nil {
				t.Fatal(err)
			}
			v1 := append([]byte{1}, snap[1:9]...)
			v1 = binary.BigEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
			if err := backend.Put(ctx, store.NSMeta, blobJournalSpec.Blob, v1); err != nil {
				t.Fatal(err)
			}
			if err := b.put(store.NSStubs, "file-a", []byte("stub file a, rekeyed")); err != nil {
				t.Fatal(err)
			}
			if err := b.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			backend, err := store.NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			write(t, backend)
			if err := backend.Close(); err != nil {
				t.Fatal(err)
			}
			if backend, err = store.NewDisk(dir); err != nil {
				t.Fatal(err)
			}
			before := backendBlobs(t, backend)
			if _, err := New(ctx, backend); !errors.Is(err, wal.ErrRetiredLayout) {
				t.Fatalf("New = %v, want wal.ErrRetiredLayout", err)
			}
			if after := backendBlobs(t, backend); !maps.EqualFunc(after, before, bytes.Equal) {
				t.Fatalf("the failed open changed the store: %d blobs before, %d after", len(before), len(after))
			}
		})
	}
}

// TestCheckpointWritesEachBlobOnce: acknowledged writes reach the
// backend only at a checkpoint, and a name written many times since the
// last one reaches it once, with its last value.
func TestCheckpointWritesEachBlobOnce(t *testing.T) {
	faults := storetest.New()
	writes := faults.Add(&storetest.Rule{Ops: storetest.Put | storetest.Delete, NS: blobNamespaces})
	backend := faults.View("server")
	srv, err := New(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSStubs, "rekeyed", []byte{byte(i)}))
		mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSKeyStates, "gone", []byte{byte(i)}))
	}
	mustDispatch(t, srv, proto.MsgDeleteBlobReq, proto.EncodeBlobReq(store.NSKeyStates, "gone", nil))
	if n := writes.Hits(); n != 0 {
		t.Fatalf("%d blob writes reached the backend before a checkpoint", n)
	}
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := writes.Hits(); n != 2 {
		t.Fatalf("the checkpoint wrote %d blobs, want 2", n)
	}
	if got, err := backend.Get(ctx, store.NSStubs, "rekeyed"); err != nil || !bytes.Equal(got, []byte{4}) {
		t.Fatalf("stored stub file = %v, %v; want the last value", got, err)
	}
	if ok, _ := backend.Has(ctx, store.NSKeyStates, "gone"); ok {
		t.Fatal("a deleted key state reached the backend")
	}
}

// TestBlobReadsDuringCheckpoints runs writers and readers of the blob
// plane against checkpoints that keep moving blobs to the backend: every
// read sees the writer's last acknowledged value, whichever side holds it.
func TestBlobReadsDuringCheckpoints(t *testing.T) {
	// A blob-plane Put takes a while, as on a disk, which keeps a
	// checkpoint's fold in progress long enough to race with reads.
	faults := storetest.New()
	faults.Add(&storetest.Rule{Ops: storetest.Put, NS: blobNamespaces, Delay: 100 * time.Microsecond})
	srv, err := New(ctx, faults.View("server"))
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

// TestFailedAppendStaysInvisible: a write whose append fails is never
// shown to a reader, who could otherwise act on a blob that a crash can
// still erase. It becomes visible with the next append that lands, as
// part of that batch.
func TestFailedAppendStaysInvisible(t *testing.T) {
	faults := storetest.New()
	backend := faults.View("server")
	srv, err := New(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	old := blobKey{store.NSKeyStates, "old"}
	mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(old.ns, old.name, []byte("v1")))
	failing := faults.Add(&storetest.Rule{Ops: storetest.WriteAt, NS: []string{store.NSBlobWAL}, Fail: true})
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

	faults.Remove(failing)
	mustDispatch(t, srv, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSKeyStates, "new", []byte("acknowledged")))
	want := map[blobKey][]byte{{store.NSKeyStates, "new"}: []byte("acknowledged")}
	checkBlobs(t, srv.blobs, keys, want, "after the next append")
	checkBlobs(t, mustOpenBlobs(t, backend), keys, want, "reopened")
}

// TestFoldLetsWritesThrough: the commit that takes the log past the
// checkpoint threshold replies without waiting for the fold, and while
// the fold writes the journaled blobs to the backend, puts and deletes
// are still acknowledged and read back. A blob overwritten during the
// fold keeps its new value in the journal; a crash after the checkpoint
// replays it from the log's new segment.
func TestFoldLetsWritesThrough(t *testing.T) {
	faults := storetest.New()
	fold := storetest.NewGate()
	faults.Add(&storetest.Rule{Ops: storetest.Put, NS: blobNamespaces, Gate: fold})
	backend := faults.View("server")
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
	<-fold.Arrived() // the second commit started a checkpoint
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
	fold.Open()
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
	if segs, err := backend.List(ctx, store.NSBlobWAL); err != nil || len(segs) != 0 {
		t.Fatalf("segments after shutdown: %v, %v", segs, err)
	}
}
