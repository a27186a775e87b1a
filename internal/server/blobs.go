package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/binenc"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wal"
)

// blobJournalSpec is the blob plane's journal: segments "b…" in
// NSBlobWAL, snapshot "blob-journal". A checkpoint first writes every
// journaled blob to the backend, so the snapshot holds no blob, only
// where replay starts and the size of every stub file (version 1 had
// no sizes and is a retired layout). 4 MiB of log keeps the blobs held
// in memory bounded while a checkpoint's flush stays rare next to the
// commits it follows.
var blobJournalSpec = wal.Spec{
	Owner:           "blobs",
	Namespace:       store.NSBlobWAL,
	Prefix:          "b",
	Blob:            "blob-journal",
	Version:         2,
	CheckpointEvery: 4 << 20,
}

// Blob journal record kinds.
const (
	// recBlobPut: ns, name, then the blob's bytes to the record's end.
	recBlobPut = 1
	// recBlobDelete: ns, name.
	recBlobDelete = 2
)

// blobKey addresses one blob of the blob plane.
type blobKey struct{ ns, name string }

// dirtyBlob is one journaled write of a blob: its bytes, or a delete.
// seq numbers the writes, so a fold can tell whether the blob changed
// while it wrote it out.
type dirtyBlob struct {
	data    []byte
	deleted bool
	seq     uint64
}

// blobWrite is one write of one blob: a pending write, or one a fold
// writes out.
type blobWrite struct {
	key  blobKey
	blob dirtyBlob
}

// blobs is the blob plane — recipes, stub files and key states, stored
// verbatim — as a wal.State. A put or delete is journaled like an index
// mutation, so once dispatch has committed it, it is one log append and
// one fdatasync old, not a temp file, a rename and two fsyncs. Reads see
// a write only once its batch has been appended. Each checkpoint, which
// a commit starts in the background, writes the journaled blobs to
// their own namespaces with the backend's durable Put and Delete, then
// truncates the log; until then dirty holds them, and reads look there
// before the backend. Blobs overwritten several times between
// checkpoints reach the backend once.
type blobs struct {
	backend store.Backend
	// mu guards the fields below and orders the journal: a write holds
	// it while it records, a commit for its append, a read for its
	// lookup, a checkpoint for all but its fold's backend writes.
	mu sync.Mutex
	// pending holds the writes recorded since the last append, in
	// order, and seq numbers the last of them.
	pending []blobWrite
	seq     uint64
	// folding is set from the moment a checkpoint is due or asked for
	// until it ends; idle is broadcast when it clears. While it is set
	// no other checkpoint starts.
	folding bool
	idle    sync.Cond
	// dirty holds the last appended write of every blob the log holds.
	dirty   map[blobKey]dirtyBlob
	journal *wal.Journal
	// stubSizes maps every stub file reads can see to its size, and
	// stubBytes is their sum: Stats' StubBytes. Writes count once they
	// are published. The snapshot carries the sizes, so the sum
	// survives a restart.
	stubSizes map[string]int
	stubBytes uint64
	// snapshotted records that recovery found a snapshot.
	snapshotted bool
}

// openBlobs recovers the blob plane: snapshot, then log replay into
// dirty. A store from before the journal, whose blobs were published in
// their namespaces directly, has neither a snapshot nor a log record
// yet holds blobs. That is a retired layout; no current-format state
// looks like it, since a fold writes blobs out only while the log still
// holds their records and the log is truncated only after the snapshot.
func openBlobs(ctx context.Context, backend store.Backend) (*blobs, error) {
	b := &blobs{backend: backend, dirty: make(map[blobKey]dirtyBlob), stubSizes: make(map[string]int)}
	b.idle.L = &b.mu
	var err error
	if b.journal, err = wal.OpenJournal(ctx, backend, blobJournalSpec, (*blobState)(b)); err != nil {
		return nil, err
	}
	if b.snapshotted || len(b.dirty) > 0 {
		return b, nil
	}
	for ns := range allowedNamespaces {
		names, err := backend.List(ctx, ns)
		if err != nil {
			return nil, fmt.Errorf("blobs: list %s: %w", ns, err)
		}
		if len(names) > 0 {
			return nil, fmt.Errorf("blobs: namespace %s holds blobs but there is no blob journal: %w", ns, wal.ErrRetiredLayout)
		}
	}
	return b, nil
}

// account counts one visible write toward the stub-file sizes.
func (b *blobs) account(key blobKey, blob dirtyBlob) {
	if key.ns != store.NSStubs {
		return
	}
	b.stubBytes -= uint64(b.stubSizes[key.name])
	if blob.deleted {
		delete(b.stubSizes, key.name)
		return
	}
	b.stubSizes[key.name] = len(blob.data)
	b.stubBytes += uint64(len(blob.data))
}

// stubFileBytes returns the total size of the stub files reads see.
func (b *blobs) stubFileBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stubBytes
}

// backlog returns how many batch bytes the log has taken since the last
// checkpoint: what the next fold has to catch up on.
func (b *blobs) backlog() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.journal.Backlog()
}

// encodeBlobRecord frames one put (deleted false) or delete.
func encodeBlobRecord(ns, name string, data []byte, deleted bool) []byte {
	w := binenc.NewWriter(len(ns) + len(name) + len(data) + 16)
	if deleted {
		w.Uint8(recBlobDelete)
	} else {
		w.Uint8(recBlobPut)
	}
	w.String(ns)
	w.String(name)
	w.Raw(data)
	return w.Bytes()
}

// decodeBlobRecord inverts encodeBlobRecord. The returned data aliases
// rec. It refuses a namespace clients may not write and a name the
// backend cannot store, so no record can make a checkpoint write
// outside the blob plane or fail on it.
func decodeBlobRecord(rec []byte) (key blobKey, blob dirtyBlob, err error) {
	r := binenc.NewReader(rec)
	kind, err := r.Uint8()
	if err != nil {
		return key, blob, fmt.Errorf("blobs: record kind: %w", err)
	}
	if key.ns, err = r.ReadString(); err != nil {
		return key, blob, fmt.Errorf("blobs: namespace: %w", err)
	}
	if !allowedNamespaces[key.ns] {
		return key, blob, fmt.Errorf("blobs: record for namespace %q", key.ns)
	}
	if key.name, err = r.ReadString(); err != nil {
		return key, blob, fmt.Errorf("blobs: name: %w", err)
	}
	if err := store.CheckName(key.name); err != nil {
		return key, blob, fmt.Errorf("blobs: record for %w", err)
	}
	switch kind {
	case recBlobPut:
		blob.data = rec[len(rec)-r.Remaining():]
	case recBlobDelete:
		if !r.Done() {
			return key, blob, errors.New("blobs: trailing bytes in delete record")
		}
		blob.deleted = true
	default:
		return key, blob, fmt.Errorf("blobs: unknown record kind %d", kind)
	}
	return key, blob, nil
}

// write journals a put or delete of (ns, name). It refuses a name the
// backend cannot store: the write would be acknowledged at the next
// commit, and only a checkpoint would find out. Like every journaled
// mutation it is durable, and visible to reads, only after the next
// Commit, which dispatch runs before it replies.
func (b *blobs) write(ns, name string, data []byte, deleted bool) error {
	if err := store.CheckName(name); err != nil {
		return err
	}
	rec := encodeBlobRecord(ns, name, data, deleted)
	blob := dirtyBlob{deleted: deleted}
	if !deleted {
		blob.data = rec[len(rec)-len(data):]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	blob.seq = b.seq
	b.pending = append(b.pending, blobWrite{blobKey{ns, name}, blob})
	b.journal.Record(rec)
	return nil
}

func (b *blobs) put(ns, name string, data []byte) error {
	return b.write(ns, name, data, false)
}

func (b *blobs) delete(ns, name string) error {
	return b.write(ns, name, nil, true)
}

// get returns the blob at (ns, name): the journaled write if the log
// holds one, the backend's copy otherwise. A journaled blob's bytes are
// never written again, so the caller may keep them.
func (b *blobs) get(ctx context.Context, ns, name string) ([]byte, error) {
	b.mu.Lock()
	blob, ok := b.dirty[blobKey{ns, name}]
	b.mu.Unlock()
	switch {
	case !ok:
		return b.backend.Get(ctx, ns, name)
	case blob.deleted:
		return nil, fmt.Errorf("%w: %s/%s", store.ErrNotFound, ns, name)
	default:
		return blob.data, nil
	}
}

// list returns the names in ns, sorted: the backend's, with the
// journaled writes applied. It holds mu across the backend's List, so a
// checkpoint cannot forget a blob it has written in between.
func (b *blobs) list(ctx context.Context, ns string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names, err := b.backend.List(ctx, ns)
	if err != nil {
		return nil, err
	}
	live := make(map[string]bool, len(names))
	for _, name := range names {
		live[name] = true
	}
	for key, blob := range b.dirty {
		if key.ns == ns {
			live[key.name] = !blob.deleted
		}
	}
	names = names[:0]
	for name, ok := range live {
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// appendPending appends the recorded writes to the log as one batch
// and, once it has landed, makes them visible to reads. A failed append
// keeps them pending, unseen, for the next one.
func (b *blobs) appendPending(ctx context.Context) error {
	if err := b.journal.Sync(ctx); err != nil {
		return err
	}
	b.publish()
	return nil
}

// publish moves the pending writes, which an append has just made
// durable, into dirty.
func (b *blobs) publish() {
	for _, w := range b.pending {
		b.dirty[w.key] = w.blob
		b.account(w.key, w.blob)
	}
	clear(b.pending)
	b.pending = b.pending[:0]
}

// Commit makes every write recorded so far durable, as one batch
// appended to the log, and then visible. Once the log has grown past
// the checkpoint threshold it starts a checkpoint in the background,
// unless one is running already, so no reply waits for a fold. A
// checkpoint that fails is retried by the next commit; Flush reports
// its error. A commit that finds the log at twice the threshold while a
// checkpoint runs waits for it, which bounds what the log and dirty
// hold when writes outpace folds.
func (b *blobs) Commit(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.folding && b.journal.Backlog() >= 2*blobJournalSpec.CheckpointEvery {
		b.idle.Wait()
	}
	if err := b.appendPending(ctx); err != nil {
		return err
	}
	if !b.folding && b.journal.Backlog() >= blobJournalSpec.CheckpointEvery {
		b.folding = true
		go func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			// A failure is retried by the next commit.
			_ = b.checkpoint(context.WithoutCancel(ctx))
		}()
	}
	return nil
}

// Flush writes every write recorded so far, and every journaled blob,
// to the backend and truncates the log. It waits for a running
// checkpoint first, since writes committed during that one's fold are
// still in the log.
func (b *blobs) Flush(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.folding {
		b.idle.Wait()
	}
	b.folding = true
	return b.checkpoint(ctx)
}

// checkpoint runs the checkpoint its caller set folding for, with mu
// held, and clears folding.
func (b *blobs) checkpoint(ctx context.Context) error {
	err := b.journal.Checkpoint(ctx)
	b.folding = false
	b.idle.Broadcast()
	return err
}

// ObserveJournal times the blob journal's commits and checkpoints.
func (b *blobs) ObserveJournal(commit, checkpoint *metrics.Histogram) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.journal.Observe(commit, checkpoint)
}

// blobState is *blobs as the journal sees it: the wal.State methods,
// which run with b.mu held (or before openBlobs has published the
// plane).
type blobState blobs

// Apply re-applies one journaled put or delete.
func (st *blobState) Apply(_ context.Context, rec []byte) error {
	key, blob, err := decodeBlobRecord(rec)
	if err != nil {
		return err
	}
	st.dirty[key] = blob
	(*blobs)(st).account(key, blob)
	return nil
}

// EncodeSnapshot writes the stub-file sizes, and no blob: Fold has
// written every blob the snapshot's log position covers to the backend.
// The sizes may count writes past that position too, which replay then
// sets again.
func (st *blobState) EncodeSnapshot(w *binenc.Writer) {
	w.Uvarint(uint64(len(st.stubSizes)))
	for name, size := range st.stubSizes {
		w.String(name)
		w.Uvarint(uint64(size))
	}
}

// DecodeSnapshot reads the stub-file sizes.
func (st *blobState) DecodeSnapshot(r *binenc.Reader) error {
	n, err := r.Uvarint()
	if err != nil {
		return fmt.Errorf("blobs: stub file count: %w", err)
	}
	for range n {
		name, err := r.ReadString()
		if err != nil {
			return fmt.Errorf("blobs: stub file name: %w", err)
		}
		size, err := r.Uvarint()
		if err != nil {
			return fmt.Errorf("blobs: stub file size: %w", err)
		}
		st.stubSizes[name] = int(size)
		st.stubBytes += size
	}
	st.snapshotted = true
	return nil
}

// Unstaged and Stage: a record carries the whole blob.
func (st *blobState) Unstaged() int                 { return 0 }
func (st *blobState) Stage(_ context.Context) error { return nil }

// foldWorkers is how many blobs a fold writes at once. A durable Put
// spends most of its time waiting for fsync, and concurrent fsyncs
// share the file system's journal commits, so a fold keeps up with
// writers that Put concurrently, as clients did before the journal.
const foldWorkers = 8

// Fold writes every journaled blob to its namespace, each with the
// backend's durable Put or Delete, then forgets those that no write has
// changed since. It releases mu while it writes, so writes and commits
// go on meanwhile; theirs land in the log's new segment, which this
// checkpoint keeps. A failure keeps dirty whole, and the log still
// holds it all, so replay converges on it whatever the backend holds.
func (st *blobState) Fold(ctx context.Context) error {
	// The checkpoint's last batch has landed, with any pending writes.
	(*blobs)(st).publish()
	todo := make([]blobWrite, 0, len(st.dirty))
	for key, blob := range st.dirty {
		todo = append(todo, blobWrite{key, blob})
	}
	st.mu.Unlock()
	err := st.writeOut(ctx, todo)
	st.mu.Lock()
	if err != nil {
		return err
	}
	for _, w := range todo {
		if st.dirty[w.key].seq == w.blob.seq {
			delete(st.dirty, w.key)
		}
	}
	return nil
}

// writeOut writes each blob of todo to the backend, foldWorkers at a
// time; each names a different blob. It stops at the first failure.
func (st *blobState) writeOut(ctx context.Context, todo []blobWrite) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   [foldWorkers]error
	)
	for worker := range min(foldWorkers, len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(todo)) && !failed.Load(); i = next.Add(1) - 1 {
				w := todo[i]
				var err error
				if w.blob.deleted {
					err = st.backend.Delete(ctx, w.key.ns, w.key.name)
				} else {
					err = st.backend.Put(ctx, w.key.ns, w.key.name, w.blob.data)
				}
				if err != nil {
					errs[worker] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}
