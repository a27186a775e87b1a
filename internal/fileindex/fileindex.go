// Package fileindex implements the server side of the two-phase upload
// protocol's whole-file fast path: a per-policy map from a file's
// linear SHA-256 and size to the remote name of a recipe that already
// stores those bytes.
//
// The index is advisory. A hit tells the client which recipe to try to
// clone; the client re-verifies against the recipe itself (the recipe
// records the whole-file hash), so a stale entry — the named file was
// overwritten or deleted since registration — costs one wasted lookup,
// never wrong data. Entries are therefore only ever upserted;
// invalidation is lazy.
//
// Keys include a fingerprint of the file's protection policy, so the
// fast path never clones across policy boundaries: a hit only ever
// points at a recipe whose key state the querying client must still be
// able to decrypt (CP-ABE) to finish the clone.
//
// # Durability
//
// Same contract and same machinery as the dedup index (internal/dedup,
// DESIGN.md §9): the index is a wal.State — one record kind, one
// registration — behind a wal.Journal, which owns buffering, batch
// writes, the checkpoint snapshot and recovery. The server's dispatch
// commits the journal after a RegisterFile handler and before it forms
// the reply, so an acknowledged registration survives kill -9. The WAL
// lives in its own namespace (store.NSFileWAL) because a wal.Log
// rejects foreign blobs in its namespace.
package fileindex

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/binenc"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wal"
)

// HashSize is the whole-file hash length (SHA-256).
const HashSize = 32

// journalSpec is the index's journal: segments "f…" in NSFileWAL,
// snapshot "file-index", version 1. Registrations are tiny (~100
// bytes), so checkpointing every 1 MiB of WAL keeps the replay tail
// short without checkpointing on every batch.
var journalSpec = wal.Spec{
	Owner:           "fileindex",
	Namespace:       store.NSFileWAL,
	Prefix:          "f",
	Blob:            "file-index",
	Version:         1,
	CheckpointEvery: 1 << 20,
}

// recRegister is the only WAL record kind: one registration.
const recRegister = 1

// maxEntries bounds decoded snapshots (and with it recovery memory).
const maxEntries = 1 << 26

// Key identifies one whole file within one policy's sharing domain.
type Key struct {
	// Hash is the linear SHA-256 of the file's plaintext.
	Hash [HashSize]byte
	// Size is the plaintext length in bytes. Hash collisions aside,
	// carrying the size makes truncation extension attacks on the
	// lookup strictly harder and the key self-describing.
	Size uint64
	// Policy is the SHA-256 of the protection policy's canonical
	// encoding, so identical bytes under different policies never
	// alias.
	Policy [HashSize]byte
}

// RoutingName returns the string whose consistent-hash placement
// decides the key's home shard. Every client derives the same name
// from the same key, so lookups and registrations for one file meet on
// one shard (via ring.OwnerKey, the same placement rule the file plane
// uses for recipe names).
func (k Key) RoutingName() string {
	return "fileindex/" + hex.EncodeToString(k.Hash[:8]) + "/" + hex.EncodeToString(k.Policy[:8])
}

// encodeEntry writes one (key, name) pair: the body of a WAL record and
// the unit of the snapshot.
func encodeEntry(w *binenc.Writer, k Key, name string) {
	w.Raw(k.Hash[:])
	w.Uint64(k.Size)
	w.Raw(k.Policy[:])
	w.String(name)
}

// decodeEntry reads what encodeEntry wrote and refuses an empty name.
func decodeEntry(r *binenc.Reader) (k Key, name string, err error) {
	raw, err := r.ReadRaw(HashSize)
	if err != nil {
		return Key{}, "", fmt.Errorf("fileindex: key hash: %w", err)
	}
	copy(k.Hash[:], raw)
	if k.Size, err = r.Uint64(); err != nil {
		return Key{}, "", fmt.Errorf("fileindex: key size: %w", err)
	}
	if raw, err = r.ReadRaw(HashSize); err != nil {
		return Key{}, "", fmt.Errorf("fileindex: key policy: %w", err)
	}
	copy(k.Policy[:], raw)
	if name, err = r.ReadString(); err != nil {
		return Key{}, "", fmt.Errorf("fileindex: name: %w", err)
	}
	if name == "" {
		return Key{}, "", errors.New("fileindex: empty name")
	}
	return k, name, nil
}

// EncodeRecord frames one registration as a WAL record payload.
func EncodeRecord(key Key, name string) []byte {
	w := binenc.NewWriter(1 + 2*HashSize + 8 + 4 + len(name))
	w.Uint8(recRegister)
	encodeEntry(w, key, name)
	return w.Bytes()
}

// DecodeRecord parses one WAL record payload. It is the fuzzed decode
// boundary (FuzzFileIndexDecode): record bytes come off the backend,
// which a crashed or corrupted deployment may have mangled.
func DecodeRecord(rec []byte) (Key, string, error) {
	r := binenc.NewReader(rec)
	kind, err := r.Uint8()
	if err != nil {
		return Key{}, "", fmt.Errorf("fileindex: record kind: %w", err)
	}
	if kind != recRegister {
		return Key{}, "", fmt.Errorf("fileindex: unknown record kind %d", kind)
	}
	key, name, err := decodeEntry(r)
	if err != nil {
		return Key{}, "", err
	}
	if !r.Done() {
		return Key{}, "", errors.New("fileindex: trailing bytes in record")
	}
	return key, name, nil
}

// Index is the whole-file fingerprint index of one storage shard. It is
// safe for concurrent use. The journal's backend writes happen under
// mu on purpose: records must commit in the order they were applied,
// and a checkpoint must see a quiescent map.
type Index struct {
	mu      sync.Mutex
	entries map[Key]string
	journal *wal.Journal
}

// Open recovers the index from the backend: snapshot, then WAL replay
// (a torn last batch tolerated — its registrations were never
// acknowledged).
func Open(ctx context.Context, backend store.Backend) (*Index, error) {
	ix := &Index{entries: make(map[Key]string)}
	var err error
	if ix.journal, err = wal.OpenJournal(ctx, backend, journalSpec, (*state)(ix)); err != nil {
		return nil, err
	}
	return ix, nil
}

// Lookup returns the remote name registered for key, if any.
func (ix *Index) Lookup(key Key) (string, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	name, ok := ix.entries[key]
	return name, ok
}

// Register records that the file identified by key is stored under the
// given recipe name, journaling the entry. Like every mutation it is
// durable only after the next Commit; the server commits before
// acknowledging the RPC. Re-registering a key overwrites its entry
// (last writer wins — both recipes hold the same bytes, so either
// answer is correct).
func (ix *Index) Register(ctx context.Context, key Key, name string) error {
	if name == "" {
		return errors.New("fileindex: empty name")
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.entries[key] = name
	ix.journal.Record(EncodeRecord(key, name))
	return ix.journal.AutoCommit(ctx)
}

// Commit makes every registration journaled so far durable by writing
// one WAL batch (and, past the checkpoint threshold, folding the log
// into a snapshot). The server calls it before acknowledging a
// registration RPC.
func (ix *Index) Commit(ctx context.Context) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.journal.Commit(ctx)
}

// Flush commits pending records and checkpoints unconditionally.
func (ix *Index) Flush(ctx context.Context) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.journal.Checkpoint(ctx)
}

// ObserveJournal times the index's WAL commits and checkpoints.
func (ix *Index) ObserveJournal(commit, checkpoint *metrics.Histogram) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.journal.Observe(commit, checkpoint)
}

// Len reports how many whole-file entries the index holds.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.entries)
}

// state is *Index as the journal sees it: the wal.State methods,
// kept off Index's exported surface because they assume ix.mu is held
// (or that Open has not yet published the index).
type state Index

// Apply re-applies one journaled registration.
func (st *state) Apply(_ context.Context, rec []byte) error {
	key, name, err := DecodeRecord(rec)
	if err != nil {
		return err
	}
	st.entries[key] = name
	return nil
}

// EncodeSnapshot writes the entries, sorted for determinism.
func (st *state) EncodeSnapshot(w *binenc.Writer) {
	keys := make([]Key, 0, len(st.entries))
	for k := range st.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c := bytes.Compare(keys[i].Hash[:], keys[j].Hash[:]); c != 0 {
			return c < 0
		}
		if keys[i].Size != keys[j].Size {
			return keys[i].Size < keys[j].Size
		}
		return bytes.Compare(keys[i].Policy[:], keys[j].Policy[:]) < 0
	})
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		encodeEntry(w, k, st.entries[k])
	}
}

// DecodeSnapshot replaces the entries with the ones EncodeSnapshot
// wrote. With wal.DecodeSnapshot around it, it is the other fuzzed
// decode boundary.
func (st *state) DecodeSnapshot(r *binenc.Reader) error {
	count, err := r.Uvarint()
	if err != nil {
		return err
	}
	if count > maxEntries {
		return fmt.Errorf("entry count %d exceeds limit", count)
	}
	entries := make(map[Key]string, count)
	for i := uint64(0); i < count; i++ {
		key, name, err := decodeEntry(r)
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		entries[key] = name
	}
	st.entries = entries
	return nil
}

// Unstaged, Stage and Fold: a registration record carries the whole
// entry and the snapshot all of them, so nothing lives outside the log
// or only in it.
func (st *state) Unstaged() int                 { return 0 }
func (st *state) Stage(_ context.Context) error { return nil }
func (st *state) Fold(_ context.Context) error  { return nil }
