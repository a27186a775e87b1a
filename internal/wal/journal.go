package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/binenc"
	"repro/internal/store"
)

// autoCommitBytes caps how many framed-but-uncommitted record bytes a
// Journal buffers before AutoCommit forces a segment write, bounding
// both memory and the worst-case loss window for callers that never
// Commit (the experiment drivers).
const autoCommitBytes = 1 << 20

// State is the in-memory state a Journal keeps durable. All three
// methods run with whatever lock guards the state already held (or, at
// Open, before the state is shared).
type State interface {
	// Apply re-applies one journaled record during recovery. It must
	// reject a record that does not fit the state rebuilt so far.
	Apply(ctx context.Context, rec []byte) error
	// EncodeSnapshot writes the complete state, deterministically.
	EncodeSnapshot(w *binenc.Writer)
	// DecodeSnapshot replaces the state with one EncodeSnapshot wrote.
	// Trailing bytes are the Journal's to reject.
	DecodeSnapshot(r *binenc.Reader) error
}

// Spec is what differs between one journaled state and another.
type Spec struct {
	// Owner prefixes error messages ("dedup", "fileindex").
	Owner string
	// Namespace and Prefix locate the WAL segments. A Log rejects
	// foreign blobs, so each journal has a namespace to itself.
	Namespace, Prefix string
	// Blob names the checkpoint snapshot in store.NSMeta.
	Blob string
	// Version guards the snapshot encoding.
	Version uint8
	// CheckpointEvery is how many journaled bytes make the next Commit
	// fold the log into a fresh snapshot.
	CheckpointEvery int64
}

// Journal is the one WAL + checkpoint lifecycle: it buffers records,
// commits them as segments, folds the log into a snapshot blob
//
//	[version u8 | WAL position u64 | state body | CRC-32 u32]
//
// and truncates it, and on Open rebuilds the state from snapshot plus
// replay. It is not safe for concurrent use: the owner calls it under
// the same mutex that guards the state, so the order records are
// committed in is the order they were applied in.
type Journal struct {
	backend store.Backend
	spec    Spec
	state   State
	log     *Log
	// pending holds framed records not yet written as a segment;
	// walBytes counts segment bytes since the last checkpoint.
	pending  []byte
	walBytes int64
	// snapLen is the size of the last snapshot read or written: the
	// capacity hint for encoding the next one.
	snapLen int
}

// OpenJournal recovers state from the backend — load the snapshot, open
// the log and advance it to the snapshot's position, replay the tail
// (torn final segment tolerated: its records were never acknowledged)
// — and returns the journal that keeps it durable from here on.
func OpenJournal(ctx context.Context, backend store.Backend, spec Spec, state State) (*Journal, error) {
	j := &Journal{backend: backend, spec: spec, state: state}
	var walFrom uint64
	blob, err := backend.Get(ctx, store.NSMeta, spec.Blob)
	switch {
	case errors.Is(err, store.ErrNotFound):
		// A fresh store, or one that crashed before its first checkpoint.
	case err != nil:
		return nil, fmt.Errorf("%s: load snapshot: %w", spec.Owner, err)
	default:
		if walFrom, err = DecodeSnapshot(spec, blob, state); err != nil {
			return nil, err
		}
		j.snapLen = len(blob)
	}
	if j.log, err = Open(ctx, backend, spec.Namespace, spec.Prefix); err != nil {
		return nil, fmt.Errorf("%s: open wal: %w", spec.Owner, err)
	}
	j.log.Advance(walFrom)

	// Replayed history does not count toward the next checkpoint:
	// walBytes starts at zero whatever the length of the tail.
	err = j.log.Replay(ctx, walFrom, func(rec []byte) error { return state.Apply(ctx, rec) })
	if err != nil {
		return nil, err
	}
	return j, nil
}

// DecodeSnapshot checks a checkpoint blob's envelope, hands the body to
// state and returns the WAL position replay starts from. It is a decode
// boundary for bytes a crashed or corrupted deployment may have mangled
// (FuzzFileIndexDecode drives it).
func DecodeSnapshot(spec Spec, blob []byte, state State) (walFrom uint64, err error) {
	if len(blob) < 5 {
		return 0, fmt.Errorf("%s: snapshot too short", spec.Owner)
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return 0, fmt.Errorf("%s: snapshot checksum mismatch", spec.Owner)
	}
	r := binenc.NewReader(body)
	version, err := r.Uint8()
	if err != nil {
		return 0, fmt.Errorf("%s: parse snapshot: %w", spec.Owner, err)
	}
	if version != spec.Version {
		return 0, fmt.Errorf("%s: unsupported snapshot version %d (want %d)", spec.Owner, version, spec.Version)
	}
	if walFrom, err = r.Uint64(); err != nil {
		return 0, fmt.Errorf("%s: parse snapshot: %w", spec.Owner, err)
	}
	if err := state.DecodeSnapshot(r); err != nil {
		return 0, fmt.Errorf("%s: parse snapshot: %w", spec.Owner, err)
	}
	if !r.Done() {
		return 0, fmt.Errorf("%s: trailing bytes in snapshot", spec.Owner)
	}
	return walFrom, nil
}

// Record buffers one record describing a mutation the owner has
// applied. It does no I/O; the record is durable after the next Sync,
// Commit or Checkpoint. State.Apply must never reach it — replay
// re-applies history, it must not re-write it — and cannot by accident:
// the owner holds no Journal until OpenJournal has finished replaying.
func (j *Journal) Record(payload []byte) {
	j.pending = AppendRecord(j.pending, payload)
}

// AutoCommit commits once the buffered records pass autoCommitBytes.
// Owners call it at the end of every mutating operation.
func (j *Journal) AutoCommit(ctx context.Context) error {
	if len(j.pending) < autoCommitBytes {
		return nil
	}
	return j.Commit(ctx)
}

// Commit makes every record buffered so far durable as one segment and,
// once the log has grown past the spec's threshold, checkpoints.
func (j *Journal) Commit(ctx context.Context) error {
	if err := j.Sync(ctx); err != nil {
		return err
	}
	if j.walBytes >= j.spec.CheckpointEvery {
		return j.Checkpoint(ctx)
	}
	return nil
}

// Sync writes the buffered records as one segment and never
// checkpoints. On failure the buffer is kept, so a retry re-attempts
// the same segment.
func (j *Journal) Sync(ctx context.Context) error {
	if len(j.pending) == 0 {
		return nil
	}
	if err := j.log.Append(ctx, j.pending); err != nil {
		return fmt.Errorf("%s: commit: %w", j.spec.Owner, err)
	}
	j.walBytes += int64(len(j.pending))
	j.pending = j.pending[:0]
	return nil
}

// Checkpoint folds the state into one snapshot blob (a single atomic
// backend Put), then truncates the log below the position the snapshot
// records. A crash between the two leaves stale segments that the next
// Open skips, because replay starts at the snapshot's position.
func (j *Journal) Checkpoint(ctx context.Context) error {
	if err := j.Sync(ctx); err != nil {
		return err
	}
	w := binenc.NewWriter(j.snapLen + 256)
	w.Uint8(j.spec.Version)
	w.Uint64(j.log.Next()) // replay position: records before this are folded in
	j.state.EncodeSnapshot(w)
	blob := binary.BigEndian.AppendUint32(w.Bytes(), crc32.ChecksumIEEE(w.Bytes()))
	if err := j.backend.Put(ctx, store.NSMeta, j.spec.Blob, blob); err != nil {
		return fmt.Errorf("%s: write snapshot: %w", j.spec.Owner, err)
	}
	j.snapLen = len(blob)
	j.walBytes = 0
	if err := j.log.TruncateBefore(ctx, j.log.Next()); err != nil {
		return fmt.Errorf("%s: truncate wal: %w", j.spec.Owner, err)
	}
	return nil
}
