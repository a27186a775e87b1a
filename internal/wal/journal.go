package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/binenc"
	"repro/internal/metrics"
	"repro/internal/store"
)

// autoCommitBytes caps how many framed-but-uncommitted record bytes a
// Journal buffers before AutoCommit forces a batch write, bounding
// both memory and the worst-case loss window for callers that never
// Commit (the experiment drivers).
const autoCommitBytes = 1 << 20

// State is the in-memory state a Journal keeps durable. Every method
// runs with whatever lock guards the state already held (or, at Open,
// before the state is shared).
type State interface {
	// Apply re-applies one journaled record during recovery. It must
	// reject a record that does not fit the state rebuilt so far.
	Apply(ctx context.Context, rec []byte) error
	// EncodeSnapshot writes the complete state, deterministically.
	EncodeSnapshot(w *binenc.Writer)
	// DecodeSnapshot replaces the state with one EncodeSnapshot wrote.
	// Trailing bytes are the Journal's to reject.
	DecodeSnapshot(r *binenc.Reader) error
	// Unstaged is how many bytes the state keeps outside the log that
	// buffered records name and that are not durable yet. AutoCommit
	// counts them toward its threshold.
	Unstaged() int
	// Stage makes those bytes durable. The journal calls it before it
	// writes every batch and before every snapshot, so no record or
	// snapshot becomes durable before the bytes it names: this is the
	// first half of the one commit point every durable write goes
	// through. A state whose records carry everything returns nil.
	Stage(ctx context.Context) error
	// Fold writes what the state holds only in the log to its home
	// outside it, durably, so the checkpoint may truncate the log. The
	// journal calls it in every checkpoint, after the last batch and
	// the roll to a new segment, before the snapshot. Fold may release
	// the owner's lock while it writes if it holds it again when it
	// returns: batches committed meanwhile land in the new segment,
	// which the checkpoint keeps. Such an owner must not start another
	// checkpoint until this one returns, and its snapshot must not
	// depend on those batches. A state whose snapshot carries
	// everything returns nil.
	Fold(ctx context.Context) error
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
	// Version guards the snapshot encoding: checkpoints are written and
	// read at Version alone. An older snapshot is a retired layout.
	Version uint8
	// CheckpointEvery is how many journaled bytes make the next Commit
	// fold the log into a fresh snapshot.
	CheckpointEvery int64
}

// Journal is the one WAL + checkpoint lifecycle: it buffers records,
// commits each buffer as one batch appended to the log, folds the log
// into a snapshot blob
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
	// pending holds framed records not yet written as a batch;
	// walBytes counts batch bytes since the last checkpoint.
	pending  []byte
	walBytes int64
	// snapLen is the size of the last snapshot read or written: the
	// capacity hint for encoding the next one.
	snapLen int
	census  Census
	// commitTime and checkpointTime, nil until Observe, time each
	// batch write and each checkpoint.
	commitTime, checkpointTime *metrics.Histogram
}

// Census counts what a Journal has written since it was opened.
type Census struct {
	// Commits and CommitBytes count the batches appended to the log and
	// their bytes, batch headers included.
	Commits, CommitBytes uint64
	// Checkpoints counts snapshot blobs written.
	Checkpoints uint64
}

// OpenJournal recovers state from the backend — load the snapshot, open
// the log and advance it to the snapshot's position, replay the tail
// (a torn last batch tolerated: its records were never acknowledged)
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
	switch {
	case version < spec.Version:
		return 0, fmt.Errorf("%s: snapshot version %d (want %d): %w", spec.Owner, version, spec.Version, ErrRetiredLayout)
	case version > spec.Version:
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

// AutoCommit commits once the buffered records plus the state's
// unstaged bytes pass autoCommitBytes. Owners call it at the end of
// every mutating operation.
func (j *Journal) AutoCommit(ctx context.Context) error {
	if len(j.pending)+j.state.Unstaged() < autoCommitBytes {
		return nil
	}
	return j.Commit(ctx)
}

// Census returns what the journal has written since it was opened.
func (j *Journal) Census() Census { return j.census }

// Observe times every later batch write (Stage and the append) into
// commit and every later checkpoint into checkpoint. Nil histograms
// observe nothing.
func (j *Journal) Observe(commit, checkpoint *metrics.Histogram) {
	j.commitTime, j.checkpointTime = commit, checkpoint
}

// Commit makes every record buffered so far durable as one batch and,
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

// Backlog is how many batch bytes the log has taken since the last
// checkpoint, for an owner that checkpoints on its own schedule.
func (j *Journal) Backlog() int64 { return j.walBytes }

// Sync stages the state, then appends the buffered records to the log
// as one batch; it never checkpoints. On failure the buffer is kept, so
// a retry re-attempts the same batch at the same offset.
func (j *Journal) Sync(ctx context.Context) error {
	start := time.Now()
	if err := j.state.Stage(ctx); err != nil {
		return err
	}
	if len(j.pending) == 0 {
		return nil
	}
	if err := j.log.Append(ctx, j.pending); err != nil {
		return fmt.Errorf("%s: commit: %w", j.spec.Owner, err)
	}
	j.walBytes += int64(len(j.pending))
	j.census.Commits++
	j.census.CommitBytes += uint64(len(j.pending) + frameHeader)
	j.pending = j.pending[:0]
	j.commitTime.Observe(time.Since(start))
	return nil
}

// Checkpoint writes the last batch, ends the active segment, folds
// what the state keeps only in the log out of it and writes the state
// as one snapshot blob (a single atomic backend Put) that records the
// new segment's number, then truncates the log below it. A crash
// between the snapshot and the truncation leaves stale segments that
// the next Open skips, because replay starts at the snapshot's
// position.
func (j *Journal) Checkpoint(ctx context.Context) error {
	start := time.Now()
	if err := j.Sync(ctx); err != nil {
		return err
	}
	pos, err := j.log.Roll(ctx)
	if err != nil {
		return fmt.Errorf("%s: %w", j.spec.Owner, err)
	}
	// Batches a Fold that releases the owner's lock lets through count
	// toward the next checkpoint.
	folded := j.walBytes
	if err := j.state.Fold(ctx); err != nil {
		return fmt.Errorf("%s: fold: %w", j.spec.Owner, err)
	}
	w := binenc.NewWriter(j.snapLen + 256)
	w.Uint8(j.spec.Version)
	w.Uint64(pos) // replay position: records before this are folded in
	j.state.EncodeSnapshot(w)
	blob := binary.BigEndian.AppendUint32(w.Bytes(), crc32.ChecksumIEEE(w.Bytes()))
	if err := j.backend.Put(ctx, store.NSMeta, j.spec.Blob, blob); err != nil {
		return fmt.Errorf("%s: write snapshot: %w", j.spec.Owner, err)
	}
	j.snapLen = len(blob)
	j.walBytes -= folded
	j.census.Checkpoints++
	if err := j.log.TruncateBefore(ctx, pos); err != nil {
		return fmt.Errorf("%s: truncate wal: %w", j.spec.Owner, err)
	}
	j.checkpointTime.Observe(time.Since(start))
	return nil
}
