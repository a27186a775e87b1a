package dedup

// The store as a wal.State, and what recovery checks afterwards.
//
// Every mutation of the dedup state is expressed as one WAL record;
// recovery is "snapshot + replay": the journal (wal.OpenJournal) loads
// the last checkpoint snapshot and re-applies the records journaled
// after it, then the store verifies the result against the containers
// actually present in the backend. For replay
// to land on byte-identical state, every in-memory rearrangement is
// either deterministic (the open-container squeeze repacks in offset
// order) or explicitly journaled (compaction MOVE records carry the
// chunk bytes, since their destination — the open container — exists
// only in memory).
//
// Record kinds:
//
//	PUT   fp, location, data   new chunk appended to the open container
//	REF   fp                   duplicate put (refcount + stats only)
//	DEREF fp                   one reference dropped
//	SEAL  id, liveBytes        open container id written to the backend
//	MOVE  fp, location, data   compaction moved a chunk into the open container
//	DROP  id                   compacted container id left the container map
//
// Orderings that recovery relies on:
//
//   - a container blob is Put to the backend before its SEAL record is
//     journaled, so replay never seals a container the backend lacks;
//   - compaction journals and *commits* its MOVE/DROP records before
//     deleting the old container blob, so the only copy of a moved
//     chunk is never exclusively in a lost buffer;
//   - the checkpoint snapshot is one atomic backend Put, and the WAL
//     is truncated only after it lands (wal.Journal.Checkpoint).

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/binenc"
	"repro/internal/fingerprint"
	"repro/internal/packfile"
	"repro/internal/store"
	"repro/internal/wal"
)

// WAL record kinds.
const (
	recPut   = 1
	recRef   = 2
	recDeref = 3
	recSeal  = 4
	recMove  = 5
	recDrop  = 6
)

// snapshotVersion guards the checkpoint encoding. Version 3 replaced
// the pre-WAL index blob (version 2); older snapshots are not readable.
const snapshotVersion = 3

// journalSpec is the dedup store's journal: segments "w…" in NSWAL,
// snapshot "dedup-index". Checkpoint cadence: a few containers' worth
// of WAL amortizes snapshot writes while keeping replay short.
func journalSpec(containerSize int) wal.Spec {
	return wal.Spec{
		Owner:           "dedup",
		Namespace:       store.NSWAL,
		Prefix:          "w",
		Blob:            "dedup-index",
		Version:         snapshotVersion,
		CheckpointEvery: int64(containerSize) * 4,
	}
}

// state is *Store as the journal sees it: the three wal.State methods
// (Apply, EncodeSnapshot, DecodeSnapshot below), kept off Store's
// exported surface because they assume s.mu is held.
type state Store

func encodeChunkRec(kind uint8, fp fingerprint.Fingerprint, loc Location, data []byte) []byte {
	w := binenc.NewWriter(1 + fingerprint.Size + 16 + 5 + len(data))
	w.Uint8(kind)
	writeEntry(w, fp, loc)
	w.WriteBytes(data)
	return w.Bytes()
}

// writeEntry writes a fingerprint and its location: the common prefix
// of chunk records and snapshot index entries (readEntry reads it).
func writeEntry(w *binenc.Writer, fp fingerprint.Fingerprint, loc Location) {
	w.Raw(fp[:])
	w.Uint64(loc.Container)
	w.Uint32(loc.Offset)
	w.Uint32(loc.Length)
}

func encodeFPRec(kind uint8, fp fingerprint.Fingerprint) []byte {
	w := binenc.NewWriter(1 + fingerprint.Size)
	w.Uint8(kind)
	w.Raw(fp[:])
	return w.Bytes()
}

func encodeSealRec(id, live uint64) []byte {
	w := binenc.NewWriter(17)
	w.Uint8(recSeal)
	w.Uint64(id)
	w.Uint64(live)
	return w.Bytes()
}

func encodeDropRec(id uint64) []byte {
	w := binenc.NewWriter(9)
	w.Uint8(recDrop)
	w.Uint64(id)
	return w.Bytes()
}

// Apply replays one WAL record against in-memory state, validating that
// the record matches the state replay has rebuilt so far — any mismatch
// means the log and snapshot disagree, and recovery must fail rather
// than fabricate a plausible-looking store.
func (st *state) Apply(ctx context.Context, rec []byte) error {
	s := (*Store)(st)
	r := binenc.NewReader(rec)
	kind, err := r.Uint8()
	if err != nil {
		return fmt.Errorf("dedup: replay: %w", err)
	}
	switch kind {
	case recPut, recMove:
		fp, loc, err := readEntry(r)
		if err != nil {
			return fmt.Errorf("dedup: replay: %w", err)
		}
		data, err := r.ReadBytes()
		if err != nil {
			return fmt.Errorf("dedup: replay: %w", err)
		}
		if loc.Container != s.currentID || int(loc.Offset) != len(s.current) ||
			int(loc.Length) != len(data) {
			return fmt.Errorf("dedup: replay: record for %s does not extend the open container (%+v, open %d/%d)",
				fp.Short(), loc, s.currentID, len(s.current))
		}
		if kind == recPut {
			if _, exists := s.index[fp]; exists {
				return fmt.Errorf("dedup: replay: duplicate PUT for %s", fp.Short())
			}
			s.applyPut(fp, loc, data)
		} else {
			if _, exists := s.index[fp]; !exists {
				return fmt.Errorf("dedup: replay: MOVE of unknown chunk %s", fp.Short())
			}
			s.applyMove(fp, loc, data)
		}
	case recRef:
		fp, err := readFP(r)
		if err != nil {
			return fmt.Errorf("dedup: replay: %w", err)
		}
		if _, ok := s.index[fp]; !ok {
			return fmt.Errorf("dedup: replay: REF of unknown chunk %s", fp.Short())
		}
		s.applyRef(fp)
	case recDeref:
		fp, err := readFP(r)
		if err != nil {
			return fmt.Errorf("dedup: replay: %w", err)
		}
		if _, err := s.derefLocked(ctx, fp, true); err != nil {
			return fmt.Errorf("dedup: replay: %w", err)
		}
	case recSeal:
		var id, live uint64
		if err := readUint64s(r, &id, &live); err != nil {
			return fmt.Errorf("dedup: replay: %w", err)
		}
		if id != s.currentID {
			return fmt.Errorf("dedup: replay: SEAL of container %d but open container is %d", id, s.currentID)
		}
		// Mirror sealLocked: squeeze dead space before measuring.
		if s.openDead > 0 {
			s.compactOpenLocked()
		}
		if uint64(len(s.current)) != live {
			return fmt.Errorf("dedup: replay: SEAL of %d live bytes but open container has %d", live, len(s.current))
		}
		s.applySeal(id, live)
	case recDrop:
		id, err := r.Uint64()
		if err != nil {
			return fmt.Errorf("dedup: replay: %w", err)
		}
		if _, ok := s.containers[id]; !ok {
			return fmt.Errorf("dedup: replay: DROP of unknown container %d", id)
		}
		s.applyDrop(id)
	default:
		return fmt.Errorf("dedup: replay: unknown record kind %d", kind)
	}
	if !r.Done() {
		return fmt.Errorf("dedup: replay: trailing bytes in record kind %d", kind)
	}
	return nil
}

func readFP(r *binenc.Reader) (fingerprint.Fingerprint, error) {
	raw, err := r.ReadRaw(fingerprint.Size)
	if err != nil {
		return fingerprint.Fingerprint{}, err
	}
	return fingerprint.FromSlice(raw)
}

// readUint64s fills each field in order.
func readUint64s(r *binenc.Reader, fields ...*uint64) (err error) {
	for _, f := range fields {
		if *f, err = r.Uint64(); err != nil {
			return err
		}
	}
	return nil
}

// readEntry reads what writeEntry wrote.
func readEntry(r *binenc.Reader) (fingerprint.Fingerprint, Location, error) {
	var loc Location
	fp, err := readFP(r)
	if err != nil {
		return fp, loc, err
	}
	if loc.Container, err = r.Uint64(); err != nil {
		return fp, loc, err
	}
	if loc.Offset, err = r.Uint32(); err != nil {
		return fp, loc, err
	}
	loc.Length, err = r.Uint32()
	return fp, loc, err
}

// sweepOrphans deletes container blobs the recovered state does
// not own: a container sealed-but-not-committed before the crash, or
// one whose committed compaction did not get to delete it. Either way
// the recovered index holds no locations in it.
func (s *Store) sweepOrphans(ctx context.Context) error {
	names, err := s.backend.List(ctx, store.NSContainers)
	if err != nil {
		return fmt.Errorf("dedup: list containers: %w", err)
	}
	for _, name := range names {
		id, ok := parseContainerName(name)
		if !ok {
			return fmt.Errorf("dedup: foreign blob %q in container namespace", name)
		}
		if _, live := s.containers[id]; !live {
			if err := s.backend.Delete(ctx, store.NSContainers, name); err != nil {
				return fmt.Errorf("dedup: sweep orphan container %d: %w", id, err)
			}
		}
	}
	return nil
}

// scrub cross-checks the recovered index against each sealed
// container's own packfile index, using ranged reads (footer + index
// section) so no container body is transferred. Every recovered
// location must exist in its container with matching offset and
// length, and the per-container live-byte accounting must agree.
func (s *Store) scrub(ctx context.Context) error {
	byContainer := make(map[uint64]map[fingerprint.Fingerprint]Location)
	for fp, loc := range s.index {
		if loc.Container == s.currentID {
			continue // open container: in memory, nothing to scrub
		}
		m := byContainer[loc.Container]
		if m == nil {
			m = make(map[fingerprint.Fingerprint]Location)
			byContainer[loc.Container] = m
		}
		m[fp] = loc
	}
	for id := range byContainer {
		if _, ok := s.containers[id]; !ok {
			return fmt.Errorf("dedup: scrub: index references dropped container %d", id)
		}
	}

	for id, info := range s.containers {
		entries, err := packfile.ReadIndex(ctx, s.backend, store.NSContainers, containerName(id))
		if err != nil {
			return fmt.Errorf("dedup: scrub container %d: %w", id, err)
		}
		have := make(map[fingerprint.Fingerprint]packfile.Entry, len(entries))
		for _, e := range entries {
			have[e.FP] = e
		}
		var liveSum uint64
		for fp, loc := range byContainer[id] {
			e, ok := have[fp]
			if !ok {
				return fmt.Errorf("dedup: scrub: container %d lacks chunk %s", id, fp.Short())
			}
			if e.Offset != uint64(loc.Offset) || e.Length != loc.Length {
				return fmt.Errorf("dedup: scrub: container %d chunk %s at [%d,+%d), index says [%d,+%d)",
					id, fp.Short(), e.Offset, e.Length, loc.Offset, loc.Length)
			}
			liveSum += uint64(loc.Length)
		}
		if liveSum != info.Live {
			return fmt.Errorf("dedup: scrub: container %d live bytes %d, accounting says %d",
				id, liveSum, info.Live)
		}
	}
	return nil
}

// snapshotScalars lists the fixed-width fields that open a snapshot
// body, in encoding order — one list, so EncodeSnapshot and
// DecodeSnapshot cannot disagree on it.
func (s *Store) snapshotScalars() []*uint64 {
	return []*uint64{
		&s.currentID,
		&s.stats.TotalPuts, &s.stats.DedupedPuts,
		&s.stats.LogicalBytes, &s.stats.PhysicalBytes,
		&s.stats.FreedChunks, &s.stats.FreedBytes,
		&s.stats.CompactedContainers, &s.openDead,
	}
}

// EncodeSnapshot writes the complete store state, sorted for
// determinism, as the body of the journal's checkpoint blob.
func (st *state) EncodeSnapshot(w *binenc.Writer) {
	s := (*Store)(st)
	for _, field := range s.snapshotScalars() {
		w.Uint64(*field)
	}

	fps := make([]fingerprint.Fingerprint, 0, len(s.index))
	for fp := range s.index {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return string(fps[i][:]) < string(fps[j][:]) })
	w.Uvarint(uint64(len(fps)))
	for _, fp := range fps {
		writeEntry(w, fp, s.index[fp])
		w.Uint32(s.refs[fp])
	}

	ids := make([]uint64, 0, len(s.containers))
	for id := range s.containers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		info := s.containers[id]
		w.Uint64(id)
		w.Uint64(info.Live)
		w.Uint64(info.Dead)
	}

	w.WriteBytes(s.current)
}

// DecodeSnapshot restores the state EncodeSnapshot wrote.
func (st *state) DecodeSnapshot(r *binenc.Reader) error {
	s := (*Store)(st)
	if err := readUint64s(r, s.snapshotScalars()...); err != nil {
		return err
	}

	count, err := r.Uvarint()
	if err != nil {
		return err
	}
	s.index = make(map[fingerprint.Fingerprint]Location, count)
	s.refs = make(map[fingerprint.Fingerprint]uint32, count)
	for i := uint64(0); i < count; i++ {
		fp, loc, err := readEntry(r)
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if s.refs[fp], err = r.Uint32(); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		s.index[fp] = loc
	}

	ccount, err := r.Uvarint()
	if err != nil {
		return err
	}
	s.containers = make(map[uint64]containerInfo, ccount)
	for i := uint64(0); i < ccount; i++ {
		var id uint64
		var info containerInfo
		if err := readUint64s(r, &id, &info.Live, &info.Dead); err != nil {
			return fmt.Errorf("container %d: %w", i, err)
		}
		s.containers[id] = info
	}

	open, err := r.ReadBytes()
	if err != nil {
		return err
	}
	s.current = append(s.current[:0], open...)
	return nil
}
