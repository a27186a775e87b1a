package dedup

// The store as a wal.State, and what recovery checks afterwards.
//
// Every mutation of the dedup state is expressed as one WAL record;
// recovery is "snapshot + replay": the journal (wal.OpenJournal) loads
// the last checkpoint snapshot and re-applies the records journaled
// after it, then the store reads the open container's committed bytes
// back from its blob and verifies the result against the containers
// actually present in the backend. Records carry no chunk bytes: the
// snapshot records the open container's committed length, each PUT and
// MOVE extends it, and the bytes are the blob's.
//
// Record kinds:
//
//	PUT   fp, location   new chunk appended to the open container
//	REF   fp             duplicate put (refcount + stats only)
//	DEREF fp             one reference dropped
//	SEAL  id, liveBytes  open container id sealed in place
//	MOVE  fp, location   compaction moved a chunk into the open container
//	DROP  id             compacted container id left the container map
//
// Orderings that recovery relies on:
//
//   - the commit point writes the open container's tail before the WAL
//     batch whose PUT/MOVE records name it, so a durable record never
//     points past the blob's durable bytes (a blob that is shorter
//     anyway fails Open loudly);
//   - bytes past the committed length — a torn tail, or the index and
//     footer of a seal whose SEAL record was lost — are never read, and
//     the next commit overwrites them;
//   - a container is sealed in place before its SEAL record is
//     journaled, so replay never seals a container the backend lacks;
//   - compaction commits its MOVE/DROP records before deleting the old
//     container blob, so a moved chunk always has a durable home;
//   - the checkpoint snapshot is one atomic backend Put, and the WAL
//     is truncated only after it lands (wal.Journal.Checkpoint).
//
// Stores written before snapshot version 4, whose snapshot and records
// carried chunk bytes, are a retired layout: Open refuses them with
// wal.ErrRetiredLayout, which names the upgrade step.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
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

// snapshotVersion guards the checkpoint encoding. Version 4 records
// the open container's committed length where version 3 embedded its
// bytes.
const snapshotVersion = 4

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

// state is *Store as the journal sees it: the wal.State methods
// (Apply, EncodeSnapshot, DecodeSnapshot, Unstaged and Stage below),
// kept off Store's exported surface because they assume s.mu is held.
type state Store

// Unstaged is the open container's uncommitted byte count.
func (st *state) Unstaged() int {
	s := (*Store)(st)
	return len(s.current) - max(s.committed, packfile.HeaderSize)
}

// Stage writes the open container's uncommitted tail to its blob: the
// first half of the store's commit point, which the journal runs before
// every WAL batch and snapshot, so PUT and MOVE records only ever
// become durable after the bytes they name. The blob is created by the
// first write, header included; nothing below committed is rewritten.
func (st *state) Stage(ctx context.Context) error {
	s := (*Store)(st)
	if s.committed == len(s.current) || s.openBodyLen() == 0 {
		return nil
	}
	return s.writeTailLocked(ctx, s.current)
}

// Fold has nothing to write: the snapshot carries the whole index.
func (st *state) Fold(context.Context) error { return nil }

// encodeLocRec encodes a PUT or MOVE record: the chunk and its new
// location, not its bytes.
func encodeLocRec(kind uint8, fp fingerprint.Fingerprint, loc Location) []byte {
	w := binenc.NewWriter(1 + fingerprint.Size + 16)
	w.Uint8(kind)
	writeEntry(w, fp, loc)
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
		if loc.Container != s.currentID || int(loc.Offset) != s.openBodyLen() {
			return fmt.Errorf("dedup: replay: record for %s does not extend the open container (%+v, open %d/%d)",
				fp.Short(), loc, s.currentID, s.openBodyLen())
		}
		if kind == recPut {
			if _, exists := s.index[fp]; exists {
				return fmt.Errorf("dedup: replay: duplicate PUT for %s", fp.Short())
			}
			s.applyPut(fp, loc, nil)
		} else {
			if _, exists := s.index[fp]; !exists {
				return fmt.Errorf("dedup: replay: MOVE of unknown chunk %s", fp.Short())
			}
			s.applyMove(fp, loc, nil)
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
		if have := uint64(s.openBodyLen()) - s.openDead; have != live {
			return fmt.Errorf("dedup: replay: SEAL of %d live bytes but open container has %d", live, have)
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

// loadOpen finishes recovery of the open container once replay is
// done: its committed prefix is read back from the blob with one ranged
// read, and a blob shorter than the journal says fails Open. Every live
// open chunk is then checked against its fingerprint, and its checksum
// taken for the packfile index that seal writes.
func (s *Store) loadOpen(ctx context.Context) error {
	if s.openBodyLen() > 0 {
		name := containerName(s.currentID)
		blob, err := s.backend.GetRange(ctx, store.NSContainers, name, 0, int64(len(s.current)))
		if err != nil {
			return fmt.Errorf("dedup: open container %d does not hold the %d bytes the journal committed: %w",
				s.currentID, s.openBodyLen(), err)
		}
		if !bytes.Equal(blob[:packfile.HeaderSize], s.current[:packfile.HeaderSize]) {
			return fmt.Errorf("dedup: open container %d: %w: bad header", s.currentID, packfile.ErrCorrupt)
		}
		copy(s.current, blob)
		s.committed = len(s.current)
	}
	entries := s.liveOpenEntries()
	for i := range entries {
		e := &entries[i]
		data := s.current[packfile.HeaderSize+e.Offset:][:e.Length]
		if fingerprint.New(data) != e.FP {
			return fmt.Errorf("dedup: open container %d: chunk %s at %d fails verification",
				s.currentID, e.FP.Short(), e.Offset)
		}
		e.CRC = crc32.ChecksumIEEE(data)
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
// not own: one opened or sealed past the recovered open container
// before the crash, one whose committed compaction did not get to
// delete it, or a stale blob under the open container's name while it
// holds nothing. The recovered index holds no locations in any of
// them. The open container's blob, bytes past the committed length
// and all, is kept: the next commit point overwrites the excess.
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
		if _, live := s.containers[id]; !live && (id != s.currentID || s.openBodyLen() == 0) {
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
			continue // open container: verified by loadOpen
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

	// The commit point that triggered the checkpoint wrote the whole
	// open container first, so its length is the committed length.
	w.Uint64(uint64(s.openBodyLen()))
}

// DecodeSnapshot restores the state EncodeSnapshot wrote. The open
// container's bytes are loadOpen's to read.
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

	committed, err := r.Uint64()
	if err != nil {
		return err
	}
	if committed > math.MaxUint32 {
		return fmt.Errorf("open container length %d", committed)
	}
	s.current = append(s.current[:packfile.HeaderSize], make([]byte, committed)...)
	s.openEntries = s.openEntries[:0]
	// The open container's chunks, in offset order, as appends would
	// have listed them. Checksums are loadOpen's to fill in.
	for fp, loc := range s.index {
		if loc.Container != s.currentID {
			continue
		}
		if uint64(loc.Offset)+uint64(loc.Length) > uint64(s.openBodyLen()) {
			return fmt.Errorf("chunk %s lies past the open container's %d bytes", fp.Short(), s.openBodyLen())
		}
		s.openEntries = append(s.openEntries, packfile.Entry{FP: fp, Offset: uint64(loc.Offset), Length: loc.Length})
	}
	slices.SortFunc(s.openEntries, func(a, b packfile.Entry) int { return cmp.Compare(a.Offset, b.Offset) })
	return nil
}
