package dedup

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fingerprint"
	"repro/internal/store"
)

// Reference counting and garbage collection.
//
// Deduplication shares one stored copy among every file that references
// a chunk, so deletion must be reference-counted: a chunk's bytes may
// only be reclaimed when the last referencing file is gone. REED
// additionally gets *cryptographic* deletion for free — dropping a
// file's stub file and key state makes it unrecoverable immediately
// (the secure-deletion property the paper builds on [42]) — and this
// layer then reclaims the physical bytes once no file references the
// trimmed packages.
//
// Dead space accumulates inside sealed containers; when a container's
// dead fraction crosses compactionThreshold its live chunks are
// rewritten into the open container and the old blob is deleted. Every
// move is journaled (with the chunk bytes, since the destination is
// the memory-only open container) and the WAL is committed before the
// old blob is deleted, so a crash at any point either replays to the
// pre-compaction state (old blob still present) or to the
// post-compaction state (old blob swept as an orphan on recovery).

// compactionThreshold is the dead fraction beyond which a sealed
// container is rewritten.
const compactionThreshold = 0.5

// containerInfo tracks live/dead bytes per sealed container.
type containerInfo struct {
	Live uint64
	Dead uint64
}

// Deref drops one reference from the chunk. When the last reference
// goes, the chunk leaves the index and its bytes become dead space,
// possibly triggering compaction of its container. It returns the
// remaining reference count.
//
// Like Put, the mutation is journaled but not durable until Commit.
func (s *Store) Deref(ctx context.Context, fp fingerprint.Fingerprint) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//reed-vet:ignore lockguard — compaction rewrites containers under the index lock by design.
	left, err := s.derefLocked(ctx, fp, false)
	if err != nil {
		return 0, err
	}
	//reed-vet:ignore lockguard — WAL commit order must match application order; the write belongs in this critical section.
	return left, s.journal.AutoCommit(ctx)
}

// derefLocked implements Deref; with replay set it is also how a DEREF
// record is re-applied. Replay makes the same in-memory transitions —
// including the deterministic open-container squeeze — but never
// journals and never compacts sealed containers: a live compaction's
// effects are expressed by the MOVE/SEAL/DROP records that follow the
// DEREF in the log.
func (s *Store) derefLocked(ctx context.Context, fp fingerprint.Fingerprint, replay bool) (uint32, error) {
	loc, ok := s.index[fp]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownChunk, fp.Short())
	}
	if !replay {
		s.journal.Record(encodeFPRec(recDeref, fp))
	}
	refs := s.refs[fp]
	if refs > 1 {
		s.refs[fp] = refs - 1
		return refs - 1, nil
	}

	// Last reference: drop the chunk.
	delete(s.index, fp)
	delete(s.refs, fp)
	s.stats.PhysicalBytes -= uint64(loc.Length)
	s.stats.FreedChunks++
	s.stats.FreedBytes += uint64(loc.Length)

	if loc.Container == s.currentID {
		// Dead space in the open container is reclaimed by an in-place
		// rewrite once enough accumulates (it is already in memory).
		s.openDead += uint64(loc.Length)
		if s.openDead*2 >= uint64(s.containerSize) {
			s.compactOpenLocked()
		}
		return 0, nil
	}

	info := s.containers[loc.Container]
	info.Live -= uint64(loc.Length)
	info.Dead += uint64(loc.Length)
	s.containers[loc.Container] = info
	if total := info.Live + info.Dead; total > 0 && !replay &&
		float64(info.Dead)/float64(total) >= compactionThreshold {
		if err := s.compactLocked(ctx, loc.Container); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// Refs returns the current reference count of a chunk (0 if absent).
func (s *Store) Refs(fp fingerprint.Fingerprint) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[fp]
}

// compactOpenLocked rewrites the open container, dropping dead bytes.
// Chunks are repacked in offset order so the rewrite is deterministic:
// WAL replay re-runs this squeeze and must reproduce the exact byte
// layout the live run had.
func (s *Store) compactOpenLocked() {
	live := make([]byte, 0, len(s.current))
	for _, e := range s.openEntriesLocked() {
		data := s.current[e.loc.Offset : e.loc.Offset+e.loc.Length]
		s.index[e.fp] = Location{
			Container: s.currentID,
			Offset:    uint32(len(live)),
			Length:    e.loc.Length,
		}
		live = append(live, data...)
	}
	s.current = append(s.current[:0], live...)
	s.openDead = 0
}

// compactLocked rewrites a sealed container's live chunks into the open
// container and deletes the old blob. Caller holds s.mu; compaction is
// rare enough that keeping it while reading the backend is fine, and a
// cache miss here skips the singleflight table so a concurrent Get's
// fetch never ends up waited on from under s.mu.
//
// Durability order matters: every move and the container drop are
// journaled and committed *before* the old blob is deleted. Replay of
// a committed compaction rebuilds the moved chunks from the MOVE
// records' payloads and the orphan sweep removes the stale blob; a
// crash before the commit leaves the old blob in place and the index
// still pointing at it.
func (s *Store) compactLocked(ctx context.Context, id uint64) error {
	s.cacheMu.Lock()
	body, cached := s.readCache[id]
	s.cacheMu.Unlock()
	if !cached {
		var err error
		body, err = s.fetchContainer(ctx, id)
		if err != nil {
			return fmt.Errorf("dedup: compact: %w", err)
		}
	} else {
		// Copy out: the cache entry is shared with concurrent readers and
		// the invalidation below drops it.
		body = append([]byte(nil), body...)
	}

	// Collect the container's live chunks sorted by offset; map order
	// would re-pack them differently on every run, and the MOVE records
	// must describe one canonical layout.
	type moved struct {
		fp  fingerprint.Fingerprint
		loc Location
	}
	var liveChunks []moved
	for fp, loc := range s.index {
		if loc.Container == id {
			liveChunks = append(liveChunks, moved{fp, loc})
		}
	}
	sort.Slice(liveChunks, func(i, j int) bool { return liveChunks[i].loc.Offset < liveChunks[j].loc.Offset })

	for _, m := range liveChunks {
		data := body[m.loc.Offset : m.loc.Offset+m.loc.Length]
		// Seal the open container first if this chunk would overflow
		// it (sealLocked advances currentID, keeping locations valid).
		if len(s.current)+len(data) > s.containerSize && len(s.current) > 0 {
			if err := s.sealLocked(ctx); err != nil {
				return err
			}
		}
		newLoc := Location{
			Container: s.currentID,
			Offset:    uint32(len(s.current)),
			Length:    m.loc.Length,
		}
		s.journal.Record(encodeChunkRec(recMove, m.fp, newLoc, data))
		s.applyMove(m.fp, newLoc, data)
	}

	s.journal.Record(encodeDropRec(id))
	s.applyDrop(id)
	s.cacheInvalidate(id)

	// The WAL must hold the committed moves before the only other copy
	// of those chunks disappears.
	if err := s.journal.Sync(ctx); err != nil {
		return err
	}
	if err := s.backend.Delete(ctx, store.NSContainers, containerName(id)); err != nil {
		return fmt.Errorf("dedup: delete compacted container: %w", err)
	}
	return nil
}

// applyMove applies a compaction move to in-memory state; shared by the
// live path and WAL replay. loc must address the tail of the open
// container. Refcounts and put/free statistics are untouched — the
// chunk merely changed address.
func (s *Store) applyMove(fp fingerprint.Fingerprint, loc Location, data []byte) {
	s.index[fp] = loc
	s.current = append(s.current, data...)
}

// applyDrop applies a container drop to in-memory state; shared by the
// live path and WAL replay.
func (s *Store) applyDrop(id uint64) {
	delete(s.containers, id)
	s.stats.CompactedContainers++
}
