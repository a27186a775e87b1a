package dedup

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/fingerprint"
	"repro/internal/packfile"
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
// Dead space accumulates inside containers. Chunks freed while their
// container is still open leave gaps that sealing keeps (the open
// container's committed bytes are never rewritten), so they count as
// the sealed container's dead space; chunks freed later add to it. When
// a container's dead fraction reaches compactionThreshold its live
// chunks are moved into the open container and the old blob is
// deleted. Each move is journaled as a MOVE record naming the chunk's
// new location, and the commit point — the open container's tail, then
// the WAL — runs before the old blob is deleted, so a crash at any
// point either replays to the pre-compaction state (old blob still
// present) or to the post-compaction state (old blob swept as an orphan
// on recovery). An open container whose dead bytes reach half its
// capacity is sealed, and so compacted, at once.

// compactionThreshold is the dead fraction beyond which a sealed
// container is rewritten.
const compactionThreshold = 0.5

// containerInfo tracks live/dead bytes per sealed container.
type containerInfo struct {
	Live uint64
	Dead uint64
}

// compactable reports whether the container's dead fraction has
// reached compactionThreshold.
func (info containerInfo) compactable() bool {
	total := info.Live + info.Dead
	return total > 0 && float64(info.Dead)/float64(total) >= compactionThreshold
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
// record is re-applied. Replay makes the same accounting transitions
// but never journals, never seals and never compacts: a live seal's or
// compaction's effects are expressed by the SEAL/MOVE/DROP records that
// follow the DEREF in the log.
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
		s.openDead += uint64(loc.Length)
		if s.openDead*2 < uint64(s.containerSize) {
			return 0, nil
		}
		switch {
		case !replay:
			// Half the capacity is dead: seal, which queues the
			// container for compaction.
			if err := s.sealLocked(ctx); err != nil {
				return 0, err
			}
			return 0, s.compactQueuedLocked(ctx)
		case s.legacy:
			s.squeezeLegacyOpen()
		}
		return 0, nil
	}

	info := s.containers[loc.Container]
	info.Live -= uint64(loc.Length)
	info.Dead += uint64(loc.Length)
	s.containers[loc.Container] = info
	if !replay && info.compactable() {
		s.compactions = append(s.compactions, compaction{id: loc.Container})
		return 0, s.compactQueuedLocked(ctx)
	}
	return 0, nil
}

// Refs returns the current reference count of a chunk (0 if absent).
func (s *Store) Refs(fp fingerprint.Fingerprint) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[fp]
}

// compaction is a sealed container due for compaction. entries and
// body are its packfile index and body when seal has them at hand; nil
// fetches them.
type compaction struct {
	id      uint64
	entries []packfile.Entry
	body    []byte
}

// compactQueuedLocked runs every queued compaction, one after another.
// A compaction never runs another from inside: a move that fills the
// open container seals it, and a seal only queues. Were the nested one
// to run at once, its commit point would make the outer compaction's
// moves durable without the outer DROP, and a crash there would
// recover live-byte accounting for the outer container that the index
// no longer matches, which Open's scrub refuses.
func (s *Store) compactQueuedLocked(ctx context.Context) error {
	for len(s.compactions) > 0 {
		c := s.compactions[0]
		s.compactions = slices.Delete(s.compactions, 0, 1) // drops the body
		if err := s.compactLocked(ctx, c.id, c.entries, c.body); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked moves a sealed container's live chunks into the open
// container and deletes its blob. entries and body are the container's
// packfile index and body, or nil to fetch them. A live chunk is an
// entry whose index location still names this container — the packfile
// index lists every chunk sealed into it, so no scan of the whole index
// is needed. Caller holds s.mu;
// compaction is rare enough that keeping it while reading the backend
// is fine, and a cache miss here skips the singleflight table so a
// concurrent Get's fetch never ends up waited on from under s.mu.
//
// Durability order matters: every move and the container drop are
// journaled and committed *before* the old blob is deleted. Replay of
// a committed compaction re-points the moved chunks at the open
// container, whose blob the commit point wrote first, and the orphan
// sweep removes the stale blob; a crash before the commit leaves the
// old blob in place and the index still pointing at it.
func (s *Store) compactLocked(ctx context.Context, id uint64, entries []packfile.Entry, body []byte) error {
	if _, ok := s.containers[id]; !ok {
		return nil // queued twice after a failed compaction; done already
	}
	if body == nil {
		var err error
		if entries, body, err = s.containerContents(ctx, id); err != nil {
			return fmt.Errorf("dedup: compact: %w", err)
		}
	}
	for _, e := range entries {
		if s.index[e.FP] != (Location{Container: id, Offset: uint32(e.Offset), Length: e.Length}) {
			continue // freed, or freed and stored again elsewhere
		}
		data := body[e.Offset : e.Offset+uint64(e.Length)]
		// Sealing the open container advances currentID, so take the
		// new location after sealing. The seal's own compaction, if
		// any, waits in the queue until this one is durable.
		if s.overflows(len(data)) {
			if err := s.sealLocked(ctx); err != nil {
				return err
			}
		}
		loc := s.nextLocation(len(data))
		s.journal.Record(encodeLocRec(recMove, e.FP, loc))
		s.applyMove(e.FP, loc, data)
	}

	s.journal.Record(encodeDropRec(id))
	s.applyDrop(id)
	s.cacheInvalidate(id)

	// The moved chunks' new home and the records naming it must be
	// durable before the only other copy of those chunks disappears.
	if err := s.journal.Sync(ctx); err != nil {
		return err
	}
	if err := s.backend.Delete(ctx, store.NSContainers, containerName(id)); err != nil {
		return fmt.Errorf("dedup: delete compacted container: %w", err)
	}
	return nil
}

// containerContents returns a sealed container's packfile index and
// body: from the read cache plus a ranged index read when cached, else
// from one verified fetch.
func (s *Store) containerContents(ctx context.Context, id uint64) ([]packfile.Entry, []byte, error) {
	s.cacheMu.Lock()
	body, cached := s.readCache[id]
	s.cacheMu.Unlock()
	if cached {
		entries, err := packfile.ReadIndex(ctx, s.backend, store.NSContainers, containerName(id))
		return entries, body, err
	}
	return s.fetchContainer(ctx, id)
}

// applyMove applies a compaction move to in-memory state; shared by the
// live path and WAL replay. loc must address the tail of the open
// container. Refcounts and put/free statistics are untouched — the
// chunk merely changed address.
func (s *Store) applyMove(fp fingerprint.Fingerprint, loc Location, data []byte) {
	s.appendOpen(fp, loc, data)
}

// applyDrop applies a container drop to in-memory state; shared by the
// live path and WAL replay.
func (s *Store) applyDrop(id uint64) {
	delete(s.containers, id)
	s.stats.CompactedContainers++
}
