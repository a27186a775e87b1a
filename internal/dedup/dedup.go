// Package dedup implements server-side deduplication of trimmed packages:
// the fingerprint index plus the 4 MB container packing REED's servers
// use before writing to the storage backend (Section V-B, "Batching").
//
// Each unique trimmed package is appended to the open container, whose
// blob in the backend is a packfile (see internal/packfile) in the
// making: the header, then the chunk bytes back to back. Sealing a full
// container appends the packfile index and footer to that same blob, so
// every chunk byte is written to the backend once. The index maps each
// fingerprint to its container and offset. Duplicate puts touch only
// the index.
//
// # Durability
//
// The store is a wal.State: every index, refcount and container
// mutation is one record handed to a wal.Journal under the store lock.
// Records carry fingerprints and locations, never chunk bytes: the open
// container's blob is the only durable copy of a new chunk. Commit is
// the store's one commit point and runs in a fixed order: first the
// open container's uncommitted tail is written to its blob
// (store.Backend.WriteAt, durable on return), then the buffered records
// as one WAL batch. A record therefore only ever becomes durable after
// the bytes it names, and no write touches bytes below the committed
// length. The storage server's dispatch commits after every handler
// that dirtied the store and before it forms the reply, so an
// acknowledged upload survives kill -9. Buffering, batch writes, the
// checkpoint snapshot's envelope, log truncation and the
// snapshot-then-replay order of recovery are the journal's; this
// package supplies the record and snapshot body encodings (recovery.go)
// and, after the journal has rebuilt the index, reads back the open
// container's committed prefix, sweeps orphaned container blobs and
// scrubs every sealed container's packfile index. See DESIGN.md §9.
package dedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/packfile"
	"repro/internal/store"
	"repro/internal/wal"
)

// DefaultContainerSize is the paper's container/batch size: 4 MB.
const DefaultContainerSize = 4 << 20

// readCacheContainers bounds the container read cache; restores read
// containers mostly sequentially, so a handful suffices.
const readCacheContainers = 8

// ErrUnknownChunk is returned by Get for fingerprints never stored.
var ErrUnknownChunk = errors.New("dedup: unknown chunk")

// Location records where a chunk lives.
type Location struct {
	Container uint64
	Offset    uint32
	Length    uint32
}

// Stats counts deduplication activity. LogicalBytes counts every put;
// PhysicalBytes counts only unique data currently stored.
type Stats struct {
	TotalPuts     uint64
	DedupedPuts   uint64
	LogicalBytes  uint64
	PhysicalBytes uint64

	// Garbage collection counters (see gc.go).
	FreedChunks         uint64
	FreedBytes          uint64
	CompactedContainers uint64
}

// SavingsRatio returns 1 - physical/logical, the paper's storage-saving
// metric.
func (s Stats) SavingsRatio() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(s.PhysicalBytes)/float64(s.LogicalBytes)
}

// Store deduplicates chunks into containers on a backend. It is safe for
// concurrent use.
//
// Two locks split the hot paths so concurrent server handlers
// parallelize. s.mu guards the mutable dedup state (index, refs, open
// container, accounting, journal, write census); cacheMu guards the
// sealed-container read cache and the singleflight table. Get never holds s.mu across a
// backend container fetch — it snapshots the chunk's location under s.mu,
// fetches the (immutable) sealed container under cacheMu/singleflight,
// and retries from the index if a concurrent compaction deleted the
// container in between. Lock order: s.mu before cacheMu, never the
// reverse.
type Store struct {
	mu            sync.Mutex
	backend       store.Backend
	containerSize int

	index map[fingerprint.Fingerprint]Location
	refs  map[fingerprint.Fingerprint]uint32

	// The open container, currentID. current is its blob image: the
	// packfile header, then every chunk appended since it opened, dead
	// ones included (openDead bytes). Its first committed bytes are
	// durable in the blob; the rest reach it at the next commit point.
	// committed is 0 while the blob does not exist. openEntries lists
	// the appended chunks in offset order with their checksums, so
	// sealing indexes the live ones without scanning the whole index.
	current     []byte
	committed   int
	openEntries []packfile.Entry
	currentID   uint64
	openDead    uint64
	stats       Stats

	// legacy and metaLog are set while Open replays: the open
	// container's bytes came from a version-3 snapshot or data-carrying
	// records (legacy), or the snapshot or log is the metadata-only
	// format (metaLog). One recovery never mixes the two.
	legacy, metaLog bool

	// census counts backend writes for WriteCensus.
	census WriteCensus

	// containers tracks live/dead bytes per sealed container for
	// compaction decisions; compactions queues the ones due (gc.go).
	containers  map[uint64]containerInfo
	compactions []compaction

	// journal makes the state above durable (see recovery.go). It is
	// nil while Open replays: replay paths never journal.
	journal *wal.Journal

	cacheMu   sync.Mutex
	readCache map[uint64][]byte
	readOrder []uint64 // FIFO eviction
	inflight  map[uint64]*fetchCall

	// Point-read → full-fetch promotion heuristic (guarded by cacheMu):
	// a single cache miss is served by a GetRange point read of just
	// the chunk, but consecutive misses on the same container signal a
	// sequential restore, so the second miss fetches and caches the
	// whole container.
	lastMissID    uint64
	lastMissCount int
}

// fetchCall is an in-flight backend container read shared by concurrent
// Gets (singleflight): followers wait on done instead of issuing a
// duplicate backend read.
type fetchCall struct {
	done chan struct{}
	body []byte
	err  error
}

// WriteCensus counts what a store has written to its backend since
// Open: the write-amplification account of the durable write path.
type WriteCensus struct {
	// ContainerBytes counts container blob bytes: open-container tails,
	// and the index and footer each seal appends.
	ContainerBytes uint64
	// WALBytes and Commits count WAL batches and their bytes.
	WALBytes, Commits uint64
	// Seals and Checkpoints count sealed containers and snapshots.
	Seals, Checkpoints uint64
}

// Open loads a dedup store over the backend, recovering any persisted
// state: checkpoint snapshot, then WAL replay (a torn last batch of the
// final segment tolerated), then a read-back of the open container's
// committed prefix, an orphaned-container sweep and a packfile-index
// scrub of every sealed container.
func Open(ctx context.Context, backend store.Backend, containerSize int) (*Store, error) {
	if containerSize <= 0 {
		containerSize = DefaultContainerSize
	}
	s := &Store{
		backend:       backend,
		containerSize: containerSize,
		index:         make(map[fingerprint.Fingerprint]Location),
		refs:          make(map[fingerprint.Fingerprint]uint32),
		current:       packfile.AppendHeader(make([]byte, 0, packfile.HeaderSize+containerSize)),
		readCache:     make(map[uint64][]byte),
		inflight:      make(map[uint64]*fetchCall),
		containers:    make(map[uint64]containerInfo),
	}
	// Nothing below takes s.mu: the store is not shared until Open returns.
	var err error
	if s.journal, err = wal.OpenJournal(ctx, backend, journalSpec(containerSize), (*state)(s)); err != nil {
		return nil, err
	}
	if err := s.loadOpen(ctx); err != nil {
		return nil, err
	}
	if err := s.sweepOrphans(ctx); err != nil {
		return nil, err
	}
	if err := s.scrub(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// Put stores a chunk if new. It returns true when the chunk was a
// duplicate (index hit, nothing written).
//
// Replaying a Put — a client re-sending an upload batch after a
// connection fault, unsure whether the first delivery landed — is
// byte-idempotent: the duplicate path stores nothing, PhysicalBytes is
// unchanged, and a later Get returns the same bytes. The only effect is
// one extra reference on the chunk, so the failure mode of a replay is
// over-retention (the chunk outlives its last real reference until a
// matching Deref), never corruption or premature reclamation. This is
// the invariant the client's upload pipeline relies on when it re-sends
// batches whose connection died mid-flight.
//
// The mutation is journaled but not yet durable when Put returns; call
// Commit before acknowledging the batch to the client.
func (s *Store) Put(ctx context.Context, fp fingerprint.Fingerprint, data []byte) (bool, error) {
	if len(data) == 0 {
		return false, errors.New("dedup: empty chunk")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	_, dup := s.index[fp]
	if dup {
		s.applyRef(fp)
		s.journal.Record(encodeFPRec(recRef, fp))
	} else {
		if err := s.makeRoomLocked(ctx, len(data)); err != nil {
			return false, err
		}
		loc := s.nextLocation(len(data))
		s.applyPut(fp, loc, data)
		s.journal.Record(encodeLocRec(recPut, fp, loc))
	}
	//reed-vet:ignore lockguard — WAL commit order must match application order; the write belongs in this critical section.
	return dup, s.journal.AutoCommit(ctx)
}

// makeRoomLocked seals the open container while n more bytes would
// overflow it, running the compaction a seal may queue; its moves can
// fill the next open container, hence the loop. A chunk larger than a
// whole container still gets one to itself.
func (s *Store) makeRoomLocked(ctx context.Context, n int) error {
	for s.overflows(n) {
		if err := s.sealLocked(ctx); err != nil {
			return err
		}
		if err := s.compactQueuedLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// overflows reports whether appending n bytes to a nonempty open
// container would take it past the container size.
func (s *Store) overflows(n int) bool {
	body := s.openBodyLen()
	return body > 0 && body+n > s.containerSize
}

// openBodyLen is the open container's body length, dead bytes included.
func (s *Store) openBodyLen() int { return len(s.current) - packfile.HeaderSize }

// nextLocation is where an n-byte chunk appended now would live.
func (s *Store) nextLocation(n int) Location {
	return Location{Container: s.currentID, Offset: uint32(s.openBodyLen()), Length: uint32(n)}
}

// Ref adds one reference to an already-stored chunk without carrying
// its bytes — the two-phase upload's data-free duplicate put (the
// RefChunks RPC). It reports whether the chunk was present: present
// takes exactly the Put duplicate branch (accounting, refcount, REF
// record — so the dedup stats cannot tell a filtered warm upload from
// a full re-upload); absent is a no-op returning false, and the caller
// must fall back to sending the bytes. Like Put, the mutation is
// journaled but not durable until Commit.
func (s *Store) Ref(ctx context.Context, fp fingerprint.Fingerprint) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[fp]; !ok {
		return false, nil
	}
	s.applyRef(fp)
	s.journal.Record(encodeFPRec(recRef, fp))
	//reed-vet:ignore lockguard — WAL commit order must match application order; the write belongs in this critical section.
	return true, s.journal.AutoCommit(ctx)
}

// applyRef applies a duplicate-put to in-memory state; shared by the
// live path and WAL replay.
func (s *Store) applyRef(fp fingerprint.Fingerprint) {
	s.stats.TotalPuts++
	s.stats.LogicalBytes += uint64(s.index[fp].Length)
	s.stats.DedupedPuts++
	s.refs[fp]++
}

// applyPut applies a new-chunk put to in-memory state; shared by the
// live path and WAL replay. loc must address the tail of the open
// container.
func (s *Store) applyPut(fp fingerprint.Fingerprint, loc Location, data []byte) {
	s.stats.TotalPuts++
	s.stats.LogicalBytes += uint64(loc.Length)
	s.appendOpen(fp, loc, data)
	s.refs[fp] = 1
	s.stats.PhysicalBytes += uint64(loc.Length)
}

// appendOpen appends a chunk at loc, the tail of the open container,
// and points the index at it. Replay of a metadata-only record passes
// nil data: the bytes are in the open container's blob, and loadOpen
// reads them back once replay is done.
func (s *Store) appendOpen(fp fingerprint.Fingerprint, loc Location, data []byte) {
	if data == nil {
		s.current = append(s.current, make([]byte, loc.Length)...)
	} else {
		s.current = append(s.current, data...)
	}
	s.openEntries = append(s.openEntries, packfile.Entry{
		FP: fp, Offset: uint64(loc.Offset), Length: loc.Length, CRC: crc32.ChecksumIEEE(data),
	})
	s.index[fp] = loc
}

// Commit makes every journaled mutation since the previous Commit
// durable: the journal stages the open container's tail (state.Stage),
// appends one WAL batch, and checkpoints once the log has grown past
// its threshold. The server calls this before
// acknowledging a chunk batch; until then the mutations exist only in
// memory and an unlucky crash forgets them — which is correct, because
// the client has not been told they landed.
func (s *Store) Commit(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//reed-vet:ignore lockguard — WAL commit order must match application order; the write belongs in this critical section.
	return s.journal.Commit(ctx)
}

// writeTailLocked writes image[committed:] to the open container's
// blob, where image is the open container's blob image, possibly with
// more bytes appended (seal's index and footer).
func (s *Store) writeTailLocked(ctx context.Context, image []byte) error {
	tail := image[s.committed:]
	if err := s.backend.WriteAt(ctx, store.NSContainers, containerName(s.currentID), int64(s.committed), tail); err != nil {
		return fmt.Errorf("dedup: write container %d: %w", s.currentID, err)
	}
	s.census.ContainerBytes += uint64(len(tail))
	s.committed = len(image)
	return nil
}

// ContainerCount returns how many containers currently hold data: the
// sealed containers plus the open one when it is nonempty.
func (s *Store) ContainerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.containers)
	if s.openBodyLen() > 0 {
		n++
	}
	return n
}

// UniqueChunks returns the number of distinct chunks in the index.
func (s *Store) UniqueChunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// RefInflation returns the number of references in excess of one per
// stored chunk. Dedup hits from distinct files raise it legitimately;
// replayed PutChunks batches (connection faults mid-upload) raise it
// spuriously — either way it bounds how much reclamation is deferred by
// outstanding references, which makes it worth watching on a long-lived
// deployment.
func (s *Store) RefInflation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, c := range s.refs {
		total += uint64(c)
	}
	stored := uint64(len(s.index))
	if total < stored {
		return 0
	}
	return total - stored
}

// Has reports whether the chunk is stored.
func (s *Store) Has(fp fingerprint.Fingerprint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[fp]
	return ok
}

// Get returns the stored chunk for fp. The backend fetch of a sealed
// container happens outside s.mu, so concurrent Gets (and Puts) overlap.
//
// The returned slice must be treated as read-only, and stays valid for
// as long as the caller holds it: it is a sub-slice of an immutable
// sealed container body (cached or being fetched), a dedicated
// point-read buffer, or a fresh copy of open-container bytes. Nothing
// writes a sealed body after it is decoded — eviction and compaction
// only drop the cache's reference — so the server's GetChunks reply
// hands these slices to its connection writer, which sends them after
// the handler has returned, without another copy.
func (s *Store) Get(ctx context.Context, fp fingerprint.Fingerprint) ([]byte, error) {
	// A retry means a compaction deleted the container between our index
	// read and the backend fetch; the chunk has moved, so re-reading the
	// index finds its new home. Two compactions racing the same Get is
	// already vanishingly rare — the bound only guards against a bug
	// turning into a spin.
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		loc, ok := s.index[fp]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrUnknownChunk, fp.Short())
		}
		if loc.Container == s.currentID {
			// Open container: copy while s.mu pins it (the open buffer
			// keeps growing, so aliasing it would race appends).
			out, err := sliceChunk(s.current[packfile.HeaderSize:], fp, loc)
			out = bytes.Clone(out)
			s.mu.Unlock()
			return out, err
		}
		s.mu.Unlock()

		data, err := s.sealedChunk(ctx, fp, loc)
		if errors.Is(err, store.ErrNotFound) && attempt < 4 {
			continue
		}
		if err != nil {
			return nil, err
		}
		return data, nil
	}
}

// sealedChunk returns the chunk at loc from its sealed container.
// Sealed containers are immutable (compaction copies live chunks
// elsewhere and deletes the blob, never rewrites it), so a cache hit
// returns a zero-copy sub-slice of the cached body. A cold container is
// served by a GetRange point read (pread) of just the chunk — restores
// of a few chunks never drag whole 4 MB containers through memory — and
// consecutive misses on one container promote to a full fetch + cache,
// the sequential-restore pattern the read cache exists for.
func (s *Store) sealedChunk(ctx context.Context, fp fingerprint.Fingerprint, loc Location) ([]byte, error) {
	id := loc.Container
	s.cacheMu.Lock()
	if body, ok := s.readCache[id]; ok {
		s.cacheMu.Unlock()
		return sliceChunk(body, fp, loc)
	}
	if call, ok := s.inflight[id]; ok {
		// A full fetch is already under way; joining it is cheaper than
		// a competing point read.
		s.cacheMu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, call.err
		}
		return sliceChunk(call.body, fp, loc)
	}
	promote := false
	if s.lastMissID == id {
		s.lastMissCount++
		promote = s.lastMissCount >= 2
	} else {
		s.lastMissID, s.lastMissCount = id, 1
	}
	s.cacheMu.Unlock()

	if promote {
		body, err := s.sealedContainer(ctx, id)
		if err != nil {
			return nil, err
		}
		return sliceChunk(body, fp, loc)
	}

	// Point read: the chunk's bytes sit at a fixed offset past the
	// packfile header. This skips the packfile's per-chunk checksum, so
	// the fingerprint check below stands in for it — stronger, in fact,
	// since the fingerprint is what the client addresses by.
	data, err := s.backend.GetRange(ctx, store.NSContainers, containerName(id),
		packfile.HeaderSize+int64(loc.Offset), int64(loc.Length))
	if err != nil {
		return nil, fmt.Errorf("dedup: read chunk %s from container %d: %w", fp.Short(), id, err)
	}
	if fingerprint.New(data) != fp {
		return nil, fmt.Errorf("dedup: chunk %s failed point-read verification", fp.Short())
	}
	return data, nil
}

// sliceChunk bounds-checks loc against an immutable container body and
// returns the aliasing sub-slice.
func sliceChunk(body []byte, fp fingerprint.Fingerprint, loc Location) ([]byte, error) {
	end := int(loc.Offset) + int(loc.Length)
	if end > len(body) {
		return nil, fmt.Errorf("dedup: corrupt location for %s", fp.Short())
	}
	return body[loc.Offset:end:end], nil
}

// sealedContainer returns a sealed container's decoded body from the
// read cache, joining an in-flight fetch when one exists. The backend
// read itself runs outside every store lock; the packfile decode
// verifies every chunk checksum, so a corrupted container blob is
// detected here rather than served.
func (s *Store) sealedContainer(ctx context.Context, id uint64) ([]byte, error) {
	s.cacheMu.Lock()
	if body, ok := s.readCache[id]; ok {
		s.cacheMu.Unlock()
		return body, nil
	}
	if call, ok := s.inflight[id]; ok {
		s.cacheMu.Unlock()
		<-call.done
		return call.body, call.err
	}
	call := &fetchCall{done: make(chan struct{})}
	s.inflight[id] = call
	s.cacheMu.Unlock()

	_, body, err := s.fetchContainer(ctx, id)
	call.body, call.err = body, err

	s.cacheMu.Lock()
	delete(s.inflight, id)
	if err == nil {
		s.cacheInsertLocked(id, body)
	}
	s.cacheMu.Unlock()
	close(call.done)
	return body, err
}

// fetchContainer reads and fully verifies one sealed container
// packfile, returning its index and body.
func (s *Store) fetchContainer(ctx context.Context, id uint64) ([]packfile.Entry, []byte, error) {
	blob, err := s.backend.Get(ctx, store.NSContainers, containerName(id))
	if err != nil {
		return nil, nil, fmt.Errorf("dedup: load container %d: %w", id, err)
	}
	entries, body, err := packfile.Decode(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("dedup: container %d: %w", id, err)
	}
	return entries, body, nil
}

// cacheInsertLocked adds a container body to the read cache (caller
// holds cacheMu), evicting the oldest entry beyond the cap.
func (s *Store) cacheInsertLocked(id uint64, body []byte) {
	if _, ok := s.readCache[id]; ok {
		return
	}
	s.readCache[id] = body
	s.readOrder = append(s.readOrder, id)
	if len(s.readOrder) > readCacheContainers {
		evict := s.readOrder[0]
		s.readOrder = s.readOrder[1:]
		delete(s.readCache, evict)
	}
}

// cacheInvalidate removes a compacted container from the read cache.
// Callers may hold s.mu (lock order s.mu → cacheMu).
func (s *Store) cacheInvalidate(id uint64) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if _, ok := s.readCache[id]; !ok {
		return
	}
	delete(s.readCache, id)
	for i, cid := range s.readOrder {
		if cid == id {
			s.readOrder = append(s.readOrder[:i], s.readOrder[i+1:]...)
			break
		}
	}
}

// liveOpenEntries drops the open container's dead entries — chunks
// freed since they were appended, or freed and put again further on —
// and returns the live ones, in offset order. The result shares
// openEntries' array.
func (s *Store) liveOpenEntries() []packfile.Entry {
	s.openEntries = slices.DeleteFunc(s.openEntries, func(e packfile.Entry) bool {
		return s.index[e.FP] != Location{Container: s.currentID, Offset: uint32(e.Offset), Length: e.Length}
	})
	return s.openEntries
}

// sealLocked seals the open container in place and opens the next one.
// One WriteAt appends the uncommitted tail, the packfile index of the
// live chunks and the footer to the open blob — the same bytes
// packfile.Writer would produce, with any dead chunks left as gaps —
// and only then is SEAL journaled, so replay never seals a container
// the backend does not hold. Dead bytes stay in the sealed container
// and count as its dead space; a container sealed at least
// compactionThreshold dead is queued for compaction, which is also how
// a half-dead open container is squeezed. The caller runs the queue
// (compactQueuedLocked) once nothing else is half done.
func (s *Store) sealLocked(ctx context.Context) error {
	size := s.openBodyLen()
	if size == 0 {
		return nil
	}
	id, live := s.currentID, uint64(size)-s.openDead
	entries := s.liveOpenEntries()
	image := packfile.AppendIndex(s.current, entries)
	if err := s.writeTailLocked(ctx, image); err != nil {
		return fmt.Errorf("dedup: seal: %w", err)
	}
	s.current = image[:len(s.current)] // keep a buffer the index grew
	s.census.Seals++
	s.journal.Record(encodeSealRec(id, live))

	if info := (containerInfo{Live: live, Dead: s.openDead}); info.compactable() {
		// The next appends reuse these arrays; compaction reads copies.
		s.compactions = append(s.compactions, compaction{
			id: id, entries: slices.Clone(entries), body: bytes.Clone(s.current[packfile.HeaderSize:]),
		})
	}
	s.applySeal(id, live)
	return nil
}

// applySeal applies a seal to in-memory state; shared by the live path
// and WAL replay. live is the open container's live byte count; the
// rest of its body is dead space.
func (s *Store) applySeal(id, live uint64) {
	s.containers[id] = containerInfo{Live: live, Dead: uint64(s.openBodyLen()) - live}
	s.currentID++
	s.current = s.current[:packfile.HeaderSize]
	s.committed = 0
	s.openEntries = s.openEntries[:0]
	s.openDead = 0
}

// Flush seals the open container, commits the log, and checkpoints, so
// all state is in the snapshot and the WAL is empty. Unlike Commit
// this forces out the partially filled open container; it is the
// clean-shutdown path, also used by tests and the rekey flow to make
// storage accounting visible. A seal that compacts moves live chunks
// into a fresh open container, so Flush seals until none is left.
func (s *Store) Flush(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.openBodyLen() > 0 {
		if err := s.sealLocked(ctx); err != nil {
			return err
		}
		if err := s.compactQueuedLocked(ctx); err != nil {
			return err
		}
	}
	//reed-vet:ignore lockguard — checkpointing must see a quiescent index; the write belongs in this critical section.
	return s.journal.Checkpoint(ctx)
}

// ObserveJournal times the store's WAL commits and checkpoints.
func (s *Store) ObserveJournal(commit, checkpoint *metrics.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal.Observe(commit, checkpoint)
}

// WriteCensus returns what the store has written to its backend since
// Open.
func (s *Store) WriteCensus() WriteCensus {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, j := s.census, s.journal.Census()
	c.WALBytes, c.Commits, c.Checkpoints = j.CommitBytes, j.Commits, j.Checkpoints
	return c
}

// Close flushes and releases the store.
func (s *Store) Close(ctx context.Context) error {
	return s.Flush(ctx)
}

// Stats returns a snapshot of the dedup counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func containerName(id uint64) string {
	return fmt.Sprintf("c%016x", id)
}

// parseContainerName inverts containerName.
func parseContainerName(name string) (uint64, bool) {
	if len(name) != 17 || name[0] != 'c' {
		return 0, false
	}
	var id uint64
	for _, c := range name[1:] {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}
