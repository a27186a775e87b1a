package client

import (
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/recipe"
)

// The streaming upload engine. The input is cut into pipeline segments
// of at most a quarter of Config.SegmentBytes of plaintext chunks;
// segments flow through four overlapped stages connected by capacity-1
// channels:
//
//	chunk+fingerprint → MLE keys (batched OPRF) → CAONT encrypt → upload
//
// so segment i+1 is being chunked while segment i resolves keys,
// segment i−1 encrypts on the worker pool, and segment i−2 stripes to
// the data servers. A byteGate admission controller bounds the bytes
// alive across all stages to ~2× the segment budget; with
// quarter-budget units, the stages plus their connecting channels hold
// at most ~7/4 of the budget, so every stage keeps a unit in flight
// without the chunking stage starving. The chunking stage blocks when
// the pipeline is full and resumes as uploaded segments release their
// budget. Each stage is a single goroutine (encryption fans out
// internally but joins before emitting), so segments — and therefore
// recipe entries and stubs — stay in file order.
//
// File metadata (stub file, recipe, policy-sealed key state) is written
// only after the last segment uploads: cancelling mid-flight leaves no
// partial file visible, only unreferenced chunks that deduplicate or
// age out.

// byteGate is the pipeline's admission controller: a byte-counted
// semaphore that also records its high-water mark.
type byteGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int64
	used     int64
	peak     int64
	// gauge mirrors used for the metrics registry (nil when the client
	// is uninstrumented; a nil gauge is a no-op).
	gauge *metrics.Gauge
}

func newByteGate(capacity int64) *byteGate {
	g := &byteGate{capacity: capacity}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until n bytes fit under the capacity. A request larger
// than the whole capacity is admitted once the gate is empty, so one
// oversized chunk cannot deadlock the pipeline. The pipeline wakes the
// gate on cancellation; acquire then returns the context's error.
func (g *byteGate) acquire(ctx context.Context, n int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.used > 0 && g.used+n > g.capacity {
		if err := ctx.Err(); err != nil {
			return err
		}
		g.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	g.used += n
	if g.used > g.peak {
		g.peak = g.used
	}
	g.gauge.Add(n)
	return nil
}

// force charges n bytes without blocking. The encrypt stage uses it for
// the ciphertext it just produced: blocking there would deadlock (the
// bytes already exist), and the overshoot is bounded by one segment's
// expansion because the matching plaintext is released immediately
// after.
func (g *byteGate) force(n int64) {
	g.mu.Lock()
	g.used += n
	if g.used > g.peak {
		g.peak = g.used
	}
	g.gauge.Add(n)
	g.mu.Unlock()
}

func (g *byteGate) release(n int64) {
	g.mu.Lock()
	g.used -= n
	g.gauge.Add(-n)
	g.mu.Unlock()
	g.cond.Broadcast()
}

// wake pokes blocked acquirers so they re-check their context.
func (g *byteGate) wake() { g.cond.Broadcast() }

func (g *byteGate) peakBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// chunkSource yields the upload's chunks one at a time. next returns
// io.EOF after the last chunk; the returned slice must be owned by the
// callee (not reused for the following chunk). fileHash reports the
// linear SHA-256 and size of the whole file before the first next, or
// ok = false when the source cannot be read twice.
type chunkSource interface {
	next() ([]byte, error)
	fileHash() (hash [sha256.Size]byte, size uint64, ok bool, err error)
}

// readerSource chunks an io.Reader with the configured chunker.
type readerSource struct {
	r  io.Reader
	ck chunker.Chunker
}

func (c *Client) newReaderSource(r io.Reader) (*readerSource, error) {
	var (
		ck  chunker.Chunker
		err error
	)
	if c.cfg.FixedChunkSize > 0 {
		ck, err = chunker.NewFixed(r, c.cfg.FixedChunkSize)
	} else {
		ck, err = chunker.NewRabin(r, c.cfg.Chunking)
	}
	if err != nil {
		return nil, err
	}
	return &readerSource{r: r, ck: ck}, nil
}

// fileHash hashes a seekable reader to its end and rewinds it to where
// it started, so a miss costs one extra read pass. Any other reader can
// be read only once and is not hashed.
func (s *readerSource) fileHash() (hash [sha256.Size]byte, size uint64, ok bool, err error) {
	rs, ok := s.r.(io.ReadSeeker)
	if !ok {
		return hash, 0, false, nil
	}
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return hash, 0, false, fmt.Errorf("client: fast path: seek: %w", err)
	}
	h := sha256.New()
	n, err := io.Copy(h, rs)
	if err != nil {
		return hash, 0, false, fmt.Errorf("client: fast path: hash: %w", err)
	}
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return hash, 0, false, fmt.Errorf("client: fast path: rewind: %w", err)
	}
	h.Sum(hash[:0])
	return hash, uint64(n), true, nil
}

func (s *readerSource) next() ([]byte, error) {
	data, err := s.ck.Next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("client: chunking: %w", err)
	}
	// The chunker reuses its window buffer; take ownership.
	return append([]byte(nil), data...), nil
}

// sliceSource replays caller-provided chunks (trace-driven uploads).
type sliceSource struct {
	chunks [][]byte
	pos    int
}

func (s *sliceSource) next() ([]byte, error) {
	if s.pos >= len(s.chunks) {
		return nil, io.EOF
	}
	data := s.chunks[s.pos]
	s.pos++
	return data, nil
}

// fileHash hashes the chunks, which are all in memory already.
func (s *sliceSource) fileHash() (hash [sha256.Size]byte, size uint64, ok bool, err error) {
	h := sha256.New()
	for _, data := range s.chunks {
		h.Write(data)
		size += uint64(len(data))
	}
	h.Sum(hash[:0])
	return hash, size, true, nil
}

// segment is one pipeline unit: up to a quarter of Config.SegmentBytes
// of chunks.
type segment struct {
	index  int
	chunks []encChunk
	bytes  int64 // plaintext bytes
}

// Upload stores the file read from r under path, accessible per pol,
// streaming it through the segment pipeline. The client must have an
// Owner (the file key comes from the owner's key-regression chain).
// Cancelling ctx aborts the pipeline without leaving a recipe or stub
// file behind, even while r blocks in Read; a Read that never returns
// strands only its reading goroutine, not the Upload call.
func (c *Client) Upload(ctx context.Context, path string, r io.Reader, pol *policy.Node) (*UploadResult, error) {
	src, err := c.newReaderSource(r)
	if err != nil {
		return nil, err
	}
	return c.upload(ctx, path, src, pol)
}

// UploadPrechunked uploads a file whose chunk boundaries the caller
// already determined (trace replay feeds recorded chunks directly, so
// chunking time is excluded as in the paper's Experiment B.2). Chunks
// must be non-empty.
func (c *Client) UploadPrechunked(ctx context.Context, path string, rawChunks [][]byte, pol *policy.Node) (*UploadResult, error) {
	for i, data := range rawChunks {
		if len(data) == 0 {
			return nil, fmt.Errorf("client: pre-chunked upload: empty chunk %d", i)
		}
	}
	return c.upload(ctx, path, &sliceSource{chunks: rawChunks}, pol)
}

// pipeFail records the pipeline's first error and cancels everything
// downstream.
type pipeFail struct {
	once   sync.Once
	err    error
	cancel context.CancelFunc
	gate   *byteGate
}

func (p *pipeFail) fail(err error) {
	p.once.Do(func() {
		p.err = err
		p.cancel()
		p.gate.wake()
	})
}

// sendSeg delivers s unless the pipeline is cancelled first.
func sendSeg(ctx context.Context, ch chan<- *segment, s *segment) bool {
	select {
	case ch <- s:
		return true
	case <-ctx.Done():
		return false
	}
}

// upload is the one upload path. A source that can be hashed up front
// first tries the whole-file clone (fastpath.go). Everything else, and
// every miss, runs the four-stage pipeline and, once every segment has
// uploaded, publishes the file. Audit-book uploads always take the
// pipeline: tickets need the ciphertext stream the clone never produces.
func (c *Client) upload(ctx context.Context, path string, src chunkSource, pol *policy.Node) (*UploadResult, error) {
	if c.cfg.Owner == nil {
		return nil, ErrNoOwner
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	name := c.remoteName(path)
	if c.cfg.AuditTickets == 0 {
		hash, size, ok, err := src.fileHash()
		if err != nil {
			return nil, err
		}
		if ok {
			res, err := c.checkAndClone(ctx, name, wholeFileKey(hash, size, pol), pol)
			if res != nil || err != nil {
				return res, err
			}
		}
	}

	start := time.Now()
	segBytes := int64(c.cfg.SegmentBytes)
	gate := newByteGate(2 * segBytes)
	gate.gauge = c.bytesInFlight
	// Quarter-budget pipeline units: four stages and three capacity-1
	// channels hold at most ~7 units, comfortably under the gate, so
	// every stage stays busy while memory remains O(SegmentBytes).
	unit := segBytes / 4
	if unit < 1 {
		unit = 1
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fail := &pipeFail{cancel: cancel, gate: gate}

	// If the caller cancels (rather than a stage failing), blocked
	// acquirers still need a wake-up.
	wakeDone := make(chan struct{})
	go func() {
		<-pctx.Done()
		gate.wake()
		close(wakeDone)
	}()

	chunked := make(chan *segment, 1)
	keyed := make(chan *segment, 1)
	encrypted := make(chan *segment, 1)

	var wg sync.WaitGroup

	// Source pump: reads run on their own goroutine with a select
	// handoff so cancellation returns promptly even while a read is
	// blocked (a stalled pipe, a hung network filesystem). The pump is
	// deliberately outside wg — an uninterruptible Read keeps only this
	// goroutine until it returns, never the Upload call.
	type readResult struct {
		data []byte
		err  error
	}
	reads := make(chan readResult)
	go func() {
		defer close(reads)
		for {
			data, err := src.next()
			select {
			case reads <- readResult{data, err}:
				if err != nil {
					return
				}
			case <-pctx.Done():
				return
			}
		}
	}()

	// Stage 1: chunk + fingerprint, cutting segments at the budget. The
	// per-segment latency observation covers everything from the
	// segment's first byte to its handoff — including source reads and
	// gate waits, which is what an operator watching a slow upload needs
	// to see. Fingerprints are taken batchChunks at a time as chunks
	// arrive, and for the rest at the cut. The stage also folds every
	// chunk into a linear SHA-256 of the whole file (chunks arrive in
	// file order on this one goroutine); the finalizer reads it after
	// wg.Wait, stamping the recipe's FileHash and registering the
	// whole-file index entry.
	lin := sha256.New()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chunked)
		seg := &segment{}
		segStart := time.Now()
		hashed := 0 // seg.chunks[:hashed] have their fpPlain
		for {
			var rr readResult
			var ok bool
			select {
			case rr, ok = <-reads:
			case <-pctx.Done():
				return
			}
			if !ok { // pump exited on cancellation
				return
			}
			if errors.Is(rr.err, io.EOF) {
				break
			}
			if rr.err != nil {
				fail.fail(rr.err)
				return
			}
			data := rr.data
			lin.Write(data)
			if err := gate.acquire(pctx, int64(len(data))); err != nil {
				fail.fail(err)
				return
			}
			seg.chunks = append(seg.chunks, encChunk{data: data, size: len(data)})
			seg.bytes += int64(len(data))
			if len(seg.chunks)-hashed == batchChunks {
				fingerprintChunks(seg.chunks[hashed:])
				hashed = len(seg.chunks)
			}
			if seg.bytes >= unit {
				fingerprintChunks(seg.chunks[hashed:])
				c.stageChunk.Observe(time.Since(segStart))
				if !sendSeg(pctx, chunked, seg) {
					return
				}
				seg = &segment{index: seg.index + 1}
				segStart = time.Now()
				hashed = 0
			}
		}
		if len(seg.chunks) > 0 {
			fingerprintChunks(seg.chunks[hashed:])
			c.stageChunk.Observe(time.Since(segStart))
			sendSeg(pctx, chunked, seg)
		}
	}()

	// Stage 2: MLE keys via the key manager (cache, then batched OPRF).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(keyed)
		for seg := range chunked {
			stageStart := time.Now()
			fps := make([]fingerprint.Fingerprint, len(seg.chunks))
			for i := range seg.chunks {
				fps[i] = seg.chunks[i].fpPlain
			}
			keys, err := c.km.GenerateKeys(pctx, fps)
			if err != nil {
				fail.fail(fmt.Errorf("client: key generation: %w", err))
				return
			}
			for i := range seg.chunks {
				seg.chunks[i].key = keys[i]
			}
			c.stageKeys.Observe(time.Since(stageStart))
			if !sendSeg(pctx, keyed, seg) {
				return
			}
		}
	}()

	// Stage 3: CAONT-encrypt on the worker pool, batchChunks at a time.
	// The ciphertext is force-charged and the plaintext released right
	// after, so the gate tracks live bytes without the stage ever
	// blocking on itself. A chunk this client has encrypted before
	// (knownResult) skips the transform: it leaves the stage with its
	// trimmed package's name and its stub from the cache, and with its
	// plaintext and key still held and charged, in case the cluster
	// turns out not to store it (uploadSegment).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(encrypted)
		for seg := range keyed {
			stageStart := time.Now()
			var todo []int
			for i := range seg.chunks {
				if !c.knownResult(&seg.chunks[i]) {
					todo = append(todo, i)
				}
			}
			if err := c.encryptChunks(pctx, gate, seg, todo); err != nil {
				fail.fail(err)
				return
			}
			c.stageEncrypt.Observe(time.Since(stageStart))
			if !sendSeg(pctx, encrypted, seg) {
				return
			}
		}
	}()

	// Stage 4 (this goroutine): stripe each segment to the data servers,
	// then accumulate the file-level state — recipe refs and stubs in
	// segment order, plus a reservoir sample of ciphertext chunks for
	// the audit book.
	rec := &recipe.Recipe{Path: name, Scheme: uint8(c.cfg.Scheme)}
	var (
		stubs    [][]byte
		logical  int64
		stats    segStats
		segments int
		resv     *auditReservoir
	)
	retryBefore := c.retrySnapshot()
	if c.cfg.AuditTickets > 0 {
		resv = newAuditReservoir(c.cfg.AuditTickets)
	}
	for seg := range encrypted {
		stageStart := time.Now()
		st, err := c.uploadSegment(pctx, gate, seg)
		if err != nil {
			fail.fail(err)
			break
		}
		c.stageUpload.Observe(time.Since(stageStart))
		stats.dups += st.dups
		stats.skipped += st.skipped
		stats.skippedBytes += st.skippedBytes
		segments++
		logical += seg.bytes
		var released int64
		for i := range seg.chunks {
			ch := &seg.chunks[i]
			rec.Chunks = append(rec.Chunks, recipe.ChunkRef{
				Fingerprint: ch.fpTrim,
				Size:        uint32(ch.size),
			})
			stubs = append(stubs, ch.pkg.Stub)
			if resv != nil {
				resv.offer(audit.ChunkData{FP: ch.fpTrim, Data: ch.pkg.Trimmed})
			}
			// A known chunk the cluster did store still holds its
			// plaintext; every other chunk holds its trimmed package.
			released += int64(len(ch.pkg.Trimmed) + len(ch.data))
			ch.pkg.Trimmed, ch.data, ch.key = nil, nil, nil
		}
		gate.release(released)
	}
	cancel() // release the wake-up goroutine and any straggling stage
	wg.Wait()
	<-wakeDone
	if fail.err != nil {
		return nil, fail.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Finalize: everything below is file metadata — nothing was visible
	// to a downloader before this point.
	rec.Size = uint64(logical)
	lin.Sum(rec.FileHash[:0])
	if err := c.publishFile(ctx, rec, stubs, pol); err != nil {
		return nil, err
	}

	retryStats := c.retryDelta(retryBefore)
	result := &UploadResult{
		Chunks:          len(rec.Chunks),
		LogicalBytes:    logical,
		DuplicateChunks: stats.dups,
		Segments:        segments,
		PeakBuffered:    gate.peakBytes(),
		KeyVersion:      rec.KeyVersion,
		SkippedChunks:   stats.skipped,
		SkippedBytes:    stats.skippedBytes,
		Retry:           retryStats,
		Elapsed:         time.Since(start),
	}
	if resv != nil && len(resv.sample) > 0 {
		book, err := audit.Generate(name, resv.sample, c.cfg.AuditTickets, nil)
		if err != nil {
			return nil, fmt.Errorf("client: audit book: %w", err)
		}
		result.AuditBook = book
	}
	return result, nil
}

// segStats is one segment's upload accounting: duplicates the shards
// already had (including filtered ones), plus the chunks and trimmed
// bytes the two-phase filter kept off the wire entirely.
type segStats struct {
	dups         int
	skipped      int
	skippedBytes int64
}

// keepsResults reports whether encryption results are kept beside the
// MLE keys and reused: there is a key cache, and no audit book needs the
// ciphertext of a chunk the cluster already stores.
func (c *Client) keepsResults() bool {
	return c.cache != nil && c.cfg.AuditTickets == 0
}

// knownResult fills ch's trimmed-package name and stub from the key
// cache, if this client has encrypted the same chunk under the same key
// before. Encryption is deterministic in the chunk, the MLE key, the
// scheme and the stub size, and the last two are fixed per client.
func (c *Client) knownResult(ch *encChunk) bool {
	if !c.keepsResults() {
		return false
	}
	fpTrim, stub, ok := c.cache.Result(ch.fpPlain)
	if ok {
		ch.fpTrim, ch.pkg.Stub = fpTrim, stub
	}
	return ok
}

// batchChunks is how many chunks the upload and download paths hand to
// one batch call (fingerprint.SumBatch, core's EncryptBatch and
// OpenBatch): enough to keep the hash kernel's sixteen lanes full, few
// enough that a segment still spreads over the worker pool.
const batchChunks = 64

// fingerprintChunks sets the plaintext fingerprint of every chunk, in
// one batch.
func fingerprintChunks(chunks []encChunk) {
	data := make([][]byte, len(chunks))
	for i := range chunks {
		data[i] = chunks[i].data
	}
	fps := make([]fingerprint.Fingerprint, len(chunks))
	fingerprint.SumBatch(fps, data, nil)
	for i := range chunks {
		chunks[i].fpPlain = fps[i]
	}
}

// batches cuts n items into runs as even as they divide, and calls fn
// with each run's [lo, hi) on the worker pool: the fewest runs of at
// most batchChunks, unless more runs of at least fingerprint.MinBatch
// items would keep more of the pool's workers busy.
func (c *Client) batches(ctx context.Context, n int, fn func(lo, hi int) error) error {
	k := max((n+batchChunks-1)/batchChunks, min(c.cfg.Workers, n/fingerprint.MinBatch))
	return c.parallelEach(ctx, k, func(b int) error {
		return fn(b*n/k, (b+1)*n/k)
	})
}

// encryptChunks runs encryptBatch over the chunks of seg at positions
// todo, in batches on the worker pool.
func (c *Client) encryptChunks(ctx context.Context, gate *byteGate, seg *segment, todo []int) error {
	return c.batches(ctx, len(todo), func(lo, hi int) error {
		return c.encryptBatch(gate, seg, todo[lo:hi])
	})
}

// encryptBatch runs the CAONT transform on the chunks of seg at
// positions todo, names their trimmed packages, and moves the gate's
// charge from their plaintext to their trimmed packages. Each result is
// remembered beside the chunk's MLE key for knownResult. An error names
// the failing chunk by its position in seg.
func (c *Client) encryptBatch(gate *byteGate, seg *segment, todo []int) error {
	chunks := make([]*encChunk, len(todo))
	data, keys := make([][]byte, len(todo)), make([][]byte, len(todo))
	for i, idx := range todo {
		chunks[i] = &seg.chunks[idx]
		data[i], keys[i] = chunks[i].data, chunks[i].key
	}
	pkgs := make([]core.Package, len(chunks))
	if err := c.codec.EncryptBatch(pkgs, data, keys); err != nil {
		var ce *core.ChunkError
		if errors.As(err, &ce) {
			return fmt.Errorf("chunk %d: %w", todo[ce.Index], ce.Err)
		}
		return err
	}
	for i := range pkgs {
		data[i] = pkgs[i].Trimmed
	}
	fps := make([]fingerprint.Fingerprint, len(chunks))
	fingerprint.SumBatch(fps, data, nil)
	var charged, released int64
	for i, ch := range chunks {
		ch.pkg, ch.fpTrim = pkgs[i], fps[i]
		if c.keepsResults() {
			c.cache.PutResult(ch.fpPlain, ch.fpTrim, ch.pkg.Stub)
		}
		charged += int64(len(ch.pkg.Trimmed))
		released += int64(ch.size)
		ch.data, ch.key = nil, nil
	}
	gate.force(charged)
	gate.release(released)
	return nil
}

// uploadSegment hands one segment's trimmed packages to the cluster
// router, which partitions them by ring owner, stripes each shard's
// share in parallel UploadBuffer-sized batches, and re-sends batches
// that die with their connection under Config.Retry (re-PUT is
// dedup-safe; see internal/cluster and internal/dedup). A batched
// negative lookup first filters out
// chunks the cluster already stores, so warm uploads send only the
// genuinely new bytes. Filtered chunks count as duplicates — they are
// exactly the chunks a full re-PUT would have reported as dups — so
// dedup accounting is identical either way. Re-sent batches land in
// the client-level counter via the router's OnBatchRetry hook, so
// RetryStats deltas and the metrics registry read the same number.
//
// The lookup runs on names alone, so a chunk that skipped the encrypt
// stage (knownResult) costs nothing more when the cluster stores it.
// The cluster, not the cache, is the authority: any such chunk that
// comes back not stored — deleted since, RefChunks lost a race, the
// filter failed open — is encrypted here, on the worker pool, and must
// produce the name the cache gave; anything else is a hard error.
func (c *Client) uploadSegment(ctx context.Context, gate *byteGate, seg *segment) (segStats, error) {
	skip := make([]bool, len(seg.chunks))
	st := c.filterKnownChunks(ctx, seg.chunks, skip)
	if err := ctx.Err(); err != nil {
		return segStats{}, err
	}
	var late []int
	for i := range seg.chunks {
		if !skip[i] && seg.chunks[i].data != nil {
			late = append(late, i)
		}
	}
	cached := make([]fingerprint.Fingerprint, len(late))
	for i, idx := range late {
		cached[i] = seg.chunks[idx].fpTrim
	}
	if err := c.encryptChunks(ctx, gate, seg, late); err != nil {
		return segStats{}, err
	}
	for i, idx := range late {
		if seg.chunks[idx].fpTrim != cached[i] {
			return segStats{}, errors.New("client: cached encryption result does not match the chunk")
		}
	}
	ups := make([]proto.ChunkUpload, 0, len(seg.chunks)-st.skipped)
	var sent int64
	for i := range seg.chunks {
		if !skip[i] {
			ups = append(ups, proto.ChunkUpload{FP: seg.chunks[i].fpTrim, Data: seg.chunks[i].pkg.Trimmed})
			sent += int64(len(seg.chunks[i].pkg.Trimmed))
		}
	}
	flags, err := c.router.PutChunks(ctx, ups)
	if err != nil {
		return segStats{}, fmt.Errorf("client: upload chunks: %w", err)
	}
	c.wireBytes.Add(uint64(sent))
	st.dups = st.skipped
	for _, d := range flags {
		if d {
			st.dups++
		}
	}
	return st, nil
}

// filterKnownChunks is the warm-upload half of the two-phase protocol:
// it asks the cluster which trimmed packages it already stores
// (HasChunks, read-only) and converts the confirmed hits into
// data-free reference bumps (RefChunks), so only missing chunks ride
// the PutChunks path; skip[i] is set for every chunk that is now
// referenced and needs no bytes sent. Within-segment duplicates are
// referenced once per occurrence, exactly as repeated PUTs would be.
// Fail-open by design: on any transport error nothing is skipped and PutChunks
// re-derives the answer from the bytes — a lost filter answer costs
// wire traffic, and a lost RefChunks ack at worst over-retains a
// reference, the same algebra as a re-sent PUT batch. Skipped bytes are
// counted from the chunk's size, not from a package that may never have
// been built.
func (c *Client) filterKnownChunks(ctx context.Context, chunks []encChunk, skip []bool) segStats {
	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i := range chunks {
		fps[i] = chunks[i].fpTrim
	}
	present, err := c.router.HasChunks(ctx, fps)
	if err != nil {
		return segStats{}
	}
	var hitIdx []int
	for i, p := range present {
		if p {
			hitIdx = append(hitIdx, i)
		}
	}
	if len(hitIdx) == 0 {
		return segStats{}
	}
	hitFPs := make([]fingerprint.Fingerprint, len(hitIdx))
	for j, i := range hitIdx {
		hitFPs[j] = fps[i]
	}
	found, err := c.router.RefChunks(ctx, hitFPs)
	if err != nil {
		return segStats{}
	}
	var st segStats
	for j, i := range hitIdx {
		if found[j] {
			skip[i] = true
			st.skipped++
			st.skippedBytes += int64(chunks[i].size + core.PackageOverhead - c.cfg.StubSize)
		}
	}
	c.skippedBytes.Add(uint64(st.skippedBytes))
	return st
}

// auditReservoir keeps a uniform sample of at most k ciphertext chunks
// from the upload stream (reservoir sampling), so the audit book can be
// generated without retaining every trimmed package.
type auditReservoir struct {
	k      int
	seen   int
	sample []audit.ChunkData
	rng    *mrand.Rand
}

func newAuditReservoir(k int) *auditReservoir {
	var seed [8]byte
	_, _ = crand.Read(seed[:])
	var seedInt int64
	for _, b := range seed {
		seedInt = seedInt<<8 | int64(b)
	}
	return &auditReservoir{k: k, rng: mrand.New(mrand.NewSource(seedInt))}
}

func (r *auditReservoir) offer(cd audit.ChunkData) {
	r.seen++
	if len(r.sample) < r.k {
		r.sample = append(r.sample, cd)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.k {
		r.sample[j] = cd
	}
}
