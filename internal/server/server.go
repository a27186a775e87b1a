// Package server implements the REED storage server: the cloud-side
// process that performs server-side deduplication on trimmed packages
// and manages the data store and key store (Section III-A).
//
// A server exposes two planes over the wire protocol:
//
//   - the chunk plane: batched puts of trimmed packages (deduplicated
//     into 4 MB containers via internal/dedup) and batched gets;
//   - the blob plane: file recipes, encrypted stub files, and encrypted
//     key states, stored verbatim and journaled (blobs.go).
//
// The paper deploys four data-store servers plus one key-store server;
// both roles run this same server type, differing only in which planes
// clients use.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"

	"repro/internal/audit"
	"repro/internal/dedup"
	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rpcmux"
	"repro/internal/store"
)

// allowedNamespaces lists the blob namespaces clients may touch.
var allowedNamespaces = map[string]bool{
	store.NSRecipes:   true,
	store.NSStubs:     true,
	store.NSKeyStates: true,
}

// connWorkers is the per-connection handler pool size: how many
// request frames from one connection may execute concurrently.
const connWorkers = 8

// connBuf sizes each connection's read and write buffers.
const connBuf = 1 << 20

// Server is one REED storage server.
type Server struct {
	backend store.Backend
	chunks  *dedup.Store
	// files is the whole-file fingerprint index behind the two-phase
	// upload's CheckFile/RegisterFile RPCs (see internal/fileindex).
	files *fileindex.Index
	// blobs is the blob plane: recipes, stub files and key states.
	blobs *blobs
	// journals lists the WAL-backed stores by journalID (slot noJournal
	// is nil): what dispatch commits and Flush checkpoints.
	journals [numJournals]journal

	// mux accepts connections and runs dispatch for their requests.
	mux *rpcmux.Server

	// baseCtx is the lifecycle root for request handling: it parents
	// every dispatched request and is canceled by Shutdown once the
	// final flush has completed.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// reg is the server's metrics registry (see metrics.go); nil when
	// uninstrumented.
	reg *metrics.Registry
}

// Option configures a Server.
type Option interface {
	applyServer(*Server)
}

// New returns a server over the given backend. The context governs
// construction only — it bounds crash recovery (snapshot loads, WAL
// replays, the dedup store's container scrub), which can take real
// time on a large store.
func New(ctx context.Context, backend store.Backend, opts ...Option) (*Server, error) {
	chunks, err := dedup.Open(ctx, backend, dedup.DefaultContainerSize)
	if err != nil {
		return nil, fmt.Errorf("server: open dedup store: %w", err)
	}
	files, err := fileindex.Open(ctx, backend)
	if err != nil {
		return nil, fmt.Errorf("server: open file index: %w", err)
	}
	blobs, err := openBlobs(ctx, backend)
	if err != nil {
		return nil, fmt.Errorf("server: open blob journal: %w", err)
	}
	s := &Server{
		backend:  backend,
		chunks:   chunks,
		files:    files,
		blobs:    blobs,
		journals: [numJournals]journal{chunksJournal: chunks, filesJournal: files, blobsJournal: blobs},
	}
	//reed-vet:ignore ctxrule — the server's lifecycle root, canceled by Shutdown.
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	for _, o := range opts {
		o.applyServer(s)
	}
	s.initMetrics()
	s.mux = rpcmux.NewServer(connWorkers, connBuf, s.reg, s.reg.Gauge("server_connections"),
		func(net.Conn) rpcmux.Handler { return s.dispatch })
	return s, nil
}

// Serve accepts connections until Shutdown. It always returns a
// non-nil error; after a clean Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	return s.mux.Serve(s.baseCtx, ln)
}

// Shutdown stops the server and flushes its journals. It drains the
// connections first, so every in-flight request commits, and runs the
// final flush under the lifecycle context, which is canceled only after
// the flush finishes (or fails).
func (s *Server) Shutdown() error {
	s.mux.Shutdown()
	err := s.Flush(s.baseCtx)
	s.cancelBase()
	return err
}

// Stats returns the server's dedup statistics.
func (s *Server) Stats() proto.Stats {
	d := s.chunks.Stats()
	return proto.Stats{
		TotalPuts:     d.TotalPuts,
		DedupedPuts:   d.DedupedPuts,
		LogicalBytes:  d.LogicalBytes,
		PhysicalBytes: d.PhysicalBytes,
		StubBytes:     s.blobs.stubFileBytes(),
	}
}

// journalID names a WAL-backed store a handler may dirty.
type journalID uint8

const (
	noJournal journalID = iota
	chunksJournal
	filesJournal
	blobsJournal
	numJournals
)

// journalNames labels each journal's metrics.
var journalNames = [numJournals]string{chunksJournal: "chunks", filesJournal: "files", blobsJournal: "blobs"}

// journal is what the server needs of a WAL-backed store: Commit makes
// the mutations journaled so far durable, Flush also checkpoints, and
// ObserveJournal times both.
type journal interface {
	Commit(ctx context.Context) error
	Flush(ctx context.Context) error
	ObserveJournal(commit, checkpoint *metrics.Histogram)
}

// handlers is the one per-MsgType table of what the server serves: the
// function that turns a request payload into a response payload, and
// the journal it dirties. Handlers never commit and never pick a
// response type — dispatch does both, in that order, so a reply is a
// durability receipt by construction. A duplicate index does not
// compile; TestHandlerTable checks the table against proto's. A payload
// is a gather list: getChunks builds its own from the stored chunks,
// every other handler's one contiguous payload is adapted by flat.
var handlers = [...]struct {
	run     func(*Server, context.Context, []byte) (net.Buffers, error)
	dirties journalID
}{
	proto.MsgPutChunksReq:    {flat((*Server).putChunks), chunksJournal},
	proto.MsgGetChunksReq:    {run: (*Server).getChunks},
	proto.MsgPutBlobReq:      {flat((*Server).putBlob), blobsJournal},
	proto.MsgGetBlobReq:      {run: flat((*Server).getBlob)},
	proto.MsgStatsReq:        {run: flat((*Server).stats)},
	proto.MsgListBlobsReq:    {run: flat((*Server).listBlobs)},
	proto.MsgDerefChunksReq:  {flat((*Server).derefChunks), chunksJournal},
	proto.MsgDeleteBlobReq:   {flat((*Server).deleteBlob), blobsJournal},
	proto.MsgChallengeReq:    {run: flat((*Server).challenge)},
	proto.MsgMetricsReq:      {run: flat((*Server).metricsResp)},
	proto.MsgCheckFileReq:    {run: flat((*Server).checkFile)},
	proto.MsgRegisterFileReq: {flat((*Server).registerFile), filesJournal},
	proto.MsgHasChunksReq:    {run: flat((*Server).hasChunks)},
	proto.MsgRefChunksReq:    {flat((*Server).refChunks), chunksJournal},
}

// flat adapts a handler whose response payload is one contiguous slice.
func flat(run func(*Server, context.Context, []byte) ([]byte, error)) func(*Server, context.Context, []byte) (net.Buffers, error) {
	return func(s *Server, ctx context.Context, payload []byte) (net.Buffers, error) {
		resp, err := run(s, ctx, payload)
		return net.Buffers{resp}, err
	}
}

// dispatch answers one request. It is the commit point: a handler's
// payload becomes a reply only after the journal the handler dirtied
// has committed, so whatever the client is told landed survives kill -9
// — and a handler that failed midway commits nothing here, its records
// ride along with the next commit, which is harmless because nobody was
// told they landed. It is also the only place a response type is chosen
// and an error becomes MsgError.
func (s *Server) dispatch(ctx context.Context, typ proto.MsgType, payload []byte) (proto.MsgType, net.Buffers) {
	resp, err := s.handle(ctx, typ, payload)
	if err != nil {
		return proto.MsgError, net.Buffers{proto.EncodeError(err.Error())}
	}
	return typ.Response(), resp
}

func (s *Server) handle(ctx context.Context, typ proto.MsgType, payload []byte) (net.Buffers, error) {
	if int(typ) >= len(handlers) || handlers[typ].run == nil {
		return nil, errors.New("server: unexpected message " + typ.String())
	}
	h := handlers[typ]
	resp, err := h.run(s, ctx, payload)
	if err != nil {
		return nil, err
	}
	if j := s.journals[h.dirties]; j != nil {
		if err := j.Commit(ctx); err != nil {
			return nil, fmt.Errorf("commit after %s: %w", typ, err)
		}
	}
	return resp, nil
}

func (s *Server) putChunks(ctx context.Context, payload []byte) ([]byte, error) {
	chunks, err := proto.DecodePutChunksReq(payload)
	if err != nil {
		return nil, err
	}
	// Verify every claimed fingerprint, in one batch, before storing
	// any chunk. Deduplication stores one copy per fingerprint across
	// all users, so accepting an unverified (fingerprint, data) pair
	// would let a malicious client poison chunks that other users'
	// recipes reference. (The paper's honest-but-curious model doesn't
	// require this check; a deployed system does.)
	data := make([][]byte, len(chunks))
	for i, c := range chunks {
		data[i] = c.Data
	}
	sums := make([]fingerprint.Fingerprint, len(chunks))
	fingerprint.SumBatch(sums, data, nil)
	for i, c := range chunks {
		if sums[i] != c.FP {
			return nil, fmt.Errorf("put chunk %d: fingerprint mismatch (possible poisoning attempt)", i)
		}
	}
	dups := make([]bool, len(chunks))
	for i, c := range chunks {
		if dups[i], err = s.chunks.Put(ctx, c.FP, c.Data); err != nil {
			return nil, fmt.Errorf("put chunk %d: %w", i, err)
		}
	}
	return proto.EncodePutChunksResp(dups), nil
}

// replyBudget bounds the chunk bytes of one GetChunks reply. The quarter
// of proto.MaxFrameSize it leaves free holds the length prefixes of the
// largest request the server decodes (2^20 fingerprints, at most 5 bytes
// each). A request for more is answered with its leading chunks that fit
// — always at least one — and Client.GetChunks asks again for the rest.
// Replies of distinct chunks stay well under it: the router asks a shard
// for at most 4096 chunks, about 35 MB at 8 KB-average Rabin chunks. A
// window of one repeated chunk is what crosses it. It is a variable only
// so tests can cross it with a few MiB.
var replyBudget = proto.MaxFrameSize / 4 * 3

// getChunks answers with the requested chunks in request order, as a
// gather list that hands each slice dedup.Get returned to the connection
// writer uncopied. That is safe after the handler returns because no
// such slice is ever written again: it views an immutable sealed
// container body (evicting or compacting the container only drops the
// store's reference, and the reply's keeps the body alive), or it is a
// fresh point-read buffer or a fresh copy of open-container bytes. The
// reply therefore holds every container body it views until it is
// written (DESIGN.md §5, "Lifetime"). The chunk that crosses the budget
// is read and dropped, as its size is only known once read; the next
// request starts with it, and finds its container cached if this read
// promoted it.
func (s *Server) getChunks(ctx context.Context, payload []byte) (net.Buffers, error) {
	fps, err := proto.DecodeGetChunksReq(payload)
	if err != nil {
		return nil, err
	}
	datas := make([][]byte, 0, len(fps))
	size := 0
	for _, fp := range fps {
		data, err := s.chunks.Get(ctx, fp)
		if err != nil {
			return nil, fmt.Errorf("get chunk %s: %w", fp.Short(), err)
		}
		if size += len(data); size > replyBudget && len(datas) > 0 {
			break
		}
		datas = append(datas, data)
	}
	return proto.BlobListParts(datas), nil
}

// blobReq decodes a blob-plane request (MsgBlobReq wire shape) and
// checks its namespace is one clients may touch.
func blobReq(payload []byte) (ns, name string, data []byte, err error) {
	if ns, name, data, err = proto.DecodeBlobReq(payload); err == nil && !allowedNamespaces[ns] {
		err = errors.New("server: namespace not allowed: " + ns)
	}
	return ns, name, data, err
}

func (s *Server) putBlob(ctx context.Context, payload []byte) ([]byte, error) {
	ns, name, data, err := blobReq(payload)
	if err != nil {
		return nil, err
	}
	return nil, s.blobs.put(ns, name, data)
}

func (s *Server) getBlob(ctx context.Context, payload []byte) ([]byte, error) {
	ns, name, _, err := blobReq(payload)
	if err != nil {
		return nil, err
	}
	return s.blobs.get(ctx, ns, name)
}

func (s *Server) listBlobs(ctx context.Context, payload []byte) ([]byte, error) {
	ns, err := proto.DecodeListBlobsReq(payload)
	if err != nil {
		return nil, err
	}
	if !allowedNamespaces[ns] {
		return nil, errors.New("server: namespace not allowed: " + ns)
	}
	names, err := s.blobs.list(ctx, ns)
	if err != nil {
		return nil, err
	}
	return proto.EncodeListBlobsResp(names), nil
}

// derefChunks drops one reference per listed fingerprint (MsgGetChunksReq
// wire shape) and reports how many chunks were freed outright.
func (s *Server) derefChunks(ctx context.Context, payload []byte) ([]byte, error) {
	fps, err := proto.DecodeGetChunksReq(payload)
	if err != nil {
		return nil, err
	}
	var freed uint64
	for i, fp := range fps {
		left, err := s.chunks.Deref(ctx, fp)
		if err != nil {
			return nil, fmt.Errorf("deref chunk %d: %w", i, err)
		}
		if left == 0 {
			freed++
		}
	}
	return proto.EncodeDerefChunksResp(freed), nil
}

// deleteBlob removes a blob (MsgBlobReq wire shape, data ignored).
func (s *Server) deleteBlob(ctx context.Context, payload []byte) ([]byte, error) {
	ns, name, _, err := blobReq(payload)
	if err != nil {
		return nil, err
	}
	return nil, s.blobs.delete(ns, name)
}

// challenge answers a remote-data-checking probe: H(nonce || chunk).
// Possession of the exact stored bytes is required; the nonce prevents
// precomputation and replay.
func (s *Server) challenge(ctx context.Context, payload []byte) ([]byte, error) {
	fp, nonce, err := proto.DecodeChallengeReq(payload)
	if err != nil {
		return nil, err
	}
	data, err := s.chunks.Get(ctx, fp)
	if err != nil {
		return nil, fmt.Errorf("challenge %s: %w", fp.Short(), err)
	}
	digest := audit.Response(nonce, data)
	return digest[:], nil
}

// checkFile answers the two-phase upload's whole-file pre-check: does
// the index map (hash, size, policy) to a stored recipe? Read-only and
// advisory — the client verifies any hit against the recipe's own
// FileHash before cloning, so a stale answer is harmless.
func (s *Server) checkFile(_ context.Context, payload []byte) ([]byte, error) {
	key, err := proto.DecodeCheckFileReq(payload)
	if err != nil {
		return nil, err
	}
	name, found := s.files.Lookup(key)
	return proto.EncodeCheckFileResp(name, found), nil
}

// registerFile records a whole-file index entry. An upsert — replaying
// it after a connection fault converges to the same state.
func (s *Server) registerFile(ctx context.Context, payload []byte) ([]byte, error) {
	key, name, err := proto.DecodeRegisterFileReq(payload)
	if err != nil {
		return nil, err
	}
	if err := s.files.Register(ctx, key, name); err != nil {
		return nil, fmt.Errorf("register file: %w", err)
	}
	return nil, nil
}

// hasChunks answers the batched negative lookup (MsgGetChunksReq wire
// shape in, MsgPutChunksResp shape out): one presence flag per
// fingerprint, no refcount or accounting effect.
func (s *Server) hasChunks(_ context.Context, payload []byte) ([]byte, error) {
	fps, err := proto.DecodeGetChunksReq(payload)
	if err != nil {
		return nil, err
	}
	present := make([]bool, len(fps))
	for i, fp := range fps {
		present[i] = s.chunks.Has(fp)
	}
	return proto.EncodePutChunksResp(present), nil
}

// refChunks adds one reference per listed fingerprint without the
// bytes — the data-free duplicate put behind clone and filtered warm
// uploads. Flags report which fingerprints were present (a false means
// the chunk vanished since the client's lookup; the client must send
// its bytes). Refcounts are the delete path's ground truth, which is
// why this handler dirties the chunk journal like putChunks.
func (s *Server) refChunks(ctx context.Context, payload []byte) ([]byte, error) {
	fps, err := proto.DecodeGetChunksReq(payload)
	if err != nil {
		return nil, err
	}
	found := make([]bool, len(fps))
	for i, fp := range fps {
		if found[i], err = s.chunks.Ref(ctx, fp); err != nil {
			return nil, fmt.Errorf("ref chunk %d: %w", i, err)
		}
	}
	return proto.EncodePutChunksResp(found), nil
}

func (s *Server) stats(context.Context, []byte) ([]byte, error) {
	return proto.EncodeStats(s.Stats()), nil
}

// HasChunk reports whether the fingerprint is stored (test helper).
func (s *Server) HasChunk(fp fingerprint.Fingerprint) bool {
	return s.chunks.Has(fp)
}

// FileIndexLen reports how many whole-file entries the index holds
// (test helper).
func (s *Server) FileIndexLen() int {
	return s.files.Len()
}

// Flush seals the open container, checkpoints the dedup and whole-file
// indexes and writes every journaled blob to the backend, without
// stopping the server. Every journal is flushed even if an earlier one
// fails.
func (s *Server) Flush(ctx context.Context) error {
	var errs []error
	for _, j := range s.journals[1:] {
		errs = append(errs, j.Flush(ctx))
	}
	return errors.Join(errs...)
}

// Backend exposes the underlying blob store (fault-injection tests and
// storage accounting use it).
func (s *Server) Backend() store.Backend {
	return s.backend
}
