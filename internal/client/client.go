// Package client implements the REED client: the user-side software
// layer that chunks, encrypts, uploads, downloads, and rekeys files
// (Sections IV-D and V).
//
// Upload runs as a segment pipeline: the input stream is split into
// fixed-budget segments (Config.SegmentBytes, 64 MB by default) and
// the stages overlap — segment i+1 is chunked and fingerprinted while
// segment i's MLE keys are fetched over batched OPRF, segment i−1 is
// CAONT-transformed on the worker pool, and segment i−2's trimmed
// packages are striped to the data servers. Peak client memory is
// O(segment), not O(file); a byte-budget gate enforces the bound. The
// file recipe, the stub file (all stubs encrypted under the file key),
// and the policy-encrypted key state are written only after every
// segment has uploaded, so a cancelled upload leaves no file metadata
// behind.
//
// Download is symmetric: DownloadTo streams the file to an io.Writer
// with windowed chunk prefetch — the next window's trimmed packages are
// fetched while the current window decrypts and writes in recipe order.
//
// Every public method takes a context.Context as its first argument;
// cancellation aborts pipeline stages and interrupts blocked network
// I/O promptly. A connection interrupted mid-frame is retired (its
// stream may be desynchronized), so a cancelled client should be
// discarded with Close.
//
// The file key is the hash of a key-regression state owned by the file's
// owner; the state travels CP-ABE-encrypted so only users satisfying the
// file policy can recover it. Rekeying winds the state forward and
// re-encrypts it under the new policy (lazy revocation); active
// revocation additionally re-encrypts the stub file immediately.
package client

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/abe"
	"repro/internal/audit"
	"repro/internal/binenc"
	"repro/internal/chunker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/keycache"
	"repro/internal/keymanager"
	"repro/internal/keyreg"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/recipe"
	"repro/internal/retry"
	"repro/internal/rpcmux"
	"repro/internal/server"
	"repro/internal/store"
)

// DefaultWorkers is the minimum default encryption worker count (the
// paper's thread count). When Config.Workers is unset the client sizes
// its worker pool at max(DefaultWorkers, GOMAXPROCS) so CAONT
// package/unpackage scales across available cores.
const DefaultWorkers = 2

// DefaultUploadBuffer is the paper's upload batch size: 4 MB.
const DefaultUploadBuffer = 4 << 20

// DefaultSegmentBytes is the streaming pipeline's per-segment budget:
// 64 MB of plaintext chunks travel through the stages together.
const DefaultSegmentBytes = 64 << 20

var (
	// ErrNoOwner is returned when an operation needs the private
	// derivation key but the client has none configured.
	ErrNoOwner = errors.New("client: no key-regression owner configured")
	// ErrNotFound is returned when a file does not exist remotely.
	ErrNotFound = errors.New("client: file not found")
)

// PublicKeyDirectory resolves per-attribute ABE public keys; the
// authority implements it.
type PublicKeyDirectory interface {
	PublicKeys(attrs []string) abe.PublicKeys
}

var _ PublicKeyDirectory = (*abe.Authority)(nil)

// Config configures a client.
type Config struct {
	// UserID is this user's identity (also their ABE attribute).
	UserID string
	// Scheme selects basic or enhanced chunk encryption.
	Scheme core.Scheme
	// DataServers are the storage shard addresses (the paper uses
	// four). Chunks are placed on shards by a consistent-hash ring over
	// the fingerprint space, so every client configured with the same
	// shard set — in any order — routes each chunk to the same shard.
	DataServers []string
	// KeyStoreServer is the key-store server address.
	KeyStoreServer string
	// KeyManager is the key manager address.
	KeyManager string

	// Chunking selects variable-size parameters; FixedChunkSize > 0
	// switches to fixed-size chunking instead.
	Chunking       chunker.Options
	FixedChunkSize int

	// StubSize overrides the 64-byte default stub.
	StubSize int
	// Workers is the encryption/decryption worker count (default 2).
	Workers int
	// UploadBuffer is the per-server upload batch size (default 4 MB).
	UploadBuffer int
	// SegmentBytes is the streaming pipeline's segment budget (default
	// 64 MB): chunking yields a new segment to the key/encrypt/upload
	// stages every SegmentBytes of plaintext, and peak buffered bytes
	// stay under twice this budget.
	SegmentBytes int
	// KeyGenBatch is the key-generation batch size (default 256).
	KeyGenBatch int
	// CacheCapacity sizes the MLE key cache; 0 means the 512 MB
	// default, negative disables caching.
	CacheCapacity int64
	// CallTimeout, when positive, bounds every individual storage or
	// key-manager RPC: each call runs under the caller's context plus
	// this deadline. Zero disables per-call deadlines.
	CallTimeout time.Duration

	// PrivateKey is this user's private access key (ABE).
	PrivateKey *abe.PrivateKey
	// Directory resolves ABE public keys for policy encryption.
	Directory PublicKeyDirectory
	// Owner is this user's key-regression owner state; required to
	// upload or rekey files, not to download.
	Owner *keyreg.Owner

	// AuditTickets, when positive, makes every upload generate a book
	// of that many single-use remote-data-checking tickets
	// (internal/audit), returned in UploadResult.AuditBook. Spend them
	// later with Audit. The streaming pipeline reservoir-samples the
	// ticket chunks so audit generation stays O(segment) too.
	AuditTickets int

	// ObfuscatePaths hides file pathnames from the cloud: every remote
	// object is addressed by a salted hash of its path instead of the
	// path itself (the metadata obfuscation the paper's Section IV-D
	// discussion describes). All clients sharing files must use the
	// same PathSalt.
	ObfuscatePaths bool
	// PathSalt keys the pathname obfuscation; required when
	// ObfuscatePaths is set.
	PathSalt []byte

	// Dialer overrides connection establishment (e.g. to route through
	// internal/netem). Nil uses plain TCP.
	Dialer rpcmux.Dialer

	// Retry bounds fault recovery on every connection: reconnect
	// backoff, transparent re-issue of idempotent RPCs, and the upload
	// pipeline's chunk-batch re-sends. The zero value uses the retry
	// package defaults (10 ms initial, 500 ms cap, 4 attempts), which
	// ride out a flapping server in well under the paper's per-request
	// timeouts while keeping a truly dead server's failure bounded.
	Retry retry.Policy

	// Metrics, when set, instruments the client: per-op RPC latency and
	// in-flight counts on every connection, pipeline stage latencies,
	// bytes in flight, and retry counters (the same numbers RetryStats
	// reports, exposed as registry families). Nil leaves the client
	// uninstrumented at zero cost.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
		if n := runtime.GOMAXPROCS(0); n > c.Workers {
			c.Workers = n
		}
	}
	if c.UploadBuffer <= 0 {
		c.UploadBuffer = DefaultUploadBuffer
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.KeyGenBatch <= 0 {
		c.KeyGenBatch = keymanager.DefaultBatchSize
	}
	if c.StubSize <= 0 {
		c.StubSize = core.DefaultStubSize
	}
	return c
}

// Client is a connected REED client. It is safe for concurrent use by a
// single user's operations, though individual uploads internally
// parallelize already.
type Client struct {
	cfg   Config
	codec *core.Codec
	cache *keycache.Cache

	// pool is the persistent CAONT worker pool all encrypt/decrypt
	// fan-out (parallelEach) runs on; see workpool.go.
	pool *workPool

	km      *keymanager.Client
	router  *cluster.Router
	keyConn *server.Client

	// retriedBatches counts the upload pipeline's chunk-batch re-sends.
	// It backs both RetryStats.RetriedBatches and, when a registry is
	// configured, the upload_retried_batches family — one counter, two
	// views (see initMetrics).
	retriedBatches *metrics.Counter

	// Two-phase upload accounting (fastpath.go), always allocated like
	// retriedBatches so UploadResult and the metrics registry read the
	// same source: whole-file pre-check outcomes, bytes the protocol
	// kept off the wire, and trimmed bytes actually sent.
	wholeFileHits   *metrics.Counter
	wholeFileMisses *metrics.Counter
	skippedBytes    *metrics.Counter
	wireBytes       *metrics.Counter

	// Pipeline instruments; nil (and hence no-ops) when Config.Metrics
	// is unset.
	stageChunk    *metrics.Histogram
	stageKeys     *metrics.Histogram
	stageEncrypt  *metrics.Histogram
	stageUpload   *metrics.Histogram
	bytesInFlight *metrics.Gauge
}

// New dials the key manager and all storage servers. ctx bounds the
// initial connection handshakes, not the client's lifetime.
func New(ctx context.Context, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.UserID == "" {
		return nil, errors.New("client: UserID required")
	}
	if len(cfg.DataServers) == 0 {
		return nil, errors.New("client: at least one data server required")
	}
	if cfg.KeyStoreServer == "" {
		return nil, errors.New("client: key-store server required")
	}
	if cfg.KeyManager == "" {
		return nil, errors.New("client: key manager required")
	}
	if cfg.PrivateKey == nil || cfg.Directory == nil {
		return nil, errors.New("client: access-control material required")
	}
	if cfg.ObfuscatePaths && len(cfg.PathSalt) < 16 {
		return nil, errors.New("client: ObfuscatePaths requires a PathSalt of at least 16 bytes")
	}

	codec, err := core.New(cfg.Scheme, core.WithStubSize(cfg.StubSize))
	if err != nil {
		return nil, err
	}

	var cache *keycache.Cache
	if cfg.CacheCapacity >= 0 {
		capacity := cfg.CacheCapacity
		if capacity == 0 {
			capacity = keycache.DefaultCapacity
		}
		cache, err = keycache.New(capacity)
		if err != nil {
			return nil, err
		}
	}

	kmOpts := []keymanager.ClientOption{
		keymanager.WithBatchSize(cfg.KeyGenBatch),
		keymanager.WithRetryPolicy(cfg.Retry),
		keymanager.WithCallTimeout(cfg.CallTimeout),
		keymanager.WithDialer(cfg.Dialer),
	}
	if cache != nil {
		kmOpts = append(kmOpts, keymanager.WithCache(cache))
	}
	km, err := keymanager.Dial(ctx, cfg.KeyManager, kmOpts...)
	if err != nil {
		return nil, err
	}

	c := &Client{
		cfg: cfg, codec: codec, cache: cache, km: km,
		retriedBatches:  metrics.NewCounter(),
		wholeFileHits:   metrics.NewCounter(),
		wholeFileMisses: metrics.NewCounter(),
		skippedBytes:    metrics.NewCounter(),
		wireBytes:       metrics.NewCounter(),
	}
	c.pool = newWorkPool(cfg.Workers)
	c.router, err = cluster.Dial(ctx, cluster.Config{
		Shards:       cfg.DataServers,
		Dialer:       cfg.Dialer,
		Retry:        cfg.Retry,
		CallTimeout:  cfg.CallTimeout,
		BatchBytes:   cfg.UploadBuffer,
		OnBatchRetry: c.retriedBatches.Inc,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.keyConn, err = server.DialStore(ctx, cfg.KeyStoreServer, cfg.Dialer, cfg.Retry)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.initMetrics()
	return c, nil
}

// Close closes all connections and stops the worker pool.
func (c *Client) Close() error {
	var firstErr error
	if c.pool != nil {
		c.pool.close()
	}
	if c.km != nil {
		if err := c.km.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.router != nil {
		if err := c.router.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.keyConn != nil {
		if err := c.keyConn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ClearKeyCache empties the MLE key cache (the trace experiments clear
// it between users).
func (c *Client) ClearKeyCache() {
	if c.cache != nil {
		c.cache.Clear()
	}
}

// CacheStats reports MLE key cache hits and misses.
func (c *Client) CacheStats() (hits, misses uint64) {
	if c.cache == nil {
		return 0, 0
	}
	return c.cache.Stats()
}

// --- fault-recovery accounting ---

// RetryStats summarizes the fault recovery one operation needed. All
// zeros means the operation saw a healthy network.
type RetryStats struct {
	// Reconnects is how many times a connection (key manager, data
	// server, or key-store server) was re-established mid-operation.
	Reconnects uint64
	// RetriedCalls is how many RPCs the transport re-issued
	// transparently after a connection fault (idempotent calls only).
	RetriedCalls uint64
	// RetriedBatches is how many chunk-upload batches the upload
	// pipeline re-sent after a transport failure. Re-sending is
	// dedup-safe for the stored bytes (see internal/dedup); it can only
	// over-retain via refcounts, never corrupt.
	RetriedBatches uint64
}

// retrySnapshot sums reconnect/retry counters across every connection
// the client holds. Operation results report the delta between two
// snapshots.
func (c *Client) retrySnapshot() RetryStats {
	var s RetryStats
	if c.km != nil {
		s.Reconnects += c.km.Reconnects()
		s.RetriedCalls += c.km.Retries()
	}
	if c.router != nil {
		s.Reconnects += c.router.Reconnects()
		s.RetriedCalls += c.router.Retries()
	}
	if c.keyConn != nil {
		s.Reconnects += c.keyConn.Reconnects()
		s.RetriedCalls += c.keyConn.Retries()
	}
	s.RetriedBatches = c.retriedBatches.Value()
	return s
}

// retryDelta reports the recovery work since an earlier snapshot.
func (c *Client) retryDelta(before RetryStats) RetryStats {
	now := c.retrySnapshot()
	return RetryStats{
		Reconnects:     now.Reconnects - before.Reconnects,
		RetriedCalls:   now.RetriedCalls - before.RetriedCalls,
		RetriedBatches: now.RetriedBatches - before.RetriedBatches,
	}
}

// --- per-call deadlines ---

// rpc derives the context one storage call runs under: the caller's
// context, bounded by Config.CallTimeout when one is set. The returned
// cancel must always be called. Key-manager calls get the same bound
// inside the key-manager client (keymanager.WithCallTimeout), once per
// round trip.
func (c *Client) rpc(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.CallTimeout > 0 {
		return context.WithTimeout(ctx, c.cfg.CallTimeout)
	}
	return ctx, func() {}
}

func (c *Client) putBlob(ctx context.Context, conn *server.Client, ns, name string, data []byte) error {
	rctx, cancel := c.rpc(ctx)
	defer cancel()
	return conn.PutBlob(rctx, ns, name, data)
}

func (c *Client) getBlob(ctx context.Context, conn *server.Client, ns, name string) ([]byte, error) {
	rctx, cancel := c.rpc(ctx)
	defer cancel()
	return conn.GetBlob(rctx, ns, name)
}

func (c *Client) deleteBlob(ctx context.Context, conn *server.Client, ns, name string) error {
	rctx, cancel := c.rpc(ctx)
	defer cancel()
	return conn.DeleteBlob(rctx, ns, name)
}

// --- results ---

// UploadResult summarizes an upload.
type UploadResult struct {
	// Chunks is the number of chunks the file split into.
	Chunks int
	// LogicalBytes is the plaintext size in bytes.
	LogicalBytes int64
	// DuplicateChunks is how many trimmed packages the servers already
	// had.
	DuplicateChunks int
	// Segments is how many pipeline segments the stream split into
	// (units of a quarter of Config.SegmentBytes).
	Segments int
	// PeakBuffered is the peak number of chunk bytes (plaintext plus
	// ciphertext) buffered in the pipeline at once; it stays below
	// roughly twice Config.SegmentBytes regardless of file size.
	PeakBuffered int64
	// KeyVersion is the key-state version protecting the stub file.
	KeyVersion uint64
	// WholeFileHit reports that the two-phase fast path satisfied the
	// upload: the cluster already stored an identical file under the
	// same policy, so the client cloned its recipe instead of chunking
	// and encrypting (fastpath.go).
	WholeFileHit bool
	// SkippedChunks counts chunks whose bytes never crossed the wire:
	// every chunk on a whole-file hit, the already-stored ones on a
	// filtered warm upload.
	SkippedChunks int
	// SkippedBytes is the corresponding byte count — plaintext bytes
	// for a whole-file hit, trimmed-package bytes for filtered chunks.
	SkippedBytes int64
	// AuditBook holds remote-data-checking tickets when
	// Config.AuditTickets is set; it is a client-side secret.
	AuditBook *audit.Book
	// Retry reports the fault recovery this upload needed: reconnects,
	// transparently re-issued RPCs, and re-sent chunk batches.
	Retry RetryStats
	// Elapsed is the wall-clock duration of the whole operation.
	Elapsed time.Duration
}

// encChunk carries one chunk through the upload pipeline. After the
// encrypt stage drops the plaintext, size remembers its length for the
// recipe. A chunk whose encryption result came from the key cache has
// fpTrim and pkg.Stub but no pkg.Trimmed, and keeps data and key until
// the cluster has confirmed it stores the package.
type encChunk struct {
	data    []byte
	size    int
	fpPlain fingerprint.Fingerprint
	key     []byte
	pkg     core.Package
	fpTrim  fingerprint.Fingerprint
}

// Audit spends one ticket from the book: it challenges the data server
// holding the sampled chunk and verifies the response. A false return
// means the server no longer possesses the exact bytes — corruption or
// loss.
func (c *Client) Audit(ctx context.Context, book *audit.Book) (bool, error) {
	ticket, err := book.Next()
	if err != nil {
		return false, err
	}
	resp, err := c.router.Challenge(ctx, ticket.FP, ticket.Nonce[:])
	if err != nil {
		return false, fmt.Errorf("client: audit challenge: %w", err)
	}
	return len(resp) == audit.DigestSize && bytes.Equal(resp, ticket.Expected[:]), nil
}

// RekeyResult summarizes a rekey operation.
type RekeyResult struct {
	// OldVersion and NewVersion are the key-state versions before and
	// after.
	OldVersion, NewVersion uint64
	// StubBytes is the size in bytes of the re-encrypted stub file
	// (active revocation only).
	StubBytes int64
	// Elapsed is the wall-clock duration of the whole operation.
	Elapsed time.Duration
}

// Rekey renews the file key for path and re-encrypts the key state under
// newPol. With active revocation the stub file is immediately
// re-encrypted under the new file key; with lazy revocation it is left
// until the next update (old versions remain derivable via key
// regression). Requires the Owner (private derivation key).
func (c *Client) Rekey(ctx context.Context, path string, newPol *policy.Node, active bool) (*RekeyResult, error) {
	res, oldVersions, err := c.rekey(ctx, []string{path}, newPol, active)
	if err != nil {
		return nil, err
	}
	return &RekeyResult{
		OldVersion: oldVersions[0],
		NewVersion: res.NewVersion,
		StubBytes:  res.StubBytes,
		Elapsed:    res.Elapsed,
	}, nil
}

// List returns the remote names of all stored files, sorted. Recipes
// spread across shards by home placement, so the listing fans out to
// every shard. With pathname obfuscation these are the salted hashes,
// not the logical paths — by design, the cloud (and hence this
// listing) never sees plaintext names.
func (c *Client) List(ctx context.Context) ([]string, error) {
	names, err := c.router.ListBlobs(ctx, store.NSRecipes)
	if err != nil {
		return nil, fmt.Errorf("client: list: %w", err)
	}
	return names, nil
}

// ServerStats returns per-shard dedup statistics plus the key-store
// server's (last entry).
func (c *Client) ServerStats(ctx context.Context) ([]proto.Stats, error) {
	out, err := c.router.Stats(ctx)
	if err != nil {
		return nil, err
	}
	rctx, cancel := c.rpc(ctx)
	defer cancel()
	s, err := c.keyConn.Stats(rctx)
	if err != nil {
		return nil, err
	}
	return append(out, s), nil
}

// ShardHealth reports the routing plane's per-shard health view: how
// many consecutive transport failures each shard has accumulated and
// whether non-idempotent operations currently fail fast against it.
func (c *Client) ShardHealth() []cluster.ShardHealth {
	return c.router.Health()
}

// fetchKeyState downloads and decrypts the key state for path, returning
// it with the owner's public derivation key.
func (c *Client) fetchKeyState(ctx context.Context, path string) (keyreg.State, keyreg.Public, error) {
	blob, err := c.getBlob(ctx, c.keyConn, store.NSKeyStates, path)
	if err != nil {
		return keyreg.State{}, keyreg.Public{}, fmt.Errorf("%w: key state: %w", ErrNotFound, err)
	}
	return c.openKeyState(blob)
}

// openKeyState decrypts a stored key-state blob: the policy-sealed
// state and the owner's public derivation key beside it.
func (c *Client) openKeyState(blob []byte) (keyreg.State, keyreg.Public, error) {
	r := binenc.NewReader(blob)
	ctBytes, err := r.ReadBytes()
	if err != nil {
		return keyreg.State{}, keyreg.Public{}, fmt.Errorf("client: key state blob: %w", err)
	}
	pubBytes, err := r.ReadBytes()
	if err != nil {
		return keyreg.State{}, keyreg.Public{}, fmt.Errorf("client: key state blob: %w", err)
	}
	ct, err := abe.UnmarshalCiphertext(ctBytes)
	if err != nil {
		return keyreg.State{}, keyreg.Public{}, err
	}
	statePlain, err := abe.Decrypt(c.cfg.PrivateKey, ct)
	if err != nil {
		return keyreg.State{}, keyreg.Public{}, fmt.Errorf("client: decrypt key state: %w", err)
	}
	state, err := keyreg.UnmarshalState(statePlain)
	if err != nil {
		return keyreg.State{}, keyreg.Public{}, err
	}
	pub, err := keyreg.UnmarshalPublic(pubBytes)
	if err != nil {
		return keyreg.State{}, keyreg.Public{}, err
	}
	return state, pub, nil
}

// sealKeyState policy-encrypts a key state and bundles the public
// derivation key.
func (c *Client) sealKeyState(state keyreg.State, pol *policy.Node) ([]byte, error) {
	pub := c.cfg.Directory.PublicKeys(pol.Leaves())
	ct, err := abe.Encrypt(pub, pol, state.Marshal(), nil)
	if err != nil {
		return nil, fmt.Errorf("client: encrypt key state: %w", err)
	}
	w := binenc.NewWriter(512)
	w.WriteBytes(ct.Marshal())
	w.WriteBytes(c.cfg.Owner.Public().Marshal())
	return w.Bytes(), nil
}

// getRecipe fetches and decodes the recipe stored under name.
func (c *Client) getRecipe(ctx context.Context, name string) (*recipe.Recipe, error) {
	blob, err := c.router.GetBlob(ctx, store.NSRecipes, name)
	if err != nil {
		return nil, fmt.Errorf("%w: recipe: %w", ErrNotFound, err)
	}
	return recipe.Unmarshal(blob)
}

// fileMeta is one file's metadata as a reader sees it, every piece
// checked: the stored key state, the recipe, and the stubs with the key
// version the stub file was sealed under.
type fileMeta struct {
	state       keyreg.State
	rec         *recipe.Recipe
	stubs       [][]byte
	stubVersion uint64
}

// readFile reads the metadata of the file stored under name. It fetches
// the key state, the recipe and the stub file concurrently, so the
// three reads cost one round trip, then checks them in a fixed order: a
// missing key state or recipe, then check on the decoded recipe (nil
// for none), then the key state's decryption, then the stub file. So
// check runs before any ABE decryption, and nothing is written.
func (c *Client) readFile(ctx context.Context, name string, check func(*recipe.Recipe) error) (*fileMeta, error) {
	var (
		wg                         sync.WaitGroup
		keyBlob, recBlob, stubBlob []byte
		keyErr, recErr, stubErr    error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		keyBlob, keyErr = c.getBlob(ctx, c.keyConn, store.NSKeyStates, name)
	}()
	go func() {
		defer wg.Done()
		recBlob, recErr = c.router.GetBlob(ctx, store.NSRecipes, name)
	}()
	stubBlob, stubErr = c.router.GetBlob(ctx, store.NSStubs, name)
	wg.Wait()

	if keyErr != nil {
		return nil, fmt.Errorf("%w: key state: %w", ErrNotFound, keyErr)
	}
	if recErr != nil {
		return nil, fmt.Errorf("%w: recipe: %w", ErrNotFound, recErr)
	}
	rec, err := recipe.Unmarshal(recBlob)
	if err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(rec); err != nil {
			return nil, err
		}
	}
	state, pub, err := c.openKeyState(keyBlob)
	if err != nil {
		return nil, err
	}
	if stubErr != nil {
		return nil, fmt.Errorf("%w: stub file: %w", ErrNotFound, stubErr)
	}
	m := &fileMeta{state: state, rec: rec}
	if m.stubs, m.stubVersion, err = c.openStubs(stubBlob, name, rec, state, pub); err != nil {
		return nil, err
	}
	return m, nil
}

// openStubs opens the stub file blob of the file rec describes. state is
// the file's stored key state and pub the public derivation key beside
// it. The stub file may be sealed under an older state than the stored
// one — a lazy revocation leaves it alone, and an interrupted active one
// may not have replaced it yet — and key regression lets any authorized
// user unwind to the version the file names: a v2 header's, or
// rec.KeyVersion for a v1 file. A version newer than the stored state
// cannot be derived from it and fails closed. It returns the stubs and
// that version.
func (c *Client) openStubs(blob []byte, name string, rec *recipe.Recipe, state keyreg.State, pub keyreg.Public) ([][]byte, uint64, error) {
	f, err := parseStubFile(blob, c.cfg.StubSize, len(rec.Chunks), rec.KeyVersion)
	if err != nil {
		return nil, 0, err
	}
	if f.version > state.Version {
		return nil, 0, fmt.Errorf("client: stub file sealed under key version %d, newer than the stored key state's %d", f.version, state.Version)
	}
	if f.version != state.Version {
		if state, err = keyreg.Unwind(pub, state, f.version); err != nil {
			return nil, 0, fmt.Errorf("client: unwind key state: %w", err)
		}
	}
	stubs, err := f.open(state, name, c.cfg.StubSize)
	if err != nil {
		return nil, 0, err
	}
	return stubs, f.version, nil
}

// publishFile writes a new file's metadata under rec.Path: the stubs
// sealed under the owner's current key state, the recipe stamped with
// that state's version, then the key state sealed under pol. Every
// reader fetches the key state first, so it goes last: until it lands a
// new name does not exist for anyone, and once it lands the stub file
// and recipe it unlocks are already stored. Overwriting an existing name
// is not atomic. The whole-file index entry is registered last, and
// best-effort: it is an advisory shortcut, so a failed registration
// costs later uploads their clone, never this upload.
func (c *Client) publishFile(ctx context.Context, rec *recipe.Recipe, stubs [][]byte, pol *policy.Node) error {
	state := c.cfg.Owner.Current()
	rec.KeyVersion = state.Version
	stubFile, err := c.sealStubs(stubs, state, rec.Path)
	if err != nil {
		return err
	}
	stateBlob, err := c.sealKeyState(state, pol)
	if err != nil {
		return err
	}
	if err := c.router.PutBlob(ctx, store.NSStubs, rec.Path, stubFile); err != nil {
		return fmt.Errorf("client: upload stub file: %w", err)
	}
	if err := c.router.PutBlob(ctx, store.NSRecipes, rec.Path, rec.Marshal()); err != nil {
		return fmt.Errorf("client: upload recipe: %w", err)
	}
	if err := c.putBlob(ctx, c.keyConn, store.NSKeyStates, rec.Path, stateBlob); err != nil {
		return fmt.Errorf("client: upload key state: %w", err)
	}
	_ = c.router.RegisterFile(ctx, wholeFileKey(rec.FileHash, rec.Size, pol), rec.Path)
	return nil
}

// remoteName maps a logical path to its remote object name: the path
// itself, or a salted hash of it when pathname obfuscation is on
// (Section IV-D). The mapping is deterministic so any client holding
// the salt addresses the same objects.
func (c *Client) remoteName(path string) string {
	if !c.cfg.ObfuscatePaths {
		return path
	}
	mac := hmac.New(sha256.New, c.cfg.PathSalt)
	mac.Write([]byte(path))
	return hex.EncodeToString(mac.Sum(nil))
}

// parallelEach runs fn(i) for i in [0,n) on the client's persistent
// worker pool, returning the first error. Cancelling ctx stops workers
// from claiming further indices. Up to Config.Workers runners execute
// concurrently; because every parallelEach in the process shares one
// pool, concurrent operations cannot oversubscribe the CPU.
func (c *Client) parallelEach(ctx context.Context, n int, fn func(int) error) error {
	workers := c.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || c.pool == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	runner := func() {
		defer wg.Done()
		for {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			i := claim()
			if i < 0 {
				return
			}
			if err := fn(i); err != nil {
				fail(err)
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		c.pool.submit(runner)
	}
	wg.Wait()
	return firstErr
}

// Stub file formats. A v1 file is nonce ‖ AES-256-GCM(stubs) with the
// file path as associated data, and names no key version: it opens
// under the recipe's KeyVersion. A v2 file puts a 9-byte header in
// front — the format byte 2, then the key version it is sealed under,
// big-endian — and binds the header into the associated data ahead of
// the path. The recipe fixes the stub count, so the two formats have
// different exact lengths and a blob's length alone says which it is.
const (
	stubFileV2     = 2
	stubHeaderSize = 9
	stubNonceSize  = 12
	stubTagSize    = 16
)

// stubFile is a parsed, not yet authenticated, stub file.
type stubFile struct {
	version uint64 // the key version it names
	header  []byte // nil for v1
	sealed  []byte // nonce ‖ ciphertext ‖ tag
}

// parseStubFile frames a stub file holding chunkCount stubs of stubSize
// bytes each. recVersion, the recipe's KeyVersion, is the version of a
// v1 file.
func parseStubFile(blob []byte, stubSize, chunkCount int, recVersion uint64) (stubFile, error) {
	v1 := stubNonceSize + stubTagSize + stubSize*chunkCount
	switch len(blob) {
	case v1:
		return stubFile{version: recVersion, sealed: blob}, nil
	case stubHeaderSize + v1:
		if blob[0] != stubFileV2 {
			return stubFile{}, fmt.Errorf("client: stub file format %d not supported", blob[0])
		}
		return stubFile{
			version: binary.BigEndian.Uint64(blob[1:stubHeaderSize]),
			header:  blob[:stubHeaderSize],
			sealed:  blob[stubHeaderSize:],
		}, nil
	}
	return stubFile{}, fmt.Errorf("client: stub file is %d bytes, want %d (v1) or %d (v2) for %d stubs", len(blob), v1, stubHeaderSize+v1, chunkCount)
}

// open authenticates and decrypts the stub file under state, which must
// be at f.version, and splits it into per-chunk stubs.
func (f stubFile) open(state keyreg.State, path string, stubSize int) ([][]byte, error) {
	aead, err := stubAEAD(state)
	if err != nil {
		return nil, err
	}
	aad := append(f.header[:len(f.header):len(f.header)], path...)
	plain, err := aead.Open(nil, f.sealed[:stubNonceSize], f.sealed[stubNonceSize:], aad)
	if err != nil {
		return nil, fmt.Errorf("client: stub file authentication failed: %w", err)
	}
	stubs := make([][]byte, len(plain)/stubSize)
	for i := range stubs {
		stubs[i] = plain[i*stubSize : (i+1)*stubSize]
	}
	return stubs, nil
}

// sealStubs checks every stub's size and seals them into a v2 stub file
// under state: header ‖ nonce ‖ AES-256-GCM(stubs), with the header and
// the file path as associated data.
func (c *Client) sealStubs(stubs [][]byte, state keyreg.State, path string) ([]byte, error) {
	for i, s := range stubs {
		if len(s) != c.cfg.StubSize {
			return nil, fmt.Errorf("client: chunk %d stub size %d, want %d", i, len(s), c.cfg.StubSize)
		}
	}
	aead, err := stubAEAD(state)
	if err != nil {
		return nil, err
	}
	const prefix = stubHeaderSize + stubNonceSize
	out := make([]byte, prefix, prefix+len(stubs)*c.cfg.StubSize+stubTagSize)
	out[0] = stubFileV2
	binary.BigEndian.PutUint64(out[1:stubHeaderSize], state.Version)
	nonce := out[stubHeaderSize:prefix]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("client: stub nonce: %w", err)
	}
	for _, s := range stubs {
		out = append(out, s...)
	}
	aad := append(out[:stubHeaderSize:stubHeaderSize], path...)
	// Seal in place: the ciphertext overwrites the stubs just copied in.
	return aead.Seal(out[:prefix], nonce, out[prefix:], aad), nil
}

// stubAEAD returns the stub-file cipher keyed by state's file key. It is
// the one place a file key exists outside package keyreg, and it wipes
// the key before returning: the cipher keeps only its expanded round
// keys.
func stubAEAD(state keyreg.State) (cipher.AEAD, error) {
	fileKey := state.Key() //reed:secret — the file key
	defer core.Wipe(fileKey[:])
	block, err := aes.NewCipher(fileKey[:])
	if err != nil {
		return nil, fmt.Errorf("client: stub cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("client: stub aead: %w", err)
	}
	return aead, nil
}
