// Package reed is a rekeying-aware encrypted deduplication storage
// system: a Go implementation of REED (Li, Qin, Lee, and Li, "Rekeying
// for Encrypted Deduplication Storage", DSN 2016).
//
// # Why REED
//
// Encrypted deduplication storage derives each chunk's encryption key
// from the chunk itself (message-locked encryption) so identical chunks
// produce identical ciphertexts and deduplicate. That determinism makes
// rekeying — revoking users, replacing compromised keys — fundamentally
// awkward: renewing the key derivation breaks deduplication, while
// re-encrypting every stored chunk is prohibitively expensive.
//
// REED transforms each chunk with a deterministic all-or-nothing
// transform keyed by its MLE key, splits the result into a large
// deduplicable trimmed package and a tiny stub (64 bytes per chunk), and
// encrypts only the stubs under a renewable per-file key. Rekeying a
// file of any size then costs only its stub file: REED's paper measures
// 3.4 s to actively rekey an 8 GB file, against minutes for full
// re-encryption.
//
// # Components
//
// A deployment consists of:
//
//   - storage servers (OpenStorageServer) — deduplicate trimmed packages
//     into 4 MB containers and hold recipes, stub files, and key states;
//     the paper runs four data servers plus one key-store server;
//   - a key manager (NewKeyManagerServer) — serves MLE keys through an
//     oblivious PRF (blinded RSA signatures) so it never learns chunk
//     fingerprints, and can rate-limit to resist brute force;
//   - an authority (NewAuthority) — issues per-user access keys for
//     CP-ABE-style policy encryption of file key states;
//   - clients (NewClient) — chunk, encrypt, upload, download, and rekey
//     files.
//
// # Quick start
//
// See examples/quickstart for a complete runnable program. Every client
// operation takes a context.Context first; cancel it to abort cleanly.
// In sketch:
//
//	ctx := context.Background()
//	authority, _ := reed.NewAuthority()
//	owner, _ := reed.NewOwner()
//	client, _ := reed.NewClient(ctx, reed.ClientConfig{
//		UserID:         "alice",
//		Scheme:         reed.SchemeEnhanced,
//		DataServers:    []string{"10.0.0.1:9000", "10.0.0.2:9000"},
//		KeyStoreServer: "10.0.0.3:9001",
//		KeyManager:     "10.0.0.4:9002",
//		PrivateKey:     authority.IssueKey("alice", []string{"alice"}),
//		Directory:      authority,
//		Owner:          owner,
//	})
//	client.Upload(ctx, "/backup/day1.tar", file, reed.PolicyForUsers("alice", "bob"))
//	client.DownloadTo(ctx, "/backup/day1.tar", out)
//	client.Rekey(ctx, "/backup/day1.tar", reed.PolicyForUsers("alice"), reed.ActiveRevocation)
//
// Uploads stream through a bounded segment pipeline (chunking, OPRF key
// fetch, CAONT encryption, and striped upload overlap), so memory stays
// O(ClientConfig.SegmentBytes) regardless of file size; DownloadTo
// streams symmetrically with windowed prefetch.
//
// # Migration from the v0 API
//
// v0 methods took no context and Download returned the whole file:
//
//	res, err := client.Upload(path, r, pol)        // v0
//	res, err := client.Upload(ctx, path, r, pol)   // v1
//
//	data, err := client.Download(path)             // v0
//	data, err := client.Download(ctx, path)        // v1 (buffers)
//	res, err := client.DownloadTo(ctx, path, w)    // v1 (streams)
//
// Result types changed too: byte counts are int64 (UploadResult's
// LogicalBytes was uint64), DeleteResult.FreedChunks is an int (was
// uint64), RekeyResult and GroupRekeyResult count stub bytes as
// StubBytes int64, and every result carries an Elapsed time.Duration.
// Callers that never cancel can pass context.Background() everywhere
// and behave exactly as before.
//
// # Encryption schemes
//
// SchemeBasic keys the transform directly with the MLE key: fastest, but
// an adversary who learns a chunk's MLE key can recover most of that
// chunk from its trimmed package. SchemeEnhanced first MLE-encrypts the
// chunk and transforms ciphertext-plus-key under a hash key, so a leaked
// MLE key alone reveals nothing; it costs one extra AES pass (the paper
// measures basic ≈24% faster at 8 KB chunks, with network-bound upload
// speeds essentially identical).
//
// # Revocation
//
// Rekey with LazyRevocation only replaces the policy-encrypted key
// state: revoked users lose access to the new state while authorized
// users derive older file keys via key regression, and stubs are
// re-encrypted on the file's next update. ActiveRevocation additionally
// re-encrypts the stub file immediately.
package reed

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/url"
	"os"

	"repro/internal/abe"
	"repro/internal/admin"
	"repro/internal/audit"
	"repro/internal/chunker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/keymanager"
	"repro/internal/keyreg"
	"repro/internal/metrics"
	"repro/internal/oprf"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/store"
)

// Core client types.
type (
	// Client performs uploads, downloads, and rekeying against a REED
	// deployment.
	Client = client.Client
	// ClientConfig configures a Client; see client.Config for field
	// documentation.
	ClientConfig = client.Config
	// UploadResult summarizes an upload.
	UploadResult = client.UploadResult
	// DownloadResult summarizes a download.
	DownloadResult = client.DownloadResult
	// RekeyResult summarizes a rekey operation.
	RekeyResult = client.RekeyResult
	// Scheme selects the chunk encryption scheme.
	Scheme = core.Scheme
	// Policy is an access tree controlling who can recover a file key.
	Policy = policy.Node
	// Authority issues access keys and publishes attribute public keys.
	Authority = abe.Authority
	// AccessKey is a user's private access key.
	AccessKey = abe.PrivateKey
	// Owner holds a user's private derivation key for key regression.
	Owner = keyreg.Owner
	// ChunkerOptions tunes content-defined chunking.
	ChunkerOptions = chunker.Options
	// ServerStats reports a server's deduplication counters.
	ServerStats = proto.Stats
	// AuditBook holds single-use remote-data-checking tickets
	// (generated at upload when ClientConfig.AuditTickets is set; spend
	// them with Client.Audit).
	AuditBook = audit.Book
	// DeleteResult summarizes a secure deletion.
	DeleteResult = client.DeleteResult
	// GroupRekeyResult summarizes a group rekey.
	GroupRekeyResult = client.GroupRekeyResult
	// RetryStats reports the fault recovery an operation needed:
	// reconnects, transparently re-issued RPCs, and re-sent upload
	// batches (all zero on a healthy network).
	RetryStats = client.RetryStats
	// RetryPolicy bounds reconnect/retry backoff after connection
	// faults (ClientConfig.Retry); the zero value uses sensible
	// defaults.
	RetryPolicy = retry.Policy
)

// Server-side types.
type (
	// Backend is the blob store behind a storage server.
	Backend = store.Backend
	// StorageServer deduplicates chunks and stores file metadata.
	StorageServer = server.Server
	// KeyManagerServer serves MLE keys via the oblivious PRF.
	KeyManagerServer = keymanager.Server
	// StorageServerOption configures a StorageServer
	// (e.g. WithStorageMetrics).
	StorageServerOption = server.Option
	// KeyManagerOption configures a KeyManagerServer
	// (e.g. WithKeyManagerMetrics).
	KeyManagerOption = keymanager.ServerOption
)

// Observability types (see internal/metrics and internal/admin).
type (
	// MetricsRegistry collects a process's counters, gauges, and latency
	// histograms. Create one with NewMetricsRegistry, hand it to a
	// server option or ClientConfig.Metrics, and read it via Snapshot.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time, JSON-serializable view of a
	// registry; snapshots from several processes merge with
	// MergeSnapshots.
	MetricsSnapshot = metrics.Snapshot
	// AdminServer is an opt-in HTTP debugging surface (/metrics,
	// /healthz, /debug/pprof) started with StartAdmin.
	AdminServer = admin.Server
	// SourceMetrics is one source's labeled snapshot in
	// Client.ClusterMetricsBySource: the client itself, "keymanager",
	// each storage shard by address, and "keystore".
	SourceMetrics = client.SourceMetrics
	// ShardHealth is the router's view of one storage shard
	// (Client.ShardHealth): its address, consecutive transport
	// failures, and whether non-idempotent operations currently fail
	// fast against it.
	ShardHealth = cluster.ShardHealth
)

// Encryption schemes.
const (
	// SchemeBasic is the faster scheme, vulnerable to MLE-key leakage.
	SchemeBasic = core.SchemeBasic
	// SchemeEnhanced resists MLE-key leakage at the cost of one extra
	// AES pass per chunk.
	SchemeEnhanced = core.SchemeEnhanced
)

// Revocation modes for Client.Rekey.
const (
	// LazyRevocation defers stub re-encryption to the file's next
	// update.
	LazyRevocation = false
	// ActiveRevocation re-encrypts the stub file immediately.
	ActiveRevocation = true
)

// DefaultStubSize is the per-chunk stub size (64 bytes).
const DefaultStubSize = core.DefaultStubSize

// NewClient connects a client to a deployment. ctx bounds the initial
// connection handshakes, not the client's lifetime.
func NewClient(ctx context.Context, cfg ClientConfig) (*Client, error) {
	return client.New(ctx, cfg)
}

// NewAuthority creates the deployment's access-control authority.
func NewAuthority() (*Authority, error) {
	return abe.NewAuthority(nil)
}

// NewOwner creates a user's key-regression owner state (the private
// derivation key plus the initial key state).
func NewOwner() (*Owner, error) {
	return keyreg.NewOwner(keyreg.DefaultBits, nil)
}

// PolicyForUsers builds the default REED per-file policy: any of the
// named users may access the file.
func PolicyForUsers(users ...string) *Policy {
	return policy.OrOfUsers(users)
}

// ParsePolicy parses the textual policy language, e.g.
// "and(dept-genomics, or(alice, bob))".
func ParsePolicy(s string) (*Policy, error) {
	return policy.Parse(s)
}

// PublicKeyBundle is a published set of attribute public keys. It
// satisfies the client Directory, so encryptors need only the bundle,
// never the authority's master secret.
type PublicKeyBundle = abe.PublicKeys

// UnmarshalAuthority restores an authority from Authority.Marshal output.
func UnmarshalAuthority(b []byte) (*Authority, error) {
	return abe.UnmarshalAuthority(b)
}

// UnmarshalAccessKey restores a user's access key from
// AccessKey.Marshal output. Keys hold 32-byte X25519 scalars; a key
// issued by the earlier 2048-bit MODP kernel is refused, and the
// authority — whose master-secret format did not change — re-issues it.
func UnmarshalAccessKey(b []byte) (*AccessKey, error) {
	return abe.UnmarshalPrivateKey(b)
}

// UnmarshalOwner restores a key-regression owner from Owner.Marshal
// output.
func UnmarshalOwner(b []byte) (*Owner, error) {
	return keyreg.UnmarshalOwner(b)
}

// UnmarshalPublicKeyBundle restores a bundle from
// PublicKeyBundle.Marshal output. A bundle published by the earlier
// MODP kernel is refused and must be published again.
func UnmarshalPublicKeyBundle(b []byte) (PublicKeyBundle, error) {
	return abe.UnmarshalPublicKeys(b)
}

// BackendOption configures OpenBackend.
type BackendOption func(*backendConfig)

type backendConfig struct {
	httpClient *http.Client
	noFsync    bool
}

// WithHTTPClient sets the HTTP client used by http:// and https://
// backends (default http.DefaultClient).
func WithHTTPClient(c *http.Client) BackendOption {
	return func(cfg *backendConfig) { cfg.httpClient = c }
}

// WithoutFsync disables fsync on disk:// backends. Blob writes remain
// atomic (write-to-temp + rename) but lose power-failure durability;
// use only for throwaway stores such as test fixtures and benchmarks.
func WithoutFsync() BackendOption {
	return func(cfg *backendConfig) { cfg.noFsync = true }
}

// OpenBackend constructs a Backend from a DSN:
//
//	mem://                      in-memory, ephemeral
//	disk:///var/lib/reed        durable local store rooted at the path
//	http://host:port/bucket     S3-style HTTP object server
//	https://host/bucket         same, over TLS
//
// ctx bounds construction only; the backend's own operations take their
// callers' contexts.
func OpenBackend(ctx context.Context, dsn string, opts ...BackendOption) (Backend, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cfg backendConfig
	for _, o := range opts {
		o(&cfg)
	}
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("reed: backend DSN %q: %w", dsn, err)
	}
	switch u.Scheme {
	case "mem":
		if u.Host != "" || u.Path != "" {
			return nil, fmt.Errorf("reed: backend DSN %q: mem:// takes no path", dsn)
		}
		return store.NewMemory(), nil
	case "disk":
		if u.Host != "" {
			return nil, fmt.Errorf("reed: backend DSN %q: disk DSNs are disk:///abs/path or disk://relative/path", dsn)
		}
		dir := u.Path
		if dir == "" {
			dir = u.Opaque
		}
		if dir == "" {
			return nil, fmt.Errorf("reed: backend DSN %q: missing directory", dsn)
		}
		var diskOpts []store.DiskOption
		if cfg.noFsync {
			diskOpts = append(diskOpts, store.WithNoSync())
		}
		return store.NewDisk(dir, diskOpts...)
	case "http", "https":
		return store.NewHTTP(dsn, cfg.httpClient)
	default:
		return nil, fmt.Errorf("reed: backend DSN %q: unknown scheme %q (supported: mem:// | disk:// | http:// | https://)", dsn, u.Scheme)
	}
}

// OpenStorageServer builds a storage server over a backend. ctx bounds
// startup — including crash recovery of the dedup index (snapshot load,
// WAL replay, container scrub) — not the server's lifetime. Call Serve
// with a net.Listener to start it, Shutdown to stop.
func OpenStorageServer(ctx context.Context, backend Backend, opts ...StorageServerOption) (*StorageServer, error) {
	return server.New(ctx, backend, opts...)
}

// NewKeyManagerServer builds a key manager with a fresh OPRF key of the
// given RSA modulus size (0 selects the paper's 1024 bits). Rate
// limiting, when positive, caps per-client key generations per second.
// The key lives only as long as the process: see OpenKeyManagerServer.
func NewKeyManagerServer(rsaBits int, rateLimit float64, opts ...KeyManagerOption) (*KeyManagerServer, error) {
	key, err := oprf.GenerateServerKey(keyManagerBits(rsaBits), nil)
	if err != nil {
		return nil, fmt.Errorf("reed: key manager key: %w", err)
	}
	return newKeyManagerServer(key, rateLimit, opts), nil
}

// OpenKeyManagerServer is NewKeyManagerServer with a persistent OPRF key:
// it loads the PKCS#1 key in keyFile, or, when the file does not exist,
// generates one of rsaBits and writes it there with mode 0600. A key
// manager restarted on the same file derives the same MLE keys, so new
// uploads keep deduplicating against chunks stored before the restart.
// The file is the key manager's root secret.
func OpenKeyManagerServer(keyFile string, rsaBits int, rateLimit float64, opts ...KeyManagerOption) (*KeyManagerServer, error) {
	der, err := os.ReadFile(keyFile)
	if errors.Is(err, fs.ErrNotExist) {
		return createKeyManagerServer(keyFile, rsaBits, rateLimit, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("reed: key manager key: %w", err)
	}
	key, err := oprf.UnmarshalServerKey(der)
	if err != nil {
		return nil, fmt.Errorf("reed: key manager key %s: %w", keyFile, err)
	}
	return newKeyManagerServer(key, rateLimit, opts), nil
}

func createKeyManagerServer(keyFile string, rsaBits int, rateLimit float64, opts []KeyManagerOption) (*KeyManagerServer, error) {
	key, err := oprf.GenerateServerKey(keyManagerBits(rsaBits), nil)
	if err != nil {
		return nil, fmt.Errorf("reed: key manager key: %w", err)
	}
	// O_EXCL: never overwrite a key another process just wrote.
	f, err := os.OpenFile(keyFile, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("reed: key manager key: %w", err)
	}
	_, err = f.Write(oprf.MarshalServerKey(key))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(keyFile)
		return nil, fmt.Errorf("reed: key manager key: %w", err)
	}
	return newKeyManagerServer(key, rateLimit, opts), nil
}

func keyManagerBits(rsaBits int) int {
	if rsaBits <= 0 {
		return oprf.DefaultBits
	}
	return rsaBits
}

func newKeyManagerServer(key *oprf.ServerKey, rateLimit float64, opts []KeyManagerOption) *KeyManagerServer {
	if rateLimit > 0 {
		opts = append(opts, keymanager.WithRateLimit(rateLimit, rateLimit))
	}
	return keymanager.NewServer(key, opts...)
}

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MergeSnapshots combines snapshots from several processes into one
// cluster-wide view: counters and gauges sum, histograms merge
// bucket-wise.
func MergeSnapshots(snaps ...MetricsSnapshot) MetricsSnapshot {
	return metrics.Merge(snaps...)
}

// WithStorageMetrics instruments a storage server with the registry:
// per-op dispatch latency, connection and in-flight gauges, and
// deduplication effectiveness (logical vs physical bytes, container
// count, GC reclamation).
func WithStorageMetrics(reg *MetricsRegistry) StorageServerOption {
	return server.WithMetrics(reg)
}

// WithKeyManagerMetrics instruments a key manager with the registry:
// per-op dispatch latency, connection gauges, OPRF evaluation and
// rate-limit-drop counters.
func WithKeyManagerMetrics(reg *MetricsRegistry) KeyManagerOption {
	return keymanager.WithMetrics(reg)
}

// StartAdmin serves the admin debugging plane (JSON /metrics, /healthz,
// /debug/pprof) for a snapshot source on addr. It is opt-in and
// unauthenticated: bind loopback (e.g. "127.0.0.1:9090") unless the
// network is trusted. healthy may be nil (always healthy); a non-nil
// error from it turns /healthz into a 503. Close the returned server
// to stop.
func StartAdmin(addr string, snapshot func() MetricsSnapshot, healthy func() error) (*AdminServer, error) {
	return admin.Start(addr, snapshot, healthy)
}
