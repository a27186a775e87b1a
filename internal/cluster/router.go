// Package cluster implements the client-side routing plane for a
// sharded REED deployment: a Router owns one rpcmux-backed connection
// per storage shard and fans every storage RPC out by placement.
//
// Two routing planes share one consistent-hash ring (internal/ring):
//
//   - chunk plane — the *Chunks calls and Challenge route each
//     fingerprint to its ring owner, so a chunk deduplicates globally
//     (every client sends a given fingerprint to the same shard) and
//     per-shard dedup accounting sums to the single-node totals;
//   - file plane — the *Blob and *File calls route by a hash of the
//     object name, so a file's recipe and stub file co-locate on one
//     "home" shard while different files spread across the cluster.
//
// Batched calls are partitioned by owner, issued concurrently per
// shard, and reassembled in the caller's order (scatter), so the
// pipeline above sees single-connection semantics. Fault handling is
// not decided per method: call reads each request's retry class from
// the proto table.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/ring"
	"repro/internal/rpcmux"
	"repro/internal/server"
)

const (
	// downAfter is how many consecutive transport failures mark a shard
	// down; any answer, even an application error, marks it up again.
	downAfter = 3
	// fpBatch bounds the fingerprints in one GetChunks, HasChunks,
	// RefChunks or DerefChunks RPC (128 KiB of a 64 MiB frame).
	fpBatch = 4096
)

// ErrShardDown wraps errors returned when a request that the transport
// may not replay is refused because its target shard is marked down.
var ErrShardDown = errors.New("cluster: shard down")

// Config configures a Router.
type Config struct {
	// Shards are the storage shard addresses. Order does not affect
	// placement (the ring hashes addresses), but it fixes the index
	// space Stats, Health, and error messages report in.
	Shards []string
	// Dialer overrides connection establishment (nil uses plain TCP).
	Dialer rpcmux.Dialer
	// Retry bounds reconnection backoff on every shard connection and
	// the router-owned chunk-batch re-sends.
	Retry retry.Policy
	// CallTimeout, when positive, bounds each individual shard RPC.
	CallTimeout time.Duration
	// BatchBytes caps one PutChunks batch's payload (default 4 MB).
	BatchBytes int
	// OnBatchRetry, when set, is called once per re-sent chunk batch
	// (the client wires its RetryStats counter here).
	OnBatchRetry func()
}

// ShardHealth is one shard's routing-plane health view.
type ShardHealth struct {
	Addr string
	// ConsecutiveFailures counts transport failures since the last answer.
	ConsecutiveFailures int
	// Down reports whether requests the transport may not replay
	// currently fail fast against this shard.
	Down bool
}

// Router routes storage RPCs across the shards of one cluster. It is
// safe for concurrent use.
type Router struct {
	cfg   Config
	ring  *ring.Ring
	conns []*server.Client
	// fails[s] counts shard s's consecutive transport failures.
	fails []atomic.Int64
}

// Dial connects to every shard; ctx bounds the dials, not the router's
// lifetime. Placement is fixed here: the same shard list, in any order,
// gives every client the same mapping.
func Dial(ctx context.Context, cfg Config) (*Router, error) {
	rg, err := ring.New(cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = 4 << 20
	}
	r := &Router{cfg: cfg, ring: rg, fails: make([]atomic.Int64, len(cfg.Shards))}
	for _, addr := range cfg.Shards {
		conn, err := server.DialStore(ctx, addr, cfg.Dialer, cfg.Retry)
		if err != nil {
			_ = r.Close()
			return nil, fmt.Errorf("cluster: dial shard %s: %w", addr, err)
		}
		r.conns = append(r.conns, conn)
	}
	return r, nil
}

// Close closes every shard connection.
func (r *Router) Close() error {
	var firstErr error
	for _, conn := range r.conns {
		if err := conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// N returns the shard count.
func (r *Router) N() int { return len(r.conns) }

// Addrs returns the shard addresses in index order.
func (r *Router) Addrs() []string { return r.ring.Members() }

// Owner returns the shard index owning a chunk fingerprint.
func (r *Router) Owner(fp fingerprint.Fingerprint) int { return r.ring.Owner(fp) }

// Home returns the shard index holding an object name's blobs.
func (r *Router) Home(name string) int { return r.ring.OwnerKey([]byte(name)) }

// answered reports whether err is an application error from a live
// shard: the shard is up and a re-send would get the same answer.
func answered(err error) bool {
	var re *proto.RemoteError
	return errors.As(err, &re)
}

// call runs one RPC of request type typ against shard s, and is the one
// place the routing plane applies typ's retry class: only
// ReplayByTransport requests are let through to a shard marked down
// (which is what heals the mark), and only ResendByRouter requests are
// re-sent after a transport failure. Every attempt runs under
// CallTimeout and feeds shard health; context errors say nothing about
// the shard. fn takes the connection first so method expressions fit.
func call[R any](ctx context.Context, r *Router, typ proto.MsgType, s int, fn func(*server.Client, context.Context) (R, error)) (R, error) {
	var out R
	attempt := func(ctx context.Context) (err error) {
		if r.cfg.CallTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.cfg.CallTimeout)
			defer cancel()
		}
		out, err = fn(r.conns[s], ctx)
		switch {
		case err == nil || answered(err):
			r.fails[s].Store(0)
		case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			r.fails[s].Add(1)
		}
		return err
	}
	var err error
	switch class, n := typ.Retry(), r.fails[s].Load(); {
	case class != proto.ReplayByTransport && n >= downAfter:
		err = fmt.Errorf("%w after %d consecutive transport failures", ErrShardDown, n)
	case class == proto.ResendByRouter:
		sent := 0
		err = retry.Do(ctx, r.cfg.Retry, func(ctx context.Context) error {
			if sent++; sent > 1 && r.cfg.OnBatchRetry != nil {
				r.cfg.OnBatchRetry()
			}
			err := attempt(ctx)
			if answered(err) {
				return retry.Permanent(err)
			}
			return err
		})
	default:
		err = attempt(ctx)
	}
	if err != nil {
		return out, fmt.Errorf("cluster: %v on shard %d (%s): %w", typ, s, r.cfg.Shards[s], err)
	}
	return out, nil
}

// Health returns every shard's routing-plane health, in index order.
func (r *Router) Health() []ShardHealth {
	out := make([]ShardHealth, len(r.conns))
	for s := range r.conns {
		n := r.fails[s].Load()
		out[s] = ShardHealth{Addr: r.cfg.Shards[s], ConsecutiveFailures: int(n), Down: n >= downAfter}
	}
	return out
}

// Reconnects sums connection re-establishments across all shards.
func (r *Router) Reconnects() uint64 { return r.sum((*server.Client).Reconnects) }

// Retries sums transparently re-issued RPCs across all shards.
func (r *Router) Retries() uint64 { return r.sum((*server.Client).Retries) }

func (r *Router) sum(counter func(*server.Client) uint64) (n uint64) {
	for _, conn := range r.conns {
		n += counter(conn)
	}
	return n
}

// Instrument attaches per-shard RPC instrumentation to the registry:
// each shard's op families carry a shard="<addr>" label, so a merged
// snapshot still shows per-shard balance.
func (r *Router) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for s, conn := range r.conns {
		addr := r.cfg.Shards[s]
		conn.Instrument(&rpcmux.Instruments{
			Ops:      metrics.NewOpSet(reg, "rpc", proto.OpNames(), "shard", addr),
			Inflight: reg.Gauge("rpc_inflight", "shard", addr),
		})
	}
}

// --- chunk plane ---

// oneFP describes an item of the fingerprint-list requests to scatter.
func oneFP(fp fingerprint.Fingerprint) (fingerprint.Fingerprint, int) { return fp, 1 }

// cut returns how many leading items form the next sub-batch: as many
// as keep the summed weight within limit, and always at least one.
func cut[T any](items []T, weigh func(T) (fingerprint.Fingerprint, int), limit int) int {
	for n := range items {
		_, w := weigh(items[n])
		if limit -= w; limit < 0 && n > 0 {
			return n
		}
	}
	return len(items)
}

// scatter is the chunk plane's one fan-out. weigh gives each item's
// fingerprint and weight: scatter buckets items by the fingerprint's
// ring owner and runs one goroutine per shard that has any, which sends
// its bucket in sub-batches of at most limit total weight through call,
// so typ's retry class governs every RPC. Results land at the positions
// their items had in the caller's slice. Buckets are filled once and
// sub-batches alias them: no payload is copied.
func scatter[T, R any](ctx context.Context, r *Router, typ proto.MsgType, items []T,
	weigh func(T) (fingerprint.Fingerprint, int), limit int,
	send func(*server.Client, context.Context, []T) ([]R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, nil
	}
	bucket := make([][]T, len(r.conns))
	pos := make([][]int, len(r.conns)) // pos[s][i] is bucket[s][i]'s index in items
	for i, it := range items {
		fp, _ := weigh(it)
		s := r.ring.Owner(fp)
		bucket[s] = append(bucket[s], it)
		pos[s] = append(pos[s], i)
	}
	out := make([]R, len(items))
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for s := range r.conns {
		if len(bucket[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for rest, at := bucket[s], pos[s]; len(rest) > 0 && errs[s] == nil; {
				n := cut(rest, weigh, limit)
				var got []R
				got, errs[s] = call(ctx, r, typ, s, func(c *server.Client, ctx context.Context) ([]R, error) {
					return send(c, ctx, rest[:n])
				})
				for i, v := range got {
					out[at[i]] = v
				}
				rest, at = rest[n:], at[n:]
			}
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// PutChunks uploads trimmed packages, each to its owning shard in
// sub-batches of at most Config.BatchBytes, and returns per-chunk
// duplicate flags in input order. A sub-batch that dies with its
// connection is re-sent: the store detects the duplicate fingerprint
// and only bumps a refcount, so a flapping shard costs over-retention
// at worst, never corruption.
func (r *Router) PutChunks(ctx context.Context, chunks []proto.ChunkUpload) ([]bool, error) {
	weigh := func(c proto.ChunkUpload) (fingerprint.Fingerprint, int) { return c.FP, len(c.Data) }
	return scatter(ctx, r, proto.MsgPutChunksReq, chunks, weigh, r.cfg.BatchBytes, (*server.Client).PutChunks)
}

// GetChunks fetches trimmed packages by fingerprint from their owning
// shards, returning them in input order.
func (r *Router) GetChunks(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error) {
	return scatter(ctx, r, proto.MsgGetChunksReq, fps, oneFP, fpBatch, (*server.Client).GetChunks)
}

// HasChunks reports which fingerprints are already stored, in input
// order. Read-only with no refcount effect.
func (r *Router) HasChunks(ctx context.Context, fps []fingerprint.Fingerprint) ([]bool, error) {
	return scatter(ctx, r, proto.MsgHasChunksReq, fps, oneFP, fpBatch, (*server.Client).HasChunks)
}

// RefChunks adds one reference to each fingerprint on its owning shard
// without re-sending bytes, returning presence flags in input order.
// The failure algebra is PutChunks': a replayed ref can only
// over-retain, so sub-batches that die with their connection are re-sent.
func (r *Router) RefChunks(ctx context.Context, fps []fingerprint.Fingerprint) ([]bool, error) {
	return scatter(ctx, r, proto.MsgRefChunksReq, fps, oneFP, fpBatch, (*server.Client).RefChunks)
}

// DerefChunks drops one reference from each fingerprint on its owning
// shard, returning the total number freed. Never re-sent: a failed call
// may have dropped the references of some sub-batches and not others.
func (r *Router) DerefChunks(ctx context.Context, fps []fingerprint.Fingerprint) (uint64, error) {
	var freed atomic.Uint64
	_, err := scatter(ctx, r, proto.MsgDerefChunksReq, fps, oneFP, fpBatch,
		func(c *server.Client, ctx context.Context, fps []fingerprint.Fingerprint) ([]struct{}, error) {
			n, err := c.DerefChunks(ctx, fps)
			freed.Add(n)
			return nil, err
		})
	if err != nil {
		return 0, err
	}
	return freed.Load(), nil
}

// Challenge asks a chunk's owning shard to prove possession of it.
func (r *Router) Challenge(ctx context.Context, fp fingerprint.Fingerprint, nonce []byte) ([]byte, error) {
	return call(ctx, r, proto.MsgChallengeReq, r.Owner(fp), func(c *server.Client, ctx context.Context) ([]byte, error) {
		return c.Challenge(ctx, fp, nonce)
	})
}

// --- file plane ---

// PutBlob stores a blob on the name's home shard (a verbatim overwrite).
func (r *Router) PutBlob(ctx context.Context, ns, name string, data []byte) error {
	_, err := call(ctx, r, proto.MsgPutBlobReq, r.Home(name), func(c *server.Client, ctx context.Context) (struct{}, error) {
		return struct{}{}, c.PutBlob(ctx, ns, name, data)
	})
	return err
}

// GetBlob fetches a blob from the name's home shard.
func (r *Router) GetBlob(ctx context.Context, ns, name string) ([]byte, error) {
	return call(ctx, r, proto.MsgGetBlobReq, r.Home(name), func(c *server.Client, ctx context.Context) ([]byte, error) {
		return c.GetBlob(ctx, ns, name)
	})
}

// DeleteBlob removes a blob from the name's home shard. Never re-sent:
// a replay would turn success into a spurious not-found.
func (r *Router) DeleteBlob(ctx context.Context, ns, name string) error {
	_, err := call(ctx, r, proto.MsgDeleteBlobReq, r.Home(name), func(c *server.Client, ctx context.Context) (struct{}, error) {
		return struct{}{}, c.DeleteBlob(ctx, ns, name)
	})
	return err
}

// CheckFile asks the whole-file index on the key's home shard whether
// (hash, size, policy) is already stored. The key's routing name fixes
// the home shard by the same rule as recipe names, so every client's
// lookups and registrations for one file meet on one shard.
func (r *Router) CheckFile(ctx context.Context, key fileindex.Key) (string, bool, error) {
	var found bool
	name, err := call(ctx, r, proto.MsgCheckFileReq, r.Home(key.RoutingName()), func(c *server.Client, ctx context.Context) (name string, err error) {
		name, found, err = c.CheckFile(ctx, key)
		return name, err
	})
	return name, found, err
}

// RegisterFile records a whole-file index entry on the key's home
// shard (an upsert: like PutBlob, a replay converges).
func (r *Router) RegisterFile(ctx context.Context, key fileindex.Key, name string) error {
	_, err := call(ctx, r, proto.MsgRegisterFileReq, r.Home(key.RoutingName()), func(c *server.Client, ctx context.Context) (struct{}, error) {
		return struct{}{}, c.RegisterFile(ctx, key, name)
	})
	return err
}

// ListBlobs lists a namespace across every shard, deduplicated, sorted.
func (r *Router) ListBlobs(ctx context.Context, ns string) ([]string, error) {
	lists, err := all(ctx, r, proto.MsgListBlobsReq, func(c *server.Client, ctx context.Context) ([]string, error) {
		return c.ListBlobs(ctx, ns)
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, names := range lists {
		out = append(out, names...)
	}
	sort.Strings(out)
	return slices.Compact(out), nil
}

// --- operational plane ---

// all asks every shard in turn and returns the answers in index order.
func all[R any](ctx context.Context, r *Router, typ proto.MsgType, ask func(*server.Client, context.Context) (R, error)) ([]R, error) {
	out := make([]R, len(r.conns))
	for s := range r.conns {
		var err error
		if out[s], err = call(ctx, r, typ, s, ask); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stats fetches every shard's dedup statistics, in index order.
func (r *Router) Stats(ctx context.Context) ([]proto.Stats, error) {
	return all(ctx, r, proto.MsgStatsReq, (*server.Client).Stats)
}

// ShardMetrics fetches every shard's metrics snapshot, in index order
// (empty snapshots from uninstrumented shards).
func (r *Router) ShardMetrics(ctx context.Context) ([]metrics.Snapshot, error) {
	return all(ctx, r, proto.MsgMetricsReq, (*server.Client).Metrics)
}
