package server

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/rpcmux"
)

// Client is the client side of one storage-server connection. Requests
// multiplex over the connection: concurrent calls are tagged with
// request IDs and their round trips overlap (internal/rpcmux), so a
// single connection pipelines. Opening several Clients still helps when
// the bottleneck is a single TCP stream, as in the paper's multi-
// connection deployment (Section V-B).
//
// The connection heals itself: when it dies mid-session (peer reset,
// transient network fault) the client redials with capped-jitter
// backoff, and requests whose class in the proto table is
// ReplayByTransport — all reads, plus blob and file-index puts, which
// are verbatim overwrites — are re-issued transparently. Chunk puts and
// refs (ResendByRouter) and the reference-dropping mutations
// DerefChunks and DeleteBlob (NeverReplay) are never auto-re-issued
// once their frame may have reached the server; cluster.Router re-sends
// the former and the caller decides about the latter. No method here
// states its class: the transport looks it up from the request type.
//
// Every RPC takes a context. Cancelling a call that is waiting for its
// response abandons just that call; cancellation that interrupts an
// in-flight frame write retires the connection, and the next call
// redials.
type Client struct {
	mux *rpcmux.Redialer
}

// DialStore connects to the storage server at addr. ctx bounds the
// initial connection attempt only. A nil dialer uses plain TCP. The
// retry policy governs reconnection backoff after mid-session faults; a
// zero policy uses the retry package defaults.
func DialStore(ctx context.Context, addr string, dialer rpcmux.Dialer, policy retry.Policy) (*Client, error) {
	mux, err := rpcmux.Dial(ctx, addr, dialer, connBuf, policy)
	if err != nil {
		return nil, fmt.Errorf("server client: %w", err)
	}
	return &Client{mux: mux}, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	return c.mux.Close()
}

// Reconnects reports how many times the underlying connection has been
// re-established after a fault.
func (c *Client) Reconnects() uint64 { return c.mux.Reconnects() }

// Retries reports how many RPCs were transparently re-issued after a
// transport fault.
func (c *Client) Retries() uint64 { return c.mux.Retries() }

func (c *Client) call(ctx context.Context, typ proto.MsgType, payload []byte) ([]byte, error) {
	resp, err := c.mux.Call(ctx, typ, payload)
	if err != nil {
		var re *proto.RemoteError
		if errors.As(err, &re) {
			return nil, re
		}
		return nil, fmt.Errorf("server client: %w", err)
	}
	return resp, nil
}

// PutChunks uploads a batch of trimmed packages and returns per-chunk
// duplicate flags. It is not auto-re-issued after a mid-flight
// connection fault: re-PUT is dedup-safe for the stored bytes, but it
// inflates reference counts (see internal/dedup), so the cluster
// router owns that retry.
func (c *Client) PutChunks(ctx context.Context, chunks []proto.ChunkUpload) ([]bool, error) {
	if len(chunks) == 0 {
		return nil, nil
	}
	payload, err := c.call(ctx, proto.MsgPutChunksReq, proto.EncodePutChunksReq(chunks))
	if err != nil {
		return nil, err
	}
	dups, err := proto.DecodePutChunksResp(payload)
	if err != nil {
		return nil, err
	}
	if len(dups) != len(chunks) {
		return nil, errors.New("server client: dup count mismatch")
	}
	return dups, nil
}

// GetChunks fetches a batch of trimmed packages by fingerprint, in
// order. A server may answer with only the leading chunks of a batch
// whose bytes would overflow one reply frame; the rest are asked for
// again until every chunk has arrived. The returned slices alias the
// reply frames, which belong to the caller. Read-only: re-issued
// transparently after connection faults.
func (c *Client) GetChunks(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error) {
	if len(fps) == 0 {
		return nil, nil
	}
	out := make([][]byte, 0, len(fps))
	for len(out) < len(fps) {
		rest := fps[len(out):]
		payload, err := c.call(ctx, proto.MsgGetChunksReq, proto.EncodeGetChunksReq(rest))
		if err != nil {
			return nil, err
		}
		datas, err := proto.DecodeBlobList(payload, len(rest))
		if err != nil {
			return nil, err
		}
		if len(datas) == 0 {
			return nil, errors.New("server client: empty chunk reply")
		}
		out = append(out, datas...)
	}
	return out, nil
}

// PutBlob stores a blob (recipe, stub file, or key state). Blob puts
// are verbatim whole-object overwrites, so replaying one after a
// connection fault converges to the same state; the call is re-issued
// transparently.
func (c *Client) PutBlob(ctx context.Context, ns, name string, data []byte) error {
	_, err := c.call(ctx, proto.MsgPutBlobReq, proto.EncodeBlobReq(ns, name, data))
	return err
}

// GetBlob fetches a blob. Read-only: re-issued transparently.
func (c *Client) GetBlob(ctx context.Context, ns, name string) ([]byte, error) {
	return c.call(ctx, proto.MsgGetBlobReq, proto.EncodeBlobReq(ns, name, nil))
}

// DerefChunks drops one reference from each listed chunk, returning how
// many were freed entirely. Each delivery decrements refcounts, so the
// call is never auto-re-issued once it may have executed.
func (c *Client) DerefChunks(ctx context.Context, fps []fingerprint.Fingerprint) (uint64, error) {
	if len(fps) == 0 {
		return 0, nil
	}
	payload, err := c.call(ctx, proto.MsgDerefChunksReq, proto.EncodeGetChunksReq(fps))
	if err != nil {
		return 0, err
	}
	return proto.DecodeDerefChunksResp(payload)
}

// DeleteBlob removes a blob. A replay would turn success into a
// spurious not-found error, so the call is never auto-re-issued once it
// may have executed.
func (c *Client) DeleteBlob(ctx context.Context, ns, name string) error {
	_, err := c.call(ctx, proto.MsgDeleteBlobReq, proto.EncodeBlobReq(ns, name, nil))
	return err
}

// CheckFile asks the whole-file index whether (hash, size, policy) is
// already stored, returning the owning recipe's remote name on a hit.
// Read-only: re-issued transparently after connection faults.
func (c *Client) CheckFile(ctx context.Context, key fileindex.Key) (string, bool, error) {
	payload, err := c.call(ctx, proto.MsgCheckFileReq, proto.EncodeCheckFileReq(key))
	if err != nil {
		return "", false, err
	}
	return proto.DecodeCheckFileResp(payload)
}

// RegisterFile records a whole-file index entry mapping key to the
// recipe stored under name. An idempotent upsert — like PutBlob, a
// replay converges to the same state — so the transport re-issues it
// transparently after connection faults.
func (c *Client) RegisterFile(ctx context.Context, key fileindex.Key, name string) error {
	_, err := c.call(ctx, proto.MsgRegisterFileReq, proto.EncodeRegisterFileReq(key, name))
	return err
}

// HasChunks reports which of the listed fingerprints the server
// stores, with no refcount effect. Read-only: re-issued transparently
// after connection faults.
func (c *Client) HasChunks(ctx context.Context, fps []fingerprint.Fingerprint) ([]bool, error) {
	if len(fps) == 0 {
		return nil, nil
	}
	payload, err := c.call(ctx, proto.MsgHasChunksReq, proto.EncodeGetChunksReq(fps))
	if err != nil {
		return nil, err
	}
	present, err := proto.DecodePutChunksResp(payload)
	if err != nil {
		return nil, err
	}
	if len(present) != len(fps) {
		return nil, errors.New("server client: presence count mismatch")
	}
	return present, nil
}

// RefChunks adds one reference to each listed fingerprint without
// re-sending its bytes, returning which were present. Like PutChunks
// it mutates refcounts, so it is never auto-re-issued once its frame
// may have reached the server; the cluster router owns that retry
// (a replay can only over-retain, exactly like a re-PUT).
func (c *Client) RefChunks(ctx context.Context, fps []fingerprint.Fingerprint) ([]bool, error) {
	if len(fps) == 0 {
		return nil, nil
	}
	payload, err := c.call(ctx, proto.MsgRefChunksReq, proto.EncodeGetChunksReq(fps))
	if err != nil {
		return nil, err
	}
	found, err := proto.DecodePutChunksResp(payload)
	if err != nil {
		return nil, err
	}
	if len(found) != len(fps) {
		return nil, errors.New("server client: ref count mismatch")
	}
	return found, nil
}

// Challenge asks the server to prove possession of a chunk: it returns
// H(nonce || stored bytes). Read-only: re-issued transparently.
func (c *Client) Challenge(ctx context.Context, fp fingerprint.Fingerprint, nonce []byte) ([]byte, error) {
	return c.call(ctx, proto.MsgChallengeReq, proto.EncodeChallengeReq(fp, nonce))
}

// ListBlobs lists the blob names in a namespace. Read-only: re-issued
// transparently.
func (c *Client) ListBlobs(ctx context.Context, ns string) ([]string, error) {
	payload, err := c.call(ctx, proto.MsgListBlobsReq, proto.EncodeListBlobsReq(ns))
	if err != nil {
		return nil, err
	}
	return proto.DecodeListBlobsResp(payload)
}

// Stats fetches the server's dedup statistics. Read-only: re-issued
// transparently.
func (c *Client) Stats(ctx context.Context) (proto.Stats, error) {
	payload, err := c.call(ctx, proto.MsgStatsReq, nil)
	if err != nil {
		return proto.Stats{}, err
	}
	return proto.DecodeStats(payload)
}

// Metrics fetches the server's metrics snapshot (empty when the server
// runs uninstrumented). Read-only: re-issued transparently.
func (c *Client) Metrics(ctx context.Context) (metrics.Snapshot, error) {
	payload, err := c.call(ctx, proto.MsgMetricsReq, nil)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	return proto.DecodeMetricsResp(payload)
}

// Instrument attaches client-side RPC instrumentation (per-op latency
// and in-flight gauge) to this connection. Passing nil detaches.
func (c *Client) Instrument(in *rpcmux.Instruments) { c.mux.Instrument(in) }
