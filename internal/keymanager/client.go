package keymanager

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/keycache"
	"repro/internal/metrics"
	"repro/internal/mle"
	"repro/internal/oprf"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/rpcmux"
)

// TLSDialer returns a dialer that connects over TLS with the given
// configuration, securing the client–key-manager channel as the paper's
// threat model assumes. Serve the key manager through
// tls.NewListener(ln, serverConfig) on the other side.
func TLSDialer(cfg *tls.Config) rpcmux.Dialer {
	return func(addr string) (net.Conn, error) {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("keymanager: tls dial: %w", err)
		}
		c := cfg.Clone()
		if c.ServerName == "" {
			c.ServerName = host
		}
		return tls.Dial("tcp", addr, c)
	}
}

// Client talks to a key manager. It batches per-chunk key requests and
// optionally consults an MLE key cache before going to the network. It
// is safe for concurrent use; requests on one connection multiplex by
// request ID (internal/rpcmux), so concurrent batches overlap their
// round trips instead of serializing.
//
// The connection heals itself: a mid-session fault triggers a redial
// with capped-jitter backoff, and OPRF evaluations — deterministic,
// stateless on the server beyond a counter — are re-issued
// transparently.
type Client struct {
	mux    *rpcmux.Redialer
	params oprf.PublicParams

	batchSize   int
	cache       *keycache.Cache
	callTimeout time.Duration
}

// ClientOption configures a Client.
type ClientOption interface {
	applyClient(*clientConfig)
}

type clientConfig struct {
	batchSize   int
	cache       *keycache.Cache
	dialer      rpcmux.Dialer
	retry       retry.Policy
	callTimeout time.Duration
}

type batchSizeOption int

func (o batchSizeOption) applyClient(c *clientConfig) { c.batchSize = int(o) }

// WithBatchSize sets how many per-chunk requests are packed into one
// network round trip (default DefaultBatchSize, 1024; the paper uses
// 256).
func WithBatchSize(n int) ClientOption { return batchSizeOption(n) }

type cacheOption struct{ cache *keycache.Cache }

func (o cacheOption) applyClient(c *clientConfig) { c.cache = o.cache }

// WithCache attaches an MLE key cache consulted before the network.
func WithCache(cache *keycache.Cache) ClientOption { return cacheOption{cache: cache} }

type dialerOption struct{ d rpcmux.Dialer }

func (o dialerOption) applyClient(c *clientConfig) { c.dialer = o.d }

// WithDialer overrides how the client connects (e.g. a bandwidth-
// throttled link).
func WithDialer(d rpcmux.Dialer) ClientOption { return dialerOption{d: d} }

type retryOption struct{ p retry.Policy }

func (o retryOption) applyClient(c *clientConfig) { c.retry = o.p }

// WithRetryPolicy sets the reconnect/retry backoff policy applied after
// mid-session connection faults (zero value: retry package defaults).
func WithRetryPolicy(p retry.Policy) ClientOption { return retryOption{p: p} }

type callTimeoutOption time.Duration

func (o callTimeoutOption) applyClient(c *clientConfig) { c.callTimeout = time.Duration(o) }

// WithCallTimeout bounds every RPC the client makes: each runs under its
// caller's context plus this deadline, so a GenerateKeys of several
// batches gets it once per round trip. Zero, the default, sets none.
func WithCallTimeout(d time.Duration) ClientOption { return callTimeoutOption(d) }

// Dial connects to the key manager at addr and fetches its public
// parameters. ctx bounds the initial connection attempt and the
// parameter fetch; it does not govern the connection's lifetime.
func Dial(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	cfg := clientConfig{batchSize: DefaultBatchSize}
	for _, o := range opts {
		o.applyClient(&cfg)
	}
	if cfg.batchSize <= 0 {
		return nil, errors.New("keymanager: batch size must be positive")
	}
	mux, err := rpcmux.Dial(ctx, addr, cfg.dialer, connBuf, cfg.retry)
	if err != nil {
		return nil, fmt.Errorf("keymanager: %w", err)
	}
	c := &Client{
		mux:         mux,
		batchSize:   cfg.batchSize,
		cache:       cfg.cache,
		callTimeout: cfg.callTimeout,
	}
	if err := c.fetchParams(ctx); err != nil {
		c.mux.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.mux.Close() }

// Reconnects reports how many times the connection has been
// re-established after a fault.
func (c *Client) Reconnects() uint64 { return c.mux.Reconnects() }

// Retries reports how many RPCs were transparently re-issued after a
// transport fault.
func (c *Client) Retries() uint64 { return c.mux.Retries() }

// Params returns the key manager's public parameters.
func (c *Client) Params() oprf.PublicParams { return c.params }

// Metrics fetches the key manager's metrics snapshot (empty when it
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

func (c *Client) fetchParams(ctx context.Context) error {
	payload, err := c.call(ctx, proto.MsgKMParamsReq, nil)
	if err != nil {
		return err
	}
	params, err := oprf.UnmarshalPublicParams(payload)
	if err != nil {
		return fmt.Errorf("keymanager: params: %w", err)
	}
	c.params = params
	return nil
}

// call performs one RPC over the multiplexed connection. Concurrent
// calls overlap their round trips. Every key-manager RPC is classed
// ReplayByTransport in the proto table — parameter fetches are reads
// and OPRF evaluations are deterministic functions of the blinded
// input — so all calls are re-issued transparently after a connection
// fault. Cancelling a call waiting
// for its response abandons just that call; cancellation that
// interrupts the request frame write retires the connection and the
// next call redials. The call timeout, if set, bounds each call.
func (c *Client) call(ctx context.Context, typ proto.MsgType, payload []byte) ([]byte, error) {
	if c.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.callTimeout)
		defer cancel()
	}
	resp, err := c.mux.Call(ctx, typ, payload)
	if err != nil {
		var re *proto.RemoteError
		if errors.As(err, &re) {
			return nil, re
		}
		return nil, fmt.Errorf("keymanager: %w", err)
	}
	return resp, nil
}

// GenerateKeys returns the MLE key for every fingerprint, in order. Keys
// found in the cache skip the network; the rest are blinded, batched
// into round trips of the configured batch size, evaluated remotely,
// unblinded, verified, and cached. Cancelling ctx aborts between and
// during batches.
func (c *Client) GenerateKeys(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error) {
	keys := make([][]byte, len(fps))
	var missIdx []int
	if c.cache != nil {
		for i, fp := range fps {
			if key, ok := c.cache.Get(fp); ok {
				keys[i] = key
			} else {
				missIdx = append(missIdx, i)
			}
		}
	} else {
		missIdx = make([]int, len(fps))
		for i := range fps {
			missIdx[i] = i
		}
	}

	for start := 0; start < len(missIdx); start += c.batchSize {
		end := start + c.batchSize
		if end > len(missIdx) {
			end = len(missIdx)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("keymanager: %w", err)
		}
		if err := c.generateBatch(ctx, fps, keys, missIdx[start:end]); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// generateBatch resolves one batch of cache misses. The batch is blinded
// in one contiguous part per core, each part an oprf.BlindBatch with one
// modular inversion.
func (c *Client) generateBatch(ctx context.Context, fps []fingerprint.Fingerprint, keys [][]byte, idx []int) error {
	blinded := make([][]byte, len(idx))
	unblinders := make([]*oprf.Unblinder, len(idx))
	procs := runtime.GOMAXPROCS(0)
	err := fanOut(len(idx), (len(idx)+procs-1)/procs, func(lo, hi int) error {
		in := make([][]byte, hi-lo)
		for i := range in {
			in[i] = fps[idx[lo+i]][:]
		}
		b, u, err := oprf.BlindBatch(c.params, in, nil)
		if err != nil {
			return fmt.Errorf("keymanager: blind: %w", err)
		}
		copy(blinded[lo:], b)
		copy(unblinders[lo:], u)
		return nil
	})
	if err != nil {
		return err
	}

	payload, err := c.call(ctx, proto.MsgKeyGenReq, proto.EncodeBlobList(blinded))
	if err != nil {
		return fmt.Errorf("keymanager: keygen rpc: %w", err)
	}
	responses, err := proto.DecodeBlobList(payload, len(idx))
	if err != nil {
		return err
	}
	if len(responses) != len(idx) {
		return fmt.Errorf("keymanager: got %d responses for %d requests", len(responses), len(idx))
	}
	if err := c.finalizeBatch(unblinders, responses, keys, idx); err != nil {
		return err
	}
	if c.cache != nil {
		for _, j := range idx {
			c.cache.Put(fps[j], keys[j])
		}
	}
	return nil
}

// finalizeBatch unblinds and verifies a batch of responses in parts of
// finalizePart, each an oprf.FinalizeBatch.
func (c *Client) finalizeBatch(unblinders []*oprf.Unblinder, responses [][]byte, keys [][]byte, idx []int) error {
	return fanOut(len(idx), finalizePart, func(lo, hi int) error {
		out, err := oprf.FinalizeBatch(c.params, unblinders[lo:hi], responses[lo:hi])
		if err != nil {
			return fmt.Errorf("keymanager: finalize elements %d to %d: %w", lo, hi-1, err)
		}
		for i, key := range out {
			keys[idx[lo+i]] = key
		}
		return nil
	})
}

// finalizePart is the responses one fanOut part of finalizeBatch takes:
// the eight that fill internal/rsacrt's public-side batch kernel.
const finalizePart = 8

// DeriveKey implements mle.KeyDeriver for single-chunk callers (the
// interface carries no context, so the call is not cancellable).
func (c *Client) DeriveKey(fp fingerprint.Fingerprint) ([]byte, error) {
	//reed-vet:ignore ctxrule — mle.KeyDeriver's signature carries no context.
	keys, err := c.GenerateKeys(context.Background(), []fingerprint.Fingerprint{fp})
	if err != nil {
		return nil, err
	}
	return keys[0], nil
}

var _ mle.KeyDeriver = (*Client)(nil)
