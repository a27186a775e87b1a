package rpcmux

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/retry"
)

// Dialer opens a connection to an address. Clients inject one to route
// through an emulated link (internal/netem), a traced connection or TLS;
// nil means plain TCP.
type Dialer func(addr string) (net.Conn, error)

// Dial connects to addr and returns a Redialer over the connection, with
// buf as both buffer sizes of New. ctx bounds the first dial only: the
// redials that replace the connection after a fault run long after it
// has expired, so they use the context-free Dialer form. A nil dialer
// dials plain TCP, the first time under ctx. The policy is Redialer's.
func Dial(ctx context.Context, addr string, dialer Dialer, buf int, policy retry.Policy) (*Redialer, error) {
	var conn net.Conn
	var err error
	if dialer != nil {
		conn, err = dialer(addr)
	} else {
		conn, err = (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	redial := func() (net.Conn, error) { return dialer(addr) }
	return newRedialer(conn, redial, buf, policy), nil
}

// Redialer keeps one multiplexed connection alive across transport
// faults. A Call that fails at the connection level (peer reset, dead
// socket, poisoned stream) retires the current Conn; the next attempt
// redials with capped-jitter backoff and, when the request's class in
// the proto table is ReplayByTransport, re-issues it transparently.
// Requests of any other class are never re-issued — their failure is
// surfaced to the caller, but the retired connection is still replaced
// so the caller's own retry (or the next call) finds a fresh link.
//
// Remote errors (proto.RemoteError) are application responses carried
// over a healthy connection: they are returned as-is and never retried
// here.
//
// Counters distinguish the two recovery layers: Reconnects counts
// replacement dials that succeeded, Retries counts calls re-issued
// after a transport failure.
type Redialer struct {
	dial   func() (net.Conn, error)
	buf    int
	policy retry.Policy

	mu     sync.Mutex
	conn   *Conn
	closed bool

	// Per-redialer fault counters. These back both the RetryStats
	// surfaces (Reconnects/Retries accessors) and, when a registry is
	// attached upstream, its reconnect/retry families — one set of
	// numbers, two views.
	reconnects *metrics.Counter
	retries    *metrics.Counter

	inst atomic.Pointer[Instruments]
}

// Instruments is the optional registry-backed instrumentation for a
// Redialer: per-op call/error/latency and an in-flight gauge. Fields
// may be nil (nil instruments are no-ops).
type Instruments struct {
	// Ops is indexed by the request's proto.MsgType.
	Ops *metrics.OpSet
	// Inflight counts calls currently executing through this redialer.
	Inflight *metrics.Gauge
}

// newRedialer wraps an already-established connection (the eager first
// dial stays with the caller so dial errors surface at construction
// time) and the dial function used to replace it after faults. buf is
// both buffer sizes of New; the policy bounds reconnect/retry backoff
// and is used with its zero-value defaults if unset.
func newRedialer(conn net.Conn, dial func() (net.Conn, error), buf int, policy retry.Policy) *Redialer {
	r := &Redialer{
		dial:       dial,
		buf:        buf,
		policy:     policy,
		reconnects: metrics.NewCounter(),
		retries:    metrics.NewCounter(),
	}
	if conn != nil {
		r.conn = New(conn, buf, buf)
	}
	return r
}

// Close tears down the current connection and stops all future redials.
func (r *Redialer) Close() error {
	r.mu.Lock()
	conn := r.conn
	r.conn = nil
	r.closed = true
	r.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Reconnects returns how many replacement connections have been
// established after transport faults.
func (r *Redialer) Reconnects() uint64 { return r.reconnects.Value() }

// Retries returns how many calls were re-issued after a transport
// failure.
func (r *Redialer) Retries() uint64 { return r.retries.Value() }

// Instrument attaches per-op instrumentation to subsequent Calls.
// Passing nil detaches. Safe to call concurrently with Calls.
func (r *Redialer) Instrument(in *Instruments) { r.inst.Store(in) }

// acquire returns the live Conn, dialing a replacement if the previous
// one was retired. Concurrent callers share one replacement dial: the
// lock is held across the dial, so the first caller to notice the dead
// connection pays for the redial and the rest reuse it.
func (r *Redialer) acquire() (*Conn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if r.conn != nil {
		return r.conn, nil
	}
	raw, err := r.dial()
	if err != nil {
		return nil, fmt.Errorf("rpcmux: redial: %w", err)
	}
	r.conn = New(raw, r.buf, r.buf)
	r.reconnects.Inc()
	return r.conn, nil
}

// retire drops conn from the redialer if it is still current, so the
// next acquire dials a replacement. Late retires of already-replaced
// connections are no-ops.
func (r *Redialer) retire(conn *Conn) {
	r.mu.Lock()
	if r.conn == conn {
		r.conn = nil
	}
	r.mu.Unlock()
	_ = conn.Close()
}

// Call performs one RPC with transparent reconnection. The request's
// retry class (proto.MsgType.Retry) decides what happens after a
// connection-level failure: ReplayByTransport calls are re-issued with
// backoff; any other class gets the first transport failure back,
// though the dead connection is still retired so later calls recover.
// Context cancellation always stops the loop promptly.
func (r *Redialer) Call(ctx context.Context, typ proto.MsgType, payload []byte) ([]byte, error) {
	inst := r.inst.Load()
	if inst == nil {
		return r.call(ctx, typ, payload)
	}
	inst.Inflight.Inc()
	start := time.Now()
	resp, err := r.call(ctx, typ, payload)
	inst.Inflight.Dec()
	inst.Ops.Observe(int(typ), time.Since(start), err != nil)
	return resp, err
}

// call is the uninstrumented redial/re-issue loop behind Call.
func (r *Redialer) call(ctx context.Context, typ proto.MsgType, payload []byte) ([]byte, error) {
	replay := typ.Retry() == proto.ReplayByTransport
	var resp []byte
	p := r.policy
	inner := p.OnRetry
	p.OnRetry = func(attempt int, err error, d time.Duration) {
		r.retries.Inc()
		if inner != nil {
			inner(attempt, err, d)
		}
	}
	op := func(ctx context.Context) error {
		conn, err := r.acquire()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return retry.Permanent(err)
			}
			return err // dial failure: transient, retry
		}
		resp, err = conn.Call(ctx, typ, payload, typ.Response())
		if err == nil {
			return nil
		}
		var re *proto.RemoteError
		if errors.As(err, &re) {
			return retry.Permanent(err) // healthy connection, app-level error
		}
		if ctx.Err() != nil {
			// The caller's context ended; whether the conn died with it
			// is settled below by the mux itself.
			return retry.Permanent(err)
		}
		// Connection-level failure: replace the link either way, but
		// only re-issue when a second delivery is harmless — the class
		// allows replay, or the frame never hit the wire.
		r.retire(conn)
		if !replay && !errors.Is(err, ErrNotIssued) {
			return retry.Permanent(err)
		}
		return err
	}
	if err := retry.Do(ctx, p, op); err != nil {
		return nil, err
	}
	return resp, nil
}
