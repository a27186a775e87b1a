// Package rpcmux multiplexes many in-flight RPCs over one framed
// connection. It holds both ends of the protocol that clients speak to
// the storage servers and the key manager.
//
// The wire protocol tags every frame with an 8-byte request ID
// (internal/proto), so responses may return in any order. On the client
// end a Conn owns the connection: callers issue Call concurrently, each
// call is assigned a fresh ID and written to the socket, and a single
// reader goroutine demultiplexes response frames back to the waiting
// callers. This converts the paper's many-connections-per-client
// parallelism (Section V-B) into pipelining on a single connection:
// with N calls in flight, N network round trips overlap. Dial opens a
// Redialer, which replaces a Conn that a transport fault killed.
//
// On the server end a Server accepts connections and runs each
// request frame through the daemon's Handler on a bounded per-connection
// pool, writing each reply back under its request's ID (server.go).
//
// Cancellation follows the GuardConn discipline from internal/proto:
//
//   - cancelling a call while its request frame is being *written*
//     poisons the connection's deadline, because a half-written frame
//     desynchronizes the stream; the Conn then fails permanently;
//   - cancelling a call while *waiting* for its response is clean: the
//     caller abandons its ID, the late response is discarded on
//     arrival, and the connection remains usable by other calls.
package rpcmux

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/proto"
)

// respChPool recycles the per-call response channels. A channel is
// returned to the pool only after its call has been forgotten and the
// channel drained, so every pooled channel is empty and send-free.
var respChPool = sync.Pool{
	New: func() any { return make(chan response, 1) },
}

// ErrClosed is returned for calls on a Conn that was closed by Close,
// poisoned by a cancelled write, or torn down by a read error.
var ErrClosed = errors.New("rpcmux: connection closed")

// ErrNotIssued additionally marks a failed call whose request frame was
// never written to the socket: the peer cannot have executed it, so
// re-issuing is safe even for non-idempotent RPCs. Redialer relies on
// this to recover queued calls that hit an already-dead connection.
var ErrNotIssued = errors.New("rpcmux: request not issued")

// response is one demultiplexed frame.
type response struct {
	typ     proto.MsgType
	payload []byte
}

// Conn is a multiplexed client connection. It is safe for concurrent
// use; calls on one Conn pipeline rather than serialize.
type Conn struct {
	conn net.Conn
	br   *bufio.Reader

	// wmu serializes frame writes; a frame must hit the socket intact.
	// Frames up to smallFrame bytes are assembled header+payload in wbuf
	// and written with one syscall; larger frames go out as a vectored
	// write so the payload is never copied.
	wmu        sync.Mutex
	smallFrame int
	wbuf       []byte // guarded by wmu
	nextID     uint64 // guarded by wmu; IDs start at 1

	// mu guards the demux state below.
	mu      sync.Mutex
	pending map[uint64]chan response
	closed  bool
	readErr error // terminal error observed by the read loop

	// done closes when the Conn is dead: Close was called, a write was
	// poisoned, or the read loop exited. Waiters select on it.
	done     chan struct{}
	doneOnce sync.Once
}

// New wraps conn in a multiplexer and starts its reader goroutine.
// readBuf is the bufio reader capacity; writeBuf is the small-frame
// threshold — frames up to that total size are coalesced into the
// Conn's write buffer for a single write, larger ones use a vectored
// write. Zero means a 64 KiB default for both.
func New(conn net.Conn, readBuf, writeBuf int) *Conn {
	if readBuf <= 0 {
		readBuf = 64 << 10
	}
	if writeBuf <= 0 {
		writeBuf = 64 << 10
	}
	c := &Conn{
		conn:       conn,
		br:         bufio.NewReaderSize(conn, readBuf),
		smallFrame: writeBuf,
		pending:    make(map[uint64]chan response),
		done:       make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// writeFrame sends one frame; the caller holds wmu. It picks the
// small-frame (one write from wbuf) or large-frame (vectored write)
// path.
func (c *Conn) writeFrame(typ proto.MsgType, id uint64, payload []byte) error {
	if len(payload)+proto.FrameHeaderSize > c.smallFrame {
		return proto.WriteFrameVectored(c.conn, typ, id, payload)
	}
	frame, err := proto.AppendFrame(c.wbuf[:0], typ, id, payload)
	if err != nil {
		return err
	}
	c.wbuf = frame
	_, err = c.conn.Write(frame)
	return err
}

// Close tears down the connection. In-flight calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	return c.conn.Close()
}

// fail marks the Conn dead with err and releases every waiter.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.readErr = err
	}
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	_ = c.conn.Close()
}

// closedErr reports the terminal error to surface for a dead Conn.
func (c *Conn) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil && !errors.Is(c.readErr, net.ErrClosed) {
		return fmt.Errorf("%w: %w", ErrClosed, c.readErr)
	}
	return ErrClosed
}

// readLoop demultiplexes response frames to waiting callers. Responses
// for abandoned IDs (cancelled waiters) are discarded.
func (c *Conn) readLoop() {
	for {
		typ, id, payload, err := proto.ReadFrame(c.br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
			// Sending under mu is what makes channel recycling sound:
			// the channel is buffered (cap 1), at most one send can ever
			// target an ID (it is deleted from pending first), so this
			// never blocks — and once a caller has forgotten the ID and
			// drained the channel, no further send can race a pool reuse.
			ch <- response{typ: typ, payload: payload}
		}
		c.mu.Unlock()
	}
}

// Call performs one RPC: it writes a frame carrying typ/payload tagged
// with a fresh request ID and waits for the matching response. A
// response of type want returns its payload; a proto.MsgError response
// decodes into a *proto.RemoteError; any other type is a protocol
// error. Concurrent calls share the connection and their round trips
// overlap.
func (c *Conn) Call(ctx context.Context, typ proto.MsgType, payload []byte, want proto.MsgType) ([]byte, error) {
	ch := respChPool.Get().(chan response)

	// Register before writing so a fast response cannot race the
	// pending-table entry.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		respChPool.Put(ch)
		return nil, fmt.Errorf("%w: %w", ErrNotIssued, c.closedErr())
	}
	c.mu.Unlock()

	c.wmu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wmu.Unlock()
		respChPool.Put(ch)
		return nil, fmt.Errorf("%w: %w", ErrNotIssued, c.closedErr())
	}
	c.pending[id] = ch
	c.mu.Unlock()

	// Guard the write: if ctx fires mid-frame the stream is
	// desynchronized and the whole Conn must die.
	release := proto.GuardConn(ctx, c.conn)
	err := c.writeFrame(typ, id, payload)
	cancelled := release()
	c.wmu.Unlock()
	if cancelled != nil {
		c.fail(cancelled)
		c.recycle(id, ch)
		return nil, fmt.Errorf("rpcmux: %w", cancelled)
	}
	if err != nil {
		c.fail(err)
		c.recycle(id, ch)
		return nil, fmt.Errorf("rpcmux: write: %w", err)
	}

	select {
	case resp := <-ch:
		c.recycle(id, ch)
		return c.handleResponse(resp, want)
	case <-ctx.Done():
		// Clean abandon: the reader discards the late response and the
		// connection stays in sync for other callers. The response may
		// have landed between ctx firing and the forget inside recycle;
		// prefer delivering it.
		if resp, late := c.recycle(id, ch); late {
			return c.handleResponse(resp, want)
		}
		return nil, fmt.Errorf("rpcmux: %w", ctx.Err())
	case <-c.done:
		// A response may have been delivered just before teardown.
		if resp, late := c.recycle(id, ch); late {
			return c.handleResponse(resp, want)
		}
		return nil, c.closedErr()
	}
}

// recycle retires a call: it forgets the pending ID, drains any late
// response, and returns the now provably idle channel to the pool. The
// drained response (if any) is returned so abandon paths can still
// deliver a result that raced the abandonment. After the forget, no
// sender can touch ch — readLoop only sends to IDs still in pending,
// and it does so under mu — so pooling it is race-free.
func (c *Conn) recycle(id uint64, ch chan response) (response, bool) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	select {
	case resp := <-ch:
		respChPool.Put(ch)
		return resp, true
	default:
		respChPool.Put(ch)
		return response{}, false
	}
}

func (c *Conn) handleResponse(resp response, want proto.MsgType) ([]byte, error) {
	if resp.typ == proto.MsgError {
		re, derr := proto.DecodeError(resp.payload)
		if derr != nil {
			return nil, derr
		}
		return nil, re
	}
	if resp.typ != want {
		return nil, fmt.Errorf("rpcmux: unexpected response %v, want %v", resp.typ, want)
	}
	return resp.payload, nil
}
