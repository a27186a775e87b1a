package rpcmux

import (
	"bufio"
	"context"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
)

// Handler answers one request frame with a response type and a payload
// given as a gather list. A connection runs up to its server's pool of
// handlers at once, so a Handler must be safe for concurrent use.
type Handler func(ctx context.Context, typ proto.MsgType, payload []byte) (proto.MsgType, net.Buffers)

// Server is the server end of the protocol, shared by the storage
// server and the key manager. It accepts connections and serves each
// with a bounded pool of handler goroutines: the read loop keeps
// draining request frames while up to workers handlers run, and a full
// pool blocks the read loop, so backpressure reaches the peer through
// TCP instead of buffering without bound. One writer goroutine per
// connection sends each response tagged with its request's ID, possibly
// out of order, and flushes only when no other response is queued.
//
// A Server never cancels its handlers' context: Serve runs every
// handler under the caller's ctx, and the caller decides whether to
// cancel it before Shutdown (so blocked handlers return) or after (so
// in-flight work completes).
type Server struct {
	newHandler func(net.Conn) Handler
	workers    int
	buf        int

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	shutdown bool

	// Instruments; all nil when uninstrumented.
	ops        *metrics.OpSet
	inflight   *metrics.Gauge
	connsGauge *metrics.Gauge
}

// NewServer returns a server that gives each accepted connection the
// handler newHandler builds for it, a pool of workers concurrent
// handlers, and read and write buffers of buf bytes. With a registry it
// records dispatch_total, dispatch_errors and dispatch_latency per
// request type, the dispatch_inflight gauge, and the open connections
// on conns; a nil registry and gauge cost nothing per request.
func NewServer(workers, buf int, reg *metrics.Registry, conns *metrics.Gauge, newHandler func(net.Conn) Handler) *Server {
	return &Server{
		newHandler: newHandler,
		workers:    workers,
		buf:        buf,
		conns:      make(map[net.Conn]struct{}),
		ops:        metrics.NewOpSet(reg, "dispatch", proto.OpNames()),
		inflight:   reg.Gauge("dispatch_inflight"),
		connsGauge: conns,
	}
}

// Serve accepts connections on ln until Shutdown, running every handler
// under ctx. It always returns a non-nil error; after Shutdown it is
// net.ErrClosed, also when Shutdown ran before Serve was called.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		// Shutdown ran before this loop stored ln, so it never saw the
		// listener: close it here and report the same clean stop.
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			// Shutdown closes the listener out from under Accept, which
			// surfaces as a raw "use of closed network connection";
			// normalize that to net.ErrClosed so callers can test for a
			// clean stop.
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return net.ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(ctx, conn)
		}()
	}
}

// Shutdown stops accepting, closes every open connection, and waits
// until their handlers have finished and their responses drained. It
// does not cancel the handlers' context.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.shutdown = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// outFrame is one response queued for a connection's writer goroutine;
// its payload is the concatenation of the parts.
type outFrame struct {
	typ     proto.MsgType
	id      uint64
	payload net.Buffers
}

// writeReply writes one response frame. A frame that fits the write
// buffer is copied into it, to be flushed together with the replies
// queued behind it; a larger one — in practice a GetChunks reply — is
// sent after whatever is buffered as one vectored write of its parts, so
// chunk bytes go from the store to the socket without a copy.
func writeReply(bw *bufio.Writer, conn io.Writer, f outFrame) error {
	size := proto.FrameHeaderSize
	for _, p := range f.payload {
		size += len(p)
	}
	if size <= bw.Size() {
		return proto.WriteFrame(bw, f.typ, f.id, f.payload...)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return proto.WriteFrameVectored(conn, f.typ, f.id, f.payload...)
}

// serveConn serves one connection until it closes — peer disconnect or
// Shutdown — and then unwinds cleanly: in-flight handlers finish, their
// responses are drained, and only then does the connection retire.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	s.connsGauge.Inc()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connsGauge.Dec()
	}()

	handle := s.newHandler(conn)
	br := bufio.NewReaderSize(conn, s.buf)
	bw := bufio.NewWriterSize(conn, s.buf)

	respCh := make(chan outFrame, s.workers)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var werr error
		for f := range respCh {
			if werr != nil {
				continue // drain so handlers never block on a dead writer
			}
			if werr = writeReply(bw, conn, f); werr == nil && len(respCh) == 0 {
				// Flush only when no more responses are queued,
				// coalescing bursts into one syscall.
				werr = bw.Flush()
			}
			if werr != nil {
				conn.Close() // unblock the read loop
			}
		}
	}()

	sem := make(chan struct{}, s.workers)
	var handlers sync.WaitGroup
	for {
		typ, id, payload, err := proto.ReadFrame(br)
		if err != nil {
			break // EOF or broken conn: retire quietly
		}
		sem <- struct{}{} // backpressure: pool full ⇒ stop reading
		handlers.Add(1)
		go func() {
			defer func() {
				<-sem
				handlers.Done()
			}()
			respType, respPayload := s.dispatch(ctx, handle, typ, payload)
			respCh <- outFrame{typ: respType, id: id, payload: respPayload}
		}()
	}
	handlers.Wait()
	close(respCh)
	<-writerDone
}

// dispatch runs one handler with per-op accounting. With no registry
// attached it is a plain tail call: instrumentation must cost nothing
// when disabled.
func (s *Server) dispatch(ctx context.Context, handle Handler, typ proto.MsgType, payload []byte) (proto.MsgType, net.Buffers) {
	if s.ops == nil {
		return handle(ctx, typ, payload)
	}
	s.inflight.Inc()
	start := time.Now()
	respType, respPayload := handle(ctx, typ, payload)
	s.inflight.Dec()
	s.ops.Observe(int(typ), time.Since(start), respType == proto.MsgError)
	return respType, respPayload
}
