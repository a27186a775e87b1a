// Package keymanager implements REED's dedicated key manager: the
// network service that turns chunk fingerprints into MLE keys via the
// blinded-RSA OPRF (internal/oprf), plus the client used by REED
// clients.
//
// The key manager never sees fingerprints — only blinded group elements —
// so it cannot infer chunk content (oblivious key generation). It
// rate-limits evaluation requests per remote client to resist online
// brute-force probing, and serves batched requests to amortize round
// trips (Section V-B, "Batching").
package keymanager

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/oprf"
	"repro/internal/proto"
	"repro/internal/ratelimit"
)

// DefaultBatchSize is the default key-generation batch. The paper uses
// 256 per-chunk requests; we widen the window to 1024 — Fig. 5b shows
// throughput still climbing at 256, and the wider batch amortizes the
// round trip and frame overhead further at a cost of ~256 KiB per
// in-flight request frame.
const DefaultBatchSize = 1024

// maxBatch bounds a single key-generation request.
const maxBatch = 1 << 16

// DefaultWorkers is the per-connection handler pool size.
const DefaultWorkers = 4

// Server is the key manager process.
type Server struct {
	key      *oprf.ServerKey
	params   []byte // marshaled public params
	rate     float64
	burst    float64
	limiters sync.Map // remote host -> *ratelimit.Limiter

	// baseCtx is the server's lifecycle context: rate-limit waits and
	// other blocking work inside request handlers select on it so
	// Shutdown can interrupt them instead of waiting out the limiter.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	shutdown bool

	evaluations uint64

	// Observability (see WithMetrics); all nil when uninstrumented.
	reg          *metrics.Registry
	ops          *metrics.OpSet
	connsGauge   *metrics.Gauge
	inflightReqs *metrics.Gauge
	rateDrops    *metrics.Counter
}

// ServerOption configures a Server.
type ServerOption interface {
	applyServer(*Server)
}

type rateLimitOption struct{ rate, burst float64 }

func (o rateLimitOption) applyServer(s *Server) { s.rate, s.burst = o.rate, o.burst }

// WithRateLimit enables per-client rate limiting: rate evaluations per
// second with the given burst. Zero rate (the default) disables
// limiting — benchmarks measure raw key-generation throughput, while a
// hardened deployment would always set this.
func WithRateLimit(rate, burst float64) ServerOption {
	return rateLimitOption{rate: rate, burst: burst}
}

type metricsOption struct{ reg *metrics.Registry }

func (o metricsOption) applyServer(s *Server) { s.reg = o.reg }

// WithMetrics instruments the key manager: per-op dispatch latency,
// connection/worker gauges, OPRF evaluation and rate-limit-drop
// counters. A nil registry leaves the server uninstrumented.
func WithMetrics(reg *metrics.Registry) ServerOption { return metricsOption{reg} }

// NewServer returns a key manager serving the given OPRF key.
func NewServer(key *oprf.ServerKey, opts ...ServerOption) *Server {
	s := &Server{
		key:    key,
		params: key.PublicParams().Marshal(),
		conns:  make(map[net.Conn]struct{}),
	}
	//reed-vet:ignore ctxrule — the server's lifecycle root, canceled by Shutdown.
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	for _, o := range opts {
		o.applyServer(s)
	}
	if s.reg != nil {
		s.ops = metrics.NewOpSet(s.reg, "dispatch", proto.OpNames())
		s.connsGauge = s.reg.Gauge("km_connections")
		s.inflightReqs = s.reg.Gauge("dispatch_inflight")
		s.rateDrops = s.reg.Counter("oprf_ratelimit_drops")
		s.reg.SetCounterFunc("oprf_evaluations", s.Evaluations)
	}
	return s
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
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
			// Shutdown closes the listener out from under Accept;
			// normalize the raw closed-connection error to net.ErrClosed
			// so callers can test for a clean stop.
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
			s.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting, closes active connections, and waits for
// handlers to drain.
func (s *Server) Shutdown() {
	s.cancelBase()
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

// Evaluations returns the number of OPRF evaluations served (for tests
// and the batching ablation).
func (s *Server) Evaluations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evaluations
}

// Metrics returns the key manager's registry (nil when uninstrumented).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// MetricsSnapshot captures the key manager's registry; empty when
// uninstrumented.
func (s *Server) MetricsSnapshot() metrics.Snapshot { return s.reg.Snapshot() }

// outFrame is one response queued for a connection's writer goroutine.
type outFrame struct {
	typ     proto.MsgType
	id      uint64
	payload []byte
}

// handleConn serves one connection with concurrent dispatch: the read
// loop keeps draining frames while up to DefaultWorkers key-generation
// batches evaluate, and responses return tagged with their request IDs
// (possibly out of order). See server.Server.handleConn for the shape;
// the two stay deliberately parallel.
func (s *Server) handleConn(conn net.Conn) {
	s.connsGauge.Inc()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connsGauge.Dec()
	}()

	limiter := s.limiterFor(conn)
	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 256<<10)

	respCh := make(chan outFrame, DefaultWorkers)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var werr error
		for f := range respCh {
			if werr != nil {
				continue // drain so handlers never block on a dead writer
			}
			if werr = proto.WriteFrame(bw, f.typ, f.id, f.payload); werr == nil && len(respCh) == 0 {
				werr = bw.Flush()
			}
			if werr != nil {
				conn.Close() // unblock the read loop
			}
		}
	}()

	sem := make(chan struct{}, DefaultWorkers)
	var handlers sync.WaitGroup
	for {
		typ, id, payload, err := proto.ReadFrame(br)
		if err != nil {
			break // EOF or broken conn: drop silently
		}
		sem <- struct{}{} // backpressure: pool full ⇒ stop reading
		handlers.Add(1)
		go func() {
			defer func() {
				<-sem
				handlers.Done()
			}()
			respType, respPayload := s.dispatchTimed(typ, payload, limiter)
			respCh <- outFrame{typ: respType, id: id, payload: respPayload}
		}()
	}
	handlers.Wait()
	close(respCh)
	<-writerDone
}

// dispatchTimed wraps dispatch with per-op accounting; a plain tail
// call when uninstrumented.
func (s *Server) dispatchTimed(typ proto.MsgType, payload []byte, limiter *ratelimit.Limiter) (proto.MsgType, []byte) {
	if s.ops == nil {
		return s.dispatch(typ, payload, limiter)
	}
	s.inflightReqs.Inc()
	start := time.Now()
	respType, respPayload := s.dispatch(typ, payload, limiter)
	s.inflightReqs.Dec()
	s.ops.Observe(int(typ), time.Since(start), respType == proto.MsgError)
	return respType, respPayload
}

func (s *Server) dispatch(typ proto.MsgType, payload []byte, limiter *ratelimit.Limiter) (proto.MsgType, []byte) {
	switch typ {
	case proto.MsgKMParamsReq:
		return proto.MsgKMParamsResp, s.params

	case proto.MsgMetricsReq:
		resp, err := proto.EncodeMetricsResp(s.reg.Snapshot())
		if err != nil {
			return proto.MsgError, proto.EncodeError(err.Error())
		}
		return proto.MsgMetricsResp, resp

	case proto.MsgKeyGenReq:
		blinded, err := proto.DecodeBlobList(payload, maxBatch)
		if err != nil {
			return proto.MsgError, proto.EncodeError(err.Error())
		}
		if limiter != nil {
			if err := limiter.Wait(s.baseCtx, float64(len(blinded))); err != nil {
				s.rateDrops.Inc()
				return proto.MsgError, proto.EncodeError("rate limited: " + err.Error())
			}
		}
		responses, err := s.evaluateBatch(blinded)
		if err != nil {
			return proto.MsgError, proto.EncodeError(err.Error())
		}
		s.mu.Lock()
		s.evaluations += uint64(len(blinded))
		s.mu.Unlock()
		return proto.MsgKeyGenResp, proto.EncodeBlobList(responses)

	default:
		return proto.MsgError, proto.EncodeError("keymanager: unexpected message " + typ.String())
	}
}

// evaluateBatch runs the OPRF over a decoded batch, in parts of
// evalPart elements spread across cores.
func (s *Server) evaluateBatch(blinded [][]byte) ([][]byte, error) {
	responses := make([][]byte, len(blinded))
	err := fanOut(len(blinded), evalPart, func(lo, hi int) error {
		resp, err := s.key.EvaluateBatch(blinded[lo:hi])
		if err != nil {
			return fmt.Errorf("evaluate elements %d to %d: %w", lo, hi-1, err)
		}
		copy(responses[lo:], resp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return responses, nil
}

// evalPart is the evaluations one fanOut part takes: the four whose CRT
// halves fill internal/rsacrt's eight-lane kernel.
const evalPart = 4

// minParallelBatch is the smallest batch fanOut spreads across cores;
// below it goroutine overhead beats the RSA savings.
const minParallelBatch = 16

// fanOut calls f over [0, n) in parts [lo, hi) of at most part items,
// and returns the first error. Up to GOMAXPROCS goroutines claim the
// parts in order, so a worker that is held up leaves its share to the
// others. A batch below minParallelBatch, or a single core, runs as one
// part on the caller's goroutine. Once a part fails no worker claims
// another.
func fanOut(n, part int, f func(lo, hi int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 || n < minParallelBatch {
		return f(0, n)
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		firstE  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				lo := int(next.Add(int64(part))) - part
				if lo >= n {
					return
				}
				if err := f(lo, min(lo+part, n)); err != nil {
					errOnce.Do(func() { firstE = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstE
}

// limiterFor returns the per-remote-host limiter, creating it on first
// use. Returns nil when rate limiting is disabled.
func (s *Server) limiterFor(conn net.Conn) *ratelimit.Limiter {
	if s.rate <= 0 {
		return nil
	}
	host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		host = conn.RemoteAddr().String()
	}
	if l, ok := s.limiters.Load(host); ok {
		lim, _ := l.(*ratelimit.Limiter)
		return lim
	}
	lim, err := ratelimit.New(s.rate, s.burst)
	if err != nil {
		return nil
	}
	actual, _ := s.limiters.LoadOrStore(host, lim)
	stored, _ := actual.(*ratelimit.Limiter)
	return stored
}
