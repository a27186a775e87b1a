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
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/oprf"
	"repro/internal/proto"
	"repro/internal/ratelimit"
	"repro/internal/rpcmux"
)

// DefaultBatchSize is the default key-generation batch. The paper uses
// 256 per-chunk requests; we widen the window to 1024 — Fig. 5b shows
// throughput still climbing at 256, and the wider batch amortizes the
// round trip and frame overhead further at a cost of ~256 KiB per
// in-flight request frame.
const DefaultBatchSize = 1024

// maxBatch bounds a single key-generation request.
const maxBatch = 1 << 16

// connWorkers is the per-connection handler pool size.
const connWorkers = 4

// connBuf sizes each connection's read and write buffers, on both ends.
const connBuf = 256 << 10

// Server is the key manager process.
type Server struct {
	key      *oprf.ServerKey
	params   []byte // marshaled public params
	rate     float64
	burst    float64
	limiters sync.Map // remote host -> *ratelimit.Limiter

	// mux accepts connections and runs dispatch for their requests.
	mux *rpcmux.Server

	// baseCtx is the server's lifecycle context: rate-limit waits and
	// other blocking work inside request handlers select on it so
	// Shutdown can interrupt them instead of waiting out the limiter.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu          sync.Mutex
	evaluations uint64

	// Observability (see WithMetrics); nil when uninstrumented.
	reg       *metrics.Registry
	rateDrops *metrics.Counter
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
	}
	//reed-vet:ignore ctxrule — the server's lifecycle root, canceled by Shutdown.
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	for _, o := range opts {
		o.applyServer(s)
	}
	if s.reg != nil {
		s.rateDrops = s.reg.Counter("oprf_ratelimit_drops")
		s.reg.SetCounterFunc("oprf_evaluations", s.Evaluations)
	}
	s.mux = rpcmux.NewServer(connWorkers, connBuf, s.reg, s.reg.Gauge("km_connections"), s.handlerFor)
	return s
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	return s.mux.Serve(s.baseCtx, ln)
}

// Shutdown stops accepting, closes active connections, and waits for
// handlers to drain. It cancels the lifecycle context first, so a
// handler blocked in the rate limiter returns instead of holding the
// drain up.
func (s *Server) Shutdown() {
	s.cancelBase()
	s.mux.Shutdown()
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

// handlerFor binds a connection's requests to the rate limiter of its
// remote host.
func (s *Server) handlerFor(conn net.Conn) rpcmux.Handler {
	limiter := s.limiterFor(conn)
	return func(ctx context.Context, typ proto.MsgType, payload []byte) (proto.MsgType, net.Buffers) {
		respType, resp := s.dispatch(ctx, typ, payload, limiter)
		return respType, net.Buffers{resp}
	}
}

func (s *Server) dispatch(ctx context.Context, typ proto.MsgType, payload []byte, limiter *ratelimit.Limiter) (proto.MsgType, []byte) {
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
			if err := limiter.Wait(ctx, float64(len(blinded))); err != nil {
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
