package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	reed "repro"
)

// Tracing, used only in a traced pass. Nothing inside the program is
// instrumented by this benchmark: spans come from wrappers around
// objects the benchmark already owns — the store.Backend under every
// server, the net.Conn every client dials, and the reader or writer
// handed to Upload and DownloadTo — and counts come from the registries
// the product already exposes (ClientConfig.Metrics, WithStorageMetrics,
// WithKeyManagerMetrics).

// span is one call at a layer boundary. Times are nanoseconds since the
// tracer started. Spans of one client operation share Op, the ID of the
// operation's root span; Parent is that root, or 0 when a server-side
// call could not be tied to one operation (two were in flight).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// roots holds, per closed-loop client, the index in spans of its
	// current operation's root span, or −1 between operations; a client
	// runs one operation at a time.
	roots []int

	dials atomic.Int64

	kmReg      *reed.MetricsRegistry
	clientRegs []*reed.MetricsRegistry
	serverRegs []*reed.MetricsRegistry
}

func newTracer(clients int) *tracer {
	t := &tracer{t0: time.Now(), roots: make([]int, clients), kmReg: reed.NewMetricsRegistry()}
	for i := range t.roots {
		t.roots[i] = -1
	}
	for i := 0; i <= shardCount; i++ {
		t.serverRegs = append(t.serverRegs, reed.NewMetricsRegistry())
	}
	return t
}

func (t *tracer) newClientReg() *reed.MetricsRegistry {
	t.mu.Lock()
	defer t.mu.Unlock()
	reg := reed.NewMetricsRegistry()
	t.clientRegs = append(t.clientRegs, reg)
	return reg
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens the root span of a client operation and returns its
// index. A nil tracer (an untraced pass) records nothing.
func (t *tracer) begin(client int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Op: id, Name: "op." + name, Start: t.now()})
	t.roots[client] = len(t.spans) - 1
	return t.roots[client]
}

func (t *tracer) end(client, root int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[root].End = t.now()
	t.roots[client] = -1
}

// add records one finished call under the given client's current
// operation; client −1 means a server-side call, attributed to the one
// operation in flight if there is exactly one.
func (t *tracer) add(client int, name string, start int64, bytes int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	root := -1
	if client >= 0 {
		root = t.roots[client]
	} else {
		inflight := 0
		for _, r := range t.roots {
			if r >= 0 {
				root = r
				inflight++
			}
		}
		if inflight != 1 {
			root = -1
		}
	}
	var parent uint64
	if root >= 0 {
		parent = t.spans[root].ID
	}
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Parent: parent, Op: parent, Name: name, Start: start, End: end, Bytes: bytes})
}

// window returns the spans that started in [from, to], as tracer times.
func (t *tracer) window(from, to time.Time) []span {
	lo, hi := int64(from.Sub(t.t0)), int64(to.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= lo && s.Start <= hi {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- store.Backend decorator ---

type tracedBackend struct {
	reed.Backend
	t *tracer
}

func (t *tracer) wrapBackend(b reed.Backend) reed.Backend { return &tracedBackend{Backend: b, t: t} }

func (b *tracedBackend) Put(ctx context.Context, ns, name string, data []byte) error {
	start := b.t.now()
	err := b.Backend.Put(ctx, ns, name, data)
	b.t.add(-1, "store.put."+ns, start, int64(len(data)))
	return err
}

func (b *tracedBackend) Get(ctx context.Context, ns, name string) ([]byte, error) {
	start := b.t.now()
	data, err := b.Backend.Get(ctx, ns, name)
	b.t.add(-1, "store.get."+ns, start, int64(len(data)))
	return data, err
}

func (b *tracedBackend) GetRange(ctx context.Context, ns, name string, off, n int64) ([]byte, error) {
	start := b.t.now()
	data, err := b.Backend.GetRange(ctx, ns, name, off, n)
	b.t.add(-1, "store.getrange."+ns, start, int64(len(data)))
	return data, err
}

func (b *tracedBackend) Delete(ctx context.Context, ns, name string) error {
	start := b.t.now()
	err := b.Backend.Delete(ctx, ns, name)
	b.t.add(-1, "store.delete."+ns, start, 0)
	return err
}

// --- net.Conn decorator, installed through ClientConfig.Dialer ---

type tracedConn struct {
	net.Conn
	t      *tracer
	client int
}

// dialer returns the Dialer for one closed-loop client's connections.
func (t *tracer) dialer(client int) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		start := t.now()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		t.dials.Add(1)
		t.add(client, "net.dial", start, 0)
		return &tracedConn{Conn: conn, t: t, client: client}, nil
	}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Read(p)
	c.t.add(c.client, "net.read", start, int64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.add(c.client, "net.write", start, int64(n))
	return n, err
}

// --- the reader handed to Upload and the writer handed to DownloadTo ---

// tracedSource stays an io.ReadSeeker so the client's whole-file
// pre-check still runs, as it does for a file on disk.
type tracedSource struct {
	io.ReadSeeker
	t      *tracer
	client int
}

func (s *tracedSource) Read(p []byte) (int, error) {
	start := s.t.now()
	n, err := s.ReadSeeker.Read(p)
	s.t.add(s.client, "input.read", start, int64(n))
	return n, err
}

type tracedSink struct {
	io.Writer
	t      *tracer
	client int
}

func (s *tracedSink) Write(p []byte) (int, error) {
	start := s.t.now()
	n, err := s.Writer.Write(p)
	s.t.add(s.client, "sink.write", start, int64(n))
	return n, err
}
