package rpcmux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/retry"
)

// echoServer answers every request with its paired response type
// echoing the payload, and counts deliveries per payload, except that
// scripted connections are killed (closed without a
// response) when a scripted request number arrives — simulating a peer
// crash mid-conversation.
type echoServer struct {
	ln net.Listener

	mu        sync.Mutex
	conns     int
	killAt    map[int]int // conn index -> kill on arrival of this request number (1-based)
	connsSeen []net.Conn
	delivered map[string]int // payload -> times a frame carrying it arrived
}

func newEchoServer(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln, killAt: make(map[int]int), delivered: make(map[string]int)}
	go s.acceptLoop()
	t.Cleanup(s.stop)
	return s
}

func (s *echoServer) stop() {
	_ = s.ln.Close()
	s.mu.Lock()
	for _, c := range s.connsSeen {
		_ = c.Close()
	}
	s.mu.Unlock()
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

// kill schedules connection conn (0-based dial order) to die when its
// reqNum-th request (1-based) arrives, before any response is sent.
func (s *echoServer) kill(conn, reqNum int) {
	s.mu.Lock()
	s.killAt[conn] = reqNum
	s.mu.Unlock()
}

// deliveries reports how many frames carrying payload have arrived.
func (s *echoServer) deliveries(payload string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered[payload]
}

func (s *echoServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		idx := s.conns
		s.conns++
		s.connsSeen = append(s.connsSeen, conn)
		s.mu.Unlock()
		go s.serve(conn, idx)
	}
}

func (s *echoServer) serve(conn net.Conn, idx int) {
	defer conn.Close()
	served := 0
	for {
		typ, id, payload, err := proto.ReadFrame(conn)
		if err != nil {
			return
		}
		served++
		s.mu.Lock()
		killAt := s.killAt[idx]
		s.delivered[string(payload)]++
		s.mu.Unlock()
		if killAt > 0 && served >= killAt {
			return // deferred Close: the peer crashed mid-conversation
		}
		if err := proto.WriteFrame(conn, typ.Response(), id, payload); err != nil {
			return
		}
	}
}

// isTransportErr reports whether err is a connection-level failure
// (reset, refused, EOF, closed) as opposed to a protocol or routing
// bug inside the mux.
func isTransportErr(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

func testPolicy() retry.Policy {
	return retry.Policy{
		InitialDelay: time.Millisecond,
		MaxDelay:     10 * time.Millisecond,
		MaxAttempts:  5,
		Seed:         1,
	}
}

func newTestRedialer(t *testing.T, s *echoServer) *Redialer {
	t.Helper()
	dial := func() (net.Conn, error) { return net.Dial("tcp", s.addr()) }
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	r := newRedialer(first, dial, 0, testPolicy())
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// requestOfEachClass is one request type per retry class in the proto
// table, with whether the transport may replay it.
var requestOfEachClass = []struct {
	typ    proto.MsgType
	replay bool
}{
	{proto.MsgGetChunksReq, true},
	{proto.MsgPutChunksReq, false},
	{proto.MsgDerefChunksReq, false},
}

// The peer crashes with the second request delivered but unanswered:
// it may have executed. Only a ReplayByTransport request is sent again;
// the other classes fail, and the redialer still recovers for the next
// call.
func TestRedialerReplaysByClassAfterPeerCrash(t *testing.T) {
	for _, tc := range requestOfEachClass {
		t.Run(tc.typ.String(), func(t *testing.T) {
			s := newEchoServer(t)
			s.kill(0, 2)
			r := newTestRedialer(t, s)

			ctx := context.Background()
			if _, err := r.Call(ctx, tc.typ, []byte("one")); err != nil {
				t.Fatalf("first call: %v", err)
			}
			got, err := r.Call(ctx, tc.typ, []byte("two"))
			if tc.replay {
				if err != nil || string(got) != "two" {
					t.Fatalf("call across peer crash = %q, %v", got, err)
				}
				if n := s.deliveries("two"); n != 2 {
					t.Fatalf("request delivered %d times, want 2 (original + replay)", n)
				}
				if n := r.Retries(); n < 1 {
					t.Fatalf("Retries() = %d, want >= 1", n)
				}
			} else {
				if err == nil {
					t.Fatal("request silently re-issued after peer crash")
				}
				if n := s.deliveries("two"); n != 1 {
					t.Fatalf("request delivered %d times, want 1", n)
				}
				got, err := r.Call(ctx, tc.typ, []byte("three"))
				if err != nil || string(got) != "three" {
					t.Fatalf("call after recovery = %q, %v", got, err)
				}
			}
			if n := r.Reconnects(); n != 1 {
				t.Fatalf("Reconnects() = %d, want 1", n)
			}
		})
	}
}

// A call that finds its connection already dead never writes its frame
// (ErrNotIssued), so the peer cannot have executed it and it is
// re-issued on a fresh connection whatever its class.
func TestRedialerReissuesUnissuedFrameOfAnyClass(t *testing.T) {
	for _, tc := range requestOfEachClass {
		t.Run(tc.typ.String(), func(t *testing.T) {
			s := newEchoServer(t)
			r := newTestRedialer(t, s)

			ctx := context.Background()
			if _, err := r.Call(ctx, tc.typ, []byte("one")); err != nil {
				t.Fatalf("first call: %v", err)
			}
			s.mu.Lock()
			_ = s.connsSeen[0].Close()
			s.mu.Unlock()
			<-r.conn.done // the client side has noticed the cut

			got, err := r.Call(ctx, tc.typ, []byte("two"))
			if err != nil || string(got) != "two" {
				t.Fatalf("call on dead connection = %q, %v", got, err)
			}
			if n := s.deliveries("two"); n != 1 {
				t.Fatalf("request delivered %d times, want 1", n)
			}
			if n := r.Reconnects(); n != 1 {
				t.Fatalf("Reconnects() = %d, want 1", n)
			}
		})
	}
}

func TestRedialerRetriesDialFailures(t *testing.T) {
	// A server that is down for the first dial attempts and comes back:
	// simulate with a dial func that fails twice then connects.
	s := newEchoServer(t)
	s.kill(0, 1) // initial conn dies on first use
	var dials atomic.Int64
	dial := func() (net.Conn, error) {
		if dials.Add(1) <= 2 {
			return nil, errors.New("connection refused")
		}
		return net.Dial("tcp", s.addr())
	}
	first, err := net.Dial("tcp", s.addr())
	if err != nil {
		t.Fatal(err)
	}
	r := newRedialer(first, dial, 0, testPolicy())
	defer r.Close()

	got, err := r.Call(context.Background(), proto.MsgStatsReq, []byte("x"))
	if err != nil {
		t.Fatalf("call across down window: %v", err)
	}
	if string(got) != "x" {
		t.Fatalf("payload = %q", got)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("dial attempts = %d, want 3 (two refused, one success)", n)
	}
}

func TestRedialerGivesUpAfterAttemptCap(t *testing.T) {
	s := newEchoServer(t)
	s.kill(0, 1)
	dial := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	first, err := net.Dial("tcp", s.addr())
	if err != nil {
		t.Fatal(err)
	}
	r := newRedialer(first, dial, 0, testPolicy())
	defer r.Close()

	start := time.Now()
	_, err = r.Call(context.Background(), proto.MsgStatsReq, nil)
	if err == nil {
		t.Fatal("call against a permanently down peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// TestChaosRedialRacesClose hammers a redialer with concurrent
// idempotent calls while the peer kills connections and the client
// closes the redialer mid-storm: no call may hang, and every call after
// Close fails with ErrClosed.
func TestChaosRedialRacesClose(t *testing.T) {
	s := newEchoServer(t)
	for i := 0; i < 64; i++ {
		s.kill(i, 3) // every connection dies after two served requests
	}
	r := newTestRedialer(t, s)

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				payload := []byte(fmt.Sprintf("w%d-%d", w, i))
				got, err := r.Call(context.Background(), proto.MsgStatsReq, payload)
				if err != nil {
					// With every connection scripted to die after two
					// requests, a call can burn through the policy's
					// MaxAttempts and surface the transport error —
					// bounded retry working as specified. Only a
					// non-transport error is a bug here.
					if !errors.Is(err, ErrClosed) && !isTransportErr(err) {
						errs <- fmt.Errorf("worker %d: %v", w, err)
					}
					return
				}
				if string(got) != string(payload) {
					errs <- fmt.Errorf("worker %d: response %q for request %q", w, got, payload)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	_ = r.Close()
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers hung after Close")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, err := r.Call(context.Background(), proto.MsgStatsReq, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close returned %v, want ErrClosed", err)
	}
}
