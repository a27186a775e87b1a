package keymanager

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/keycache"
	"repro/internal/metrics"
	"repro/internal/oprf"
	"repro/internal/retry"
)

// ctx is the default context test call sites run under.
var ctx = context.Background()

var (
	kmKeyOnce sync.Once
	kmKey     *oprf.ServerKey
)

func serverKey(t testing.TB) *oprf.ServerKey {
	t.Helper()
	kmKeyOnce.Do(func() {
		k, err := oprf.GenerateServerKey(oprf.DefaultBits, nil)
		if err != nil {
			t.Fatalf("generate key: %v", err)
		}
		kmKey = k
	})
	return kmKey
}

// startServer runs a key manager on a loopback listener and returns its
// address plus a shutdown func.
func startServer(t testing.TB, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewServer(serverKey(t), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

func fps(n int) []fingerprint.Fingerprint {
	out := make([]fingerprint.Fingerprint, n)
	for i := range out {
		out[i] = fingerprint.New([]byte{byte(i), byte(i >> 8), 0xAA})
	}
	return out
}

func TestGenerateKeysMatchesDirectDerivation(t *testing.T) {
	_, addr := startServer(t)
	client, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Ten stay on one goroutine; a batch of 3 × minParallelBatch is
	// blinded, evaluated and finalized in parts across cores.
	for _, n := range []int{10, 3 * minParallelBatch} {
		ids := fps(n)
		keys, err := client.GenerateKeys(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, fp := range ids {
			want, err := serverKey(t).Derive(fp[:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(keys[i], want) {
				t.Fatalf("batch of %d: key %d does not match direct derivation", n, i)
			}
		}
	}
}

// TestEvaluateBatchAnswersEveryPart evaluates batches that end on and
// off the four-evaluation part boundary, one with an element outside
// [0, N), which must fail the batch with oprf.ErrBadElement.
func TestEvaluateBatchAnswersEveryPart(t *testing.T) {
	k := serverKey(t)
	srv := NewServer(k)
	p := k.PublicParams()
	for _, n := range []int{1, 4, 3 * minParallelBatch, 3*minParallelBatch + 3} {
		blinded := make([][]byte, n)
		for i := range blinded {
			blinded[i] = new(big.Int).Sub(p.N, big.NewInt(int64(i+1))).Bytes()
		}
		got, err := srv.evaluateBatch(blinded)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blinded {
			if want, _ := k.Evaluate(blinded[i]); !bytes.Equal(got[i], want) {
				t.Fatalf("batch of %d: response %d differs from Evaluate", n, i)
			}
		}
		blinded[n/2] = p.N.Bytes()
		if _, err := srv.evaluateBatch(blinded); !errors.Is(err, oprf.ErrBadElement) {
			t.Fatalf("batch of %d with N at %d: error = %v, want ErrBadElement", n, n/2, err)
		}
	}
}

func TestGenerateKeysBatches(t *testing.T) {
	srv, addr := startServer(t)
	client, err := Dial(ctx, addr, WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	before := srv.Evaluations()
	if _, err := client.GenerateKeys(ctx, fps(10)); err != nil {
		t.Fatal(err)
	}
	if got := srv.Evaluations() - before; got != 10 {
		t.Fatalf("evaluations = %d, want 10", got)
	}
}

func TestCacheAvoidsNetwork(t *testing.T) {
	srv, addr := startServer(t)
	cache, err := keycache.New(keycache.DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(ctx, addr, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ids := fps(8)
	first, err := client.GenerateKeys(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	evalsAfterFirst := srv.Evaluations()

	second, err := client.GenerateKeys(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Evaluations() != evalsAfterFirst {
		t.Fatal("cached keys still hit the key manager")
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("cached key %d differs", i)
		}
	}
}

func TestDeriveKeyInterface(t *testing.T) {
	_, addr := startServer(t)
	client, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	fp := fingerprint.New([]byte("single"))
	key, err := client.DeriveKey(fp)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serverKey(t).Derive(fp[:])
	if !bytes.Equal(key, want) {
		t.Fatal("DeriveKey mismatch")
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(ctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			if _, err := client.GenerateKeys(ctx, fps(20)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRateLimitSlowsClients(t *testing.T) {
	// Generous burst so the test stays fast, but verify the limiter
	// path executes without error.
	_, addr := startServer(t, WithRateLimit(10000, 10000))
	client, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.GenerateKeys(ctx, fps(5)); err != nil {
		t.Fatal(err)
	}
}

func TestDialBadBatchSize(t *testing.T) {
	if _, err := Dial(ctx, "127.0.0.1:1", WithBatchSize(0)); err == nil {
		t.Fatal("batch size 0 expected error")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("unreachable address expected error")
	}
}

func TestGenerateKeysEmpty(t *testing.T) {
	_, addr := startServer(t)
	client, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	keys, err := client.GenerateKeys(ctx, nil)
	if err != nil || len(keys) != 0 {
		t.Fatalf("GenerateKeys(nil) = %v, %v", keys, err)
	}
}

func TestShutdownClosesConnections(t *testing.T) {
	srv := NewServer(serverKey(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	client, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	<-done
	// Requests after shutdown must fail, not hang.
	if _, err := client.GenerateKeys(ctx, fps(1)); err == nil {
		t.Fatal("request after shutdown expected error")
	}
}

// TestShutdownInterruptsRateLimitedHandler pins the key manager's
// Shutdown order: it cancels the handlers' context before it drains the
// connections, so a request waiting in the rate limiter fails at once
// instead of holding Shutdown up until the limiter would admit it
// (100 s here).
func TestShutdownInterruptsRateLimitedHandler(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := NewServer(serverKey(t), WithRateLimit(0.01, 1), WithMetrics(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	client, err := Dial(ctx, ln.Addr().String(), WithRetryPolicy(retry.Policy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.GenerateKeys(ctx, fps(1)); err != nil {
		t.Fatalf("first request, inside the burst: %v", err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := client.GenerateKeys(ctx, fps(1))
		blocked <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot().Gauges["dispatch_inflight"] != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second request never reached the rate limiter")
		}
	}

	shut := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shut)
	}()
	select {
	case <-shut:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not return within 2 s: a handler blocked in the rate limiter held up the drain")
	}
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("the rate-limited request succeeded across Shutdown")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the rate-limited request did not return after Shutdown")
	}
}

// TestConcurrentBatchesOneConnection issues key-generation batches from
// several goroutines over one client connection. The mux tags each
// batch with a request ID, so responses returning out of order must
// still unblind to the same keys direct derivation produces.
func TestConcurrentBatchesOneConnection(t *testing.T) {
	_, addr := startServer(t)
	client, err := Dial(ctx, addr, WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	all := fps(32)
	want := make([][]byte, len(all))
	for i, fp := range all {
		k, err := serverKey(t).Derive(fp[:])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = k
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine requests an overlapping window, in several
			// batches (batch size 4 over 16 fingerprints).
			window := all[(g*4)%16 : (g*4)%16+16]
			keys, err := client.GenerateKeys(ctx, window)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			for i, k := range keys {
				j := (g*4)%16 + i
				if !bytes.Equal(k, want[j]) {
					t.Errorf("goroutine %d: key %d mismatched its fingerprint", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFanOutCoversEachIndexOnce runs fanOut at several core counts, part
// sizes and batch sizes around minParallelBatch: every index must be
// visited exactly once, a part's error must come back, and no part may
// start after one has failed.
func TestFanOutCoversEachIndexOnce(t *testing.T) {
	saved := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(saved) })
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, minParallelBatch - 1, minParallelBatch, 1000} {
			for _, part := range []int{1, 7, (n + procs - 1) / max(procs, 1)} {
				visits := make([]atomic.Int32, n)
				err := fanOut(n, max(part, 1), func(lo, hi int) error {
					for i := lo; i < hi; i++ {
						visits[i].Add(1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Fatalf("GOMAXPROCS %d, n %d, part %d: index %d visited %d times", procs, n, part, i, v)
					}
				}
			}
		}
		boom := errors.New("boom")
		if err := fanOut(100, 3, func(lo, hi int) error {
			if lo <= 50 && 50 < hi {
				return boom
			}
			return nil
		}); !errors.Is(err, boom) {
			t.Fatalf("GOMAXPROCS %d: error = %v, want the part's error", procs, err)
		}
	}

	// Part 0 fails while part 1 is running. Once part 1 ends, after the
	// failure is recorded, neither worker may start another part: on the
	// client one bad response would otherwise still cost every other
	// finalize.
	runtime.GOMAXPROCS(2)
	var calls atomic.Int32
	running, failing := make(chan struct{}), make(chan struct{})
	err := fanOut(100, 1, func(lo, hi int) error {
		calls.Add(1)
		switch lo {
		case 0:
			<-running
			close(failing)
			return errors.New("boom")
		case 1:
			close(running)
			<-failing
			time.Sleep(20 * time.Millisecond) // part 0's worker records the failure
		}
		return nil
	})
	if err == nil {
		t.Fatal("part 0's error was lost")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d parts ran; want 2, none started after part 0 failed", n)
	}
}
