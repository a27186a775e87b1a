package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/retry"
)

// delayedStore starts a storage server holding n chunks and dials it
// over ONE connection whose requests pay a one-way propagation delay
// (netem.Delay) and whose responses return undelayed.
func delayedStore(tb testing.TB, delay time.Duration, n int) (*Client, []proto.ChunkUpload) {
	tb.Helper()
	_, addr := startServer(tb)
	dialer := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return netem.Delay(c, delay), nil
	}
	client, err := DialStore(ctx, addr, dialer, retry.Policy{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = client.Close() })

	chunks := uploads(n, "mux-bench")
	if _, err := client.PutChunks(ctx, chunks); err != nil {
		tb.Fatal(err)
	}
	return client, chunks
}

// getConcurrently fetches every chunk with one single-chunk GetChunks
// call each, from inflight goroutines sharing the client's connection.
func getConcurrently(client *Client, chunks []proto.ChunkUpload, inflight int) error {
	per := len(chunks) / inflight
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				fp := chunks[w*per+j].FP
				if _, err := client.GetChunks(ctx, []fingerprint.Fingerprint{fp}); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// TestMuxedGetsPipelineOneConnection: concurrent calls on one
// connection must overlap their latency. Sixteen single-chunk gets,
// each request delayed 25 ms one way, take at least 16 delays when the
// connection runs them in lockstep and about one delay when rpcmux
// pipelines them. The bound, 8 delays, is taken from the emulated
// delay, not from host speed.
func TestMuxedGetsPipelineOneConnection(t *testing.T) {
	const (
		delay = 25 * time.Millisecond
		gets  = 16
	)
	client, chunks := delayedStore(t, delay, gets)
	start := time.Now()
	if err := getConcurrently(client, chunks, gets); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 8*delay {
		t.Fatalf("%d concurrent gets took %v over one connection, want < %v (lockstep takes >= %v)",
			gets, elapsed, 8*delay, gets*delay)
	}
}

// BenchmarkMuxedGets measures single-chunk gets over ONE connection with
// an emulated one-way propagation delay on the request path
// (netem.Delay, 2 ms). inflight=1 is the lockstep baseline — each
// request waits for its response before the next is sent — and higher
// inflight counts issue concurrent calls that the rpcmux layer pipelines
// over the same connection, overlapping their latency (ideally ~8x at
// inflight=8: 64 round trips collapse into 8 waves).
// TestMuxedGetsPipelineOneConnection gates the property.
func BenchmarkMuxedGets(b *testing.B) {
	const (
		delay = 2 * time.Millisecond
		gets  = 64
	)
	client, chunks := delayedStore(b, delay, gets)
	for _, inflight := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := getConcurrently(client, chunks, inflight); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
