package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/store"
)

// TestOneConnectionMixedPlanes drives every RPC plane — chunk puts and
// gets, blob puts/gets/deletes, listing, stats — from many goroutines
// over a single multiplexed connection. Every response must match its
// request (the returned bytes are derived from the request's inputs),
// which fails loudly if the request-ID plumbing ever crosses wires. The
// test then shuts everything down and verifies no goroutines leak.
func TestOneConnectionMixedPlanes(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New(ctx, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	client, err := DialStore(ctx, ln.Addr().String(), nil, retry.Policy{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		rounds  = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 4 {
				case 0: // chunk plane: put then read back
					data := []byte(fmt.Sprintf("mixed-%d-%d-payload", g, i))
					fp := fingerprint.New(data)
					if _, err := client.PutChunks(ctx, []proto.ChunkUpload{{FP: fp, Data: data}}); err != nil {
						t.Errorf("PutChunks: %v", err)
						return
					}
					got, err := client.GetChunks(ctx, []fingerprint.Fingerprint{fp})
					if err != nil {
						t.Errorf("GetChunks: %v", err)
						return
					}
					if !bytes.Equal(got[0], data) {
						t.Errorf("goroutine %d round %d: chunk response mismatched request", g, i)
						return
					}
				case 1: // blob plane: put, get, delete
					name := fmt.Sprintf("recipe-%d-%d", g, i)
					want := []byte("blob-" + name)
					if err := client.PutBlob(ctx, store.NSRecipes, name, want); err != nil {
						t.Errorf("PutBlob: %v", err)
						return
					}
					got, err := client.GetBlob(ctx, store.NSRecipes, name)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("GetBlob %s = %q, %v", name, got, err)
						return
					}
					if i%5 == 0 {
						if err := client.DeleteBlob(ctx, store.NSRecipes, name); err != nil {
							t.Errorf("DeleteBlob: %v", err)
							return
						}
					}
				case 2: // control plane: stats
					if _, err := client.Stats(ctx); err != nil {
						t.Errorf("Stats: %v", err)
						return
					}
				case 3: // listing plane
					if _, err := client.ListBlobs(ctx, store.NSRecipes); err != nil {
						t.Errorf("ListBlobs: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if err := client.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}

	// All server handler/writer goroutines and the client's read loop
	// must be gone. Give the runtime a moment to retire them.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
