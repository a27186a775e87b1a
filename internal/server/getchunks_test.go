package server

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dedup"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/store"
)

// chunksOf returns n distinct chunks of the given size.
func chunksOf(n, size int, seed int64) []proto.ChunkUpload {
	rng := rand.New(rand.NewSource(seed))
	out := make([]proto.ChunkUpload, n)
	for i := range out {
		data := make([]byte, size)
		rng.Read(data)
		out[i] = proto.ChunkUpload{FP: fingerprint.New(data), Data: data}
	}
	return out
}

func fpsOf(chunks []proto.ChunkUpload) []fingerprint.Fingerprint {
	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i, c := range chunks {
		fps[i] = c.FP
	}
	return fps
}

// TestGetChunksReplyBytes pins the gathered GetChunks reply to the wire
// bytes of the contiguous encoding, WriteFrame(EncodeBlobList(...)), on
// both sides of the connection's write buffer: rpcmux sends a reply that
// fits through the buffer and a larger one as one vectored write
// straight to the connection (TestWriteReplyPaths). The chunks come from
// a sealed container and from the open one.
func TestGetChunksReplyBytes(t *testing.T) {
	srv, err := New(ctx, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	chunks := chunksOf(24, 64<<10, 1)
	mustDispatch(t, srv, proto.MsgPutChunksReq, proto.EncodePutChunksReq(chunks[:12]))
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	mustDispatch(t, srv, proto.MsgPutChunksReq, proto.EncodePutChunksReq(chunks[12:]))

	for _, tc := range []struct {
		name     string
		chunks   []proto.ChunkUpload
		buffered bool
	}{
		{"below the write buffer", chunks[10:14], true},
		{"above the write buffer", chunks, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			typ, parts := srv.dispatch(ctx, proto.MsgGetChunksReq, proto.EncodeGetChunksReq(fpsOf(tc.chunks)))
			datas := make([][]byte, len(tc.chunks))
			for i, c := range tc.chunks {
				datas[i] = c.Data
			}
			var want bytes.Buffer
			if err := proto.WriteFrame(&want, proto.MsgGetChunksResp, 77, proto.EncodeBlobList(datas)); err != nil {
				t.Fatal(err)
			}

			var got bytes.Buffer
			if err := proto.WriteFrame(&got, typ, 77, parts...); err != nil {
				t.Fatal(err)
			}
			if fits := got.Len() <= connBuf; fits != tc.buffered {
				t.Fatalf("reply of %d bytes is on the wrong side of the %d-byte write buffer", got.Len(), connBuf)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("gathered reply differs from WriteFrame(EncodeBlobList(...))")
			}
		})
	}
}

// TestGetChunksReplySplitsAtBudget: a request whose chunks overflow the
// reply budget is answered with the leading chunks that fit, and
// Client.GetChunks fetches the rest — in request order throughout.
func TestGetChunksReplySplitsAtBudget(t *testing.T) {
	SetReplyBudget(t, 96<<10)
	srv, err := New(ctx, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	chunks := chunksOf(3, replyBudget/3+1, 2)
	for _, ch := range chunks {
		mustDispatch(t, srv, proto.MsgPutChunksReq, proto.EncodePutChunksReq([]proto.ChunkUpload{ch}))
	}
	c := dialTest(t, serveTest(t, srv))
	order := []proto.ChunkUpload{chunks[2], chunks[0], chunks[1]}

	_, parts := srv.dispatch(ctx, proto.MsgGetChunksReq, proto.EncodeGetChunksReq(fpsOf(order)))
	first, err := proto.DecodeBlobList(bytes.Join(parts, nil), len(order))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || !bytes.Equal(first[0], order[0].Data) || !bytes.Equal(first[1], order[1].Data) {
		t.Fatalf("first reply holds %d chunks, want the leading 2 of 3 under a %d-byte budget", len(first), replyBudget)
	}

	datas, err := c.GetChunks(ctx, fpsOf(order))
	if err != nil {
		t.Fatal(err)
	}
	if len(datas) != len(order) {
		t.Fatalf("got %d chunks, want %d", len(datas), len(order))
	}
	for i := range order {
		if !bytes.Equal(datas[i], order[i].Data) {
			t.Fatalf("chunk %d out of order or corrupted", i)
		}
	}
}

// TestGetChunksRepeatedChunkPastFrameSize is, at the real budget, the
// request that used to close the connection: one 16 KiB chunk asked for
// 4096 times — a 64 MB file of zeros in one download window — is 64 MiB
// of chunks, more than proto.MaxFrameSize allows one reply. It must
// arrive whole, in more than one reply, on a connection that stays up.
func TestGetChunksRepeatedChunkPastFrameSize(t *testing.T) {
	srv, err := New(ctx, store.NewMemory(), WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	chunk := chunksOf(1, 16<<10, 4)[0]
	mustDispatch(t, srv, proto.MsgPutChunksReq, proto.EncodePutChunksReq([]proto.ChunkUpload{chunk}))
	// Sealed, so every copy in a reply views the one cached body.
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, serveTest(t, srv))

	fps := make([]fingerprint.Fingerprint, 4096)
	for i := range fps {
		fps[i] = chunk.FP
	}
	datas, err := c.GetChunks(ctx, fps)
	if err != nil {
		t.Fatal(err)
	}
	if len(datas) != len(fps) {
		t.Fatalf("got %d chunks, want %d", len(datas), len(fps))
	}
	for i, d := range datas {
		if !bytes.Equal(d, chunk.Data) {
			t.Fatalf("copy %d corrupted", i)
		}
	}
	if replies := srv.MetricsSnapshot().Counters[metrics.Label("dispatch_total", "op", "GetChunks")]; replies < 2 {
		t.Fatalf("64 MiB of chunks came in %d reply, want at least 2", replies)
	}
	if _, err := c.GetChunks(ctx, fps[:1]); err != nil {
		t.Fatalf("connection unusable after the large request: %v", err)
	}
}

// TestGetChunksRepliesOutliveCacheChurn carries the lifetime argument for
// handing dedup.Get slices to the connection writer uncopied: replies
// are served from cached sealed containers while other requests evict
// those containers and dereferences compact them (dropping them from the
// cache and the backend), and every byte of every reply must arrive
// intact. Run under -race it also proves nothing writes a slice the
// writer goroutine is still sending.
func TestGetChunksRepliesOutliveCacheChurn(t *testing.T) {
	srv, err := New(ctx, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	// 64 KiB containers, so dozens of them cycle through the 8-entry
	// read cache in a few MB.
	if srv.chunks, err = dedup.Open(ctx, store.NewMemory(), 64<<10); err != nil {
		t.Fatal(err)
	}
	srv.journals[chunksJournal] = srv.chunks
	addr := serveTest(t, srv)

	// Kept and doomed chunks alternate, so dereferencing the doomed ones
	// leaves every container half dead and compacts it.
	all := chunksOf(400, 8<<10, 3)
	var kept, doomed []proto.ChunkUpload
	for i, ch := range all {
		if i%2 == 0 {
			kept = append(kept, ch)
		} else {
			doomed = append(doomed, ch)
		}
	}
	setup := dialTest(t, addr)
	if _, err := setup.PutChunks(ctx, all); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialStore(ctx, addr, nil, retry.Policy{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(r)))
			for round := 0; round < 12; round++ {
				// Whole passes (1.6 MB, past the write buffer) and short
				// runs (through it), both in storage order like a restore.
				lo, hi := 0, len(kept)
				if round%2 == 1 {
					lo = rng.Intn(len(kept) - 20)
					hi = lo + 1 + rng.Intn(min(60, len(kept)-lo-1))
				}
				datas, err := c.GetChunks(ctx, fpsOf(kept[lo:hi]))
				if err != nil {
					t.Errorf("reader %d round %d: %v", r, round, err)
					return
				}
				for i, d := range datas {
					if !bytes.Equal(d, kept[lo+i].Data) {
						t.Errorf("reader %d round %d: chunk %d corrupted", r, round, lo+i)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, ch := range doomed {
			if _, err := setup.DerefChunks(ctx, []fingerprint.Fingerprint{ch.FP}); err != nil {
				t.Errorf("deref %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	if stats := srv.chunks.Stats(); stats.CompactedContainers == 0 {
		t.Fatal("no container was compacted while the readers ran")
	}
	datas, err := setup.GetChunks(ctx, fpsOf(kept))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range datas {
		if !bytes.Equal(d, kept[i].Data) {
			t.Fatalf("chunk %d corrupted after compaction", i)
		}
	}
}
