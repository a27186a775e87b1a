package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/store"
	"repro/internal/testenv"
)

// numberedChunks builds n distinct fixed-size chunks.
func numberedChunks(n, size int) ([]proto.ChunkUpload, []fingerprint.Fingerprint) {
	ups := make([]proto.ChunkUpload, n)
	fps := make([]fingerprint.Fingerprint, n)
	for i := range ups {
		data := make([]byte, size)
		binary.BigEndian.PutUint64(data, uint64(i))
		fps[i] = fingerprint.New(data)
		ups[i] = proto.ChunkUpload{FP: fps[i], Data: data}
	}
	return ups, fps
}

// TestChunkPlaneScatter drives the five chunk-plane calls through the
// shared scatter with more items per shard than one sub-batch holds.
// Every third chunk is stored up front, so each per-item result has a
// position-dependent expected value: a scatter that reassembled in
// shard order instead of request order would fail. The per-shard RPC
// counts pin the sub-batching — PutChunks by Config.BatchBytes, the
// fingerprint-list calls (DerefChunks included) by fpBatch — and an
// empty input must reach no shard.
func TestChunkPlaneScatter(t *testing.T) {
	const chunkSize, putBatch = 64, 1000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			r, addrs := startShards(t, shards, Config{BatchBytes: putBatch * chunkSize})
			reg := metrics.NewRegistry()
			r.Instrument(reg)
			rpcs := func(op string, s int) uint64 {
				return reg.Counter("rpc_total", "op", op, "shard", addrs[s]).Value()
			}

			chunks, fps := numberedChunks(shards*(fpBatch+fpBatch/4), chunkSize)
			stored := func(i int) bool { return i%3 == 0 }
			owned := make([]int, shards)
			var seed []proto.ChunkUpload
			for i, c := range chunks {
				owned[r.Owner(c.FP)]++
				if stored(i) {
					seed = append(seed, c)
				}
			}
			for s, n := range owned {
				if n <= fpBatch {
					t.Fatalf("shard %d owns %d chunks, need more than one sub-batch (%d)", s, n, fpBatch)
				}
			}
			if _, err := r.PutChunks(ctx, seed); err != nil {
				t.Fatal(err)
			}

			// wantFlags checks a per-item flag result against the
			// stored-up-front pattern.
			wantFlags := func(flags []bool, n int) error {
				if len(flags) != n {
					return fmt.Errorf("%d flags for %d items", len(flags), n)
				}
				for i, f := range flags {
					if f != stored(i) {
						return fmt.Errorf("flag %d = %v, want %v: results not in request order", i, f, stored(i))
					}
				}
				return nil
			}
			ops := []struct {
				op    string
				batch int
				run   func(chunks []proto.ChunkUpload, fps []fingerprint.Fingerprint) error
			}{
				{"HasChunks", fpBatch, func(_ []proto.ChunkUpload, fps []fingerprint.Fingerprint) error {
					present, err := r.HasChunks(ctx, fps)
					return errors.Join(err, wantFlags(present, len(fps)))
				}},
				{"RefChunks", fpBatch, func(_ []proto.ChunkUpload, fps []fingerprint.Fingerprint) error {
					found, err := r.RefChunks(ctx, fps)
					return errors.Join(err, wantFlags(found, len(fps)))
				}},
				{"PutChunks", putBatch, func(chunks []proto.ChunkUpload, _ []fingerprint.Fingerprint) error {
					dups, err := r.PutChunks(ctx, chunks)
					return errors.Join(err, wantFlags(dups, len(chunks)))
				}},
				{"GetChunks", fpBatch, func(chunks []proto.ChunkUpload, fps []fingerprint.Fingerprint) error {
					datas, err := r.GetChunks(ctx, fps)
					if err != nil || len(datas) != len(fps) {
						return fmt.Errorf("%d chunks for %d fingerprints: %v", len(datas), len(fps), err)
					}
					for i, d := range datas {
						if !bytes.Equal(d, chunks[i].Data) {
							return fmt.Errorf("chunk %d is not the one requested at position %d", i, i)
						}
					}
					return nil
				}},
				// By now the stored third holds three references (seed,
				// ref, put) and the rest one: one deref frees the rest.
				{"DerefChunks", fpBatch, func(_ []proto.ChunkUpload, fps []fingerprint.Fingerprint) error {
					freed, err := r.DerefChunks(ctx, fps)
					want := uint64(len(fps) - (len(fps)+2)/3)
					if err != nil || freed != want {
						return fmt.Errorf("freed %d chunks, want %d: %v", freed, want, err)
					}
					return nil
				}},
			}
			for _, op := range ops {
				before := make([]uint64, shards)
				for s := range before {
					before[s] = rpcs(op.op, s)
				}
				if err := op.run(nil, nil); err != nil {
					t.Fatalf("%s of nothing: %v", op.op, err)
				}
				for s := range before {
					if got := rpcs(op.op, s) - before[s]; got != 0 {
						t.Fatalf("%s of nothing sent %d RPCs to shard %d", op.op, got, s)
					}
				}
				if err := op.run(chunks, fps); err != nil {
					t.Fatalf("%s: %v", op.op, err)
				}
				for s := range before {
					want := uint64((owned[s] + op.batch - 1) / op.batch)
					if got := rpcs(op.op, s) - before[s]; got != want {
						t.Fatalf("%s sent shard %d its %d items in %d RPCs, want %d (sub-batches of %d)",
							op.op, s, owned[s], got, want, op.batch)
					}
				}
			}
		})
	}
}

// TestRetryClassGovernsEveryCall runs every Router RPC method twice
// against one live shard and derives the expected fault behaviour from
// nothing but the request's class in the proto table — the agreement an
// analyzer used to police across hand-written flags.
//
// Marked down: only ReplayByTransport requests reach the shard, and
// their answer heals the mark; the other classes fail with ErrShardDown.
// Response cut (the request was delivered and may have executed):
// ReplayByTransport is re-issued by the transport, ResendByRouter is
// re-sent by the router exactly once (OnBatchRetry), NeverReplay fails
// with neither layer having sent it again.
func TestRetryClassGovernsEveryCall(t *testing.T) {
	seeded, seededFPs := numberedChunks(8, 64)
	fresh, _ := numberedChunks(16, 64)
	fresh = fresh[8:]
	key := fileindex.Key{Size: 1}
	calls := []struct {
		typ proto.MsgType
		do  func(r *Router) error
	}{
		{proto.MsgPutChunksReq, func(r *Router) error { _, err := r.PutChunks(ctx, fresh); return err }},
		{proto.MsgGetChunksReq, func(r *Router) error { _, err := r.GetChunks(ctx, seededFPs); return err }},
		{proto.MsgHasChunksReq, func(r *Router) error { _, err := r.HasChunks(ctx, seededFPs); return err }},
		{proto.MsgRefChunksReq, func(r *Router) error { _, err := r.RefChunks(ctx, seededFPs); return err }},
		{proto.MsgDerefChunksReq, func(r *Router) error { _, err := r.DerefChunks(ctx, seededFPs); return err }},
		{proto.MsgChallengeReq, func(r *Router) error { _, err := r.Challenge(ctx, seededFPs[0], []byte("nonce")); return err }},
		{proto.MsgPutBlobReq, func(r *Router) error { return r.PutBlob(ctx, store.NSRecipes, "/y", []byte("y")) }},
		{proto.MsgGetBlobReq, func(r *Router) error { _, err := r.GetBlob(ctx, store.NSRecipes, "/x"); return err }},
		{proto.MsgDeleteBlobReq, func(r *Router) error { return r.DeleteBlob(ctx, store.NSRecipes, "/x") }},
		{proto.MsgCheckFileReq, func(r *Router) error { _, _, err := r.CheckFile(ctx, key); return err }},
		{proto.MsgRegisterFileReq, func(r *Router) error { return r.RegisterFile(ctx, key, "/x") }},
		{proto.MsgListBlobsReq, func(r *Router) error { _, err := r.ListBlobs(ctx, store.NSRecipes); return err }},
		{proto.MsgStatsReq, func(r *Router) error { _, err := r.Stats(ctx); return err }},
		{proto.MsgMetricsReq, func(r *Router) error { _, err := r.ShardMetrics(ctx); return err }},
	}
	covered := make(map[proto.MsgType]bool)
	for _, c := range calls {
		covered[c.typ] = true
	}
	for typ := proto.MsgError; typ <= proto.MsgRefChunksResp; typ++ {
		keyManager := typ == proto.MsgKMParamsReq || typ == proto.MsgKeyGenReq
		if typ.Retry() != 0 && !keyManager && !covered[typ] {
			t.Errorf("storage request %v has no Router call in this test", typ)
		}
	}

	fast := retry.Policy{InitialDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, MaxAttempts: 3}
	for _, c := range calls {
		t.Run(c.typ.String(), func(t *testing.T) {
			_, addr := testenv.StartServer(t)
			var batchRetries atomic.Int64
			dial := func(plan *netem.Plan) *Router {
				r, err := Dial(ctx, Config{
					Shards: []string{addr}, Retry: fast, Dialer: plan.Dialer(nil),
					OnBatchRetry: func() { batchRetries.Add(1) },
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = r.Close() })
				return r
			}
			r := dial(netem.NewPlan(1))
			if _, err := r.PutChunks(ctx, seeded); err != nil {
				t.Fatal(err)
			}
			if err := r.PutBlob(ctx, store.NSRecipes, "/x", []byte("x")); err != nil {
				t.Fatal(err)
			}
			class := c.typ.Retry()

			r.fails[0].Store(downAfter)
			err := c.do(r)
			if class == proto.ReplayByTransport {
				if err != nil || r.Health()[0].Down {
					t.Fatalf("on a down-marked shard: err %v, health %+v; want the probe to succeed and heal the mark", err, r.Health()[0])
				}
			} else if !errors.Is(err, ErrShardDown) || !r.Health()[0].Down {
				t.Fatalf("on a down-marked shard: err %v, health %+v; want ErrShardDown and the mark kept", err, r.Health()[0])
			}

			// A second router whose first connection dies on the first
			// response byte: the shard executes the request, the answer
			// is lost.
			plan := netem.NewPlan(1)
			plan.OnDial(0, netem.Fault{CutAfterReadBytes: 1})
			r = dial(plan)
			batchRetries.Store(0)
			err = c.do(r)
			if plan.Injected() != 1 {
				t.Fatalf("cut fired %d times, want 1", plan.Injected())
			}
			wantTransport, wantRouter := class == proto.ReplayByTransport, class == proto.ResendByRouter
			if (err == nil) != (wantTransport || wantRouter) {
				t.Errorf("after a lost response: err = %v", err)
			}
			if got := r.Retries() > 0; got != wantTransport {
				t.Errorf("transport re-issued = %v (Retries %d), want %v", got, r.Retries(), wantTransport)
			}
			wantResends := int64(0)
			if wantRouter {
				wantResends = 1
			}
			if got := batchRetries.Load(); got != wantResends {
				t.Errorf("router re-sends = %d, want %d", got, wantResends)
			}
			var re *proto.RemoteError
			if errors.Is(err, ErrShardDown) || errors.As(err, &re) {
				t.Errorf("lost response surfaced as %v, want the transport error", err)
			}
		})
	}
}
