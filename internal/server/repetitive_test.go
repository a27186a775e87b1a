package server_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/testenv"
)

// zeroSink checks that everything written to it is zero bytes.
type zeroSink struct {
	n       int64
	nonzero bool
}

func (z *zeroSink) Write(p []byte) (int, error) {
	z.nonzero = z.nonzero || bytes.Count(p, []byte{0}) != len(p)
	z.n += int64(len(p))
	return len(p), nil
}

// TestDownloadRepetitiveFile round-trips a file of zeros under default
// Rabin chunking, through the real client, on 1 and 4 shards: one
// download window of identical 16 KiB chunks, all owned by one shard.
// With the reply budget lowered to 1 MiB the shard answers in budgeted
// replies and the client asks for the rest, as it does at the real
// budget for 64 MB of zeros, whose 4096 copies cannot fit one frame
// (TestGetChunksRepeatedChunkPastFrameSize). Every copy of the chunk is
// a slice of its own in a reply, so reverting each in place must give
// good chunks.
func TestDownloadRepetitiveFile(t *testing.T) {
	const budget, size = 1 << 20, 4 << 20
	server.SetReplyBudget(t, budget)
	ctx := context.Background()
	zeros := make([]byte, size)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			sc, err := testenv.StartSharded(testenv.ShardedOptions{Shards: shards, RSABits: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, err := client.New(ctx, client.Config{
				UserID:         "alice",
				Scheme:         core.SchemeEnhanced,
				DataServers:    sc.ShardAddrs(),
				KeyStoreServer: sc.KeyAddr,
				KeyManager:     sc.KMAddr,
				PrivateKey:     sc.Authority.IssueKey("alice", []string{"alice"}),
				Directory:      sc.Authority,
				Owner:          owner,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := c.Upload(ctx, "/zeros", bytes.NewReader(zeros), policy.OrOfUsers([]string{"alice"}))
			if err != nil {
				t.Fatal(err)
			}
			if res.Chunks != size/(16<<10) {
				t.Fatalf("upload cut %d chunks, want %d maximum-size ones", res.Chunks, size/(16<<10))
			}

			var sink zeroSink
			if _, err := c.DownloadTo(ctx, "/zeros", &sink); err != nil {
				t.Fatalf("download: %v", err)
			}
			if sink.n != size || sink.nonzero {
				t.Fatalf("downloaded %d bytes (nonzero: %v), want %d zeros", sink.n, sink.nonzero, size)
			}
			var gets uint64
			for _, srv := range sc.Shards() {
				gets += srv.MetricsSnapshot().Counters[metrics.Label("dispatch_total", "op", "GetChunks")]
			}
			if gets < size/budget {
				t.Fatalf("%d GetChunks replies carried %d MiB of chunks under a %d MiB budget", gets, size>>20, budget>>20)
			}
		})
	}
}
