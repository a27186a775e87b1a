package cluster

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/testenv"
)

var ctx = context.Background()

// startShards boots n independent storage servers and a router over
// them.
func startShards(t *testing.T, n int, cfg Config) (*Router, []string) {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		_, addrs[i] = testenv.StartServer(t)
	}
	cfg.Shards = addrs
	r, err := Dial(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r, addrs
}

// randomChunks builds n random chunk uploads with valid fingerprints.
func randomChunks(t *testing.T, n int, seed int64) []proto.ChunkUpload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]proto.ChunkUpload, n)
	for i := range out {
		data := make([]byte, 512+rng.Intn(512))
		rng.Read(data)
		out[i] = proto.ChunkUpload{FP: fingerprint.New(data), Data: data}
	}
	return out
}

func TestPutGetAcrossShards(t *testing.T) {
	r, addrs := startShards(t, 3, Config{})
	chunks := randomChunks(t, 200, 1)

	flags, err := r.PutChunks(ctx, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(flags) != len(chunks) {
		t.Fatalf("flag count = %d, want %d", len(flags), len(chunks))
	}
	for i, d := range flags {
		if d {
			t.Fatalf("chunk %d reported duplicate on first upload", i)
		}
	}

	// Second upload: every chunk deduplicates on its owning shard —
	// the placement function is total, so a fingerprint never lands on
	// a shard that hasn't seen it.
	flags, err = r.PutChunks(ctx, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range flags {
		if !d {
			t.Fatalf("chunk %d not deduplicated on re-upload", i)
		}
	}

	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i, c := range chunks {
		fps[i] = c.FP
	}
	datas, err := r.GetChunks(ctx, fps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if string(datas[i]) != string(chunks[i].Data) {
			t.Fatalf("chunk %d corrupted through shard fan-out", i)
		}
	}

	// Per-shard unique counts must match the ring's local placement
	// computation and sum to the global total.
	rg, err := ring.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(addrs))
	for _, fp := range fps {
		want[rg.Owner(fp)]++
	}
	stats, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for s, st := range stats {
		unique := st.TotalPuts - st.DedupedPuts
		if unique != want[s] {
			t.Errorf("shard %d holds %d unique chunks, ring places %d", s, unique, want[s])
		}
		total += unique
	}
	if total != uint64(len(chunks)) {
		t.Fatalf("shards hold %d unique chunks total, want %d", total, len(chunks))
	}
}

func TestDerefAcrossShards(t *testing.T) {
	r, _ := startShards(t, 3, Config{})
	chunks := randomChunks(t, 100, 2)
	if _, err := r.PutChunks(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i, c := range chunks {
		fps[i] = c.FP
	}
	freed, err := r.DerefChunks(ctx, fps)
	if err != nil {
		t.Fatal(err)
	}
	if freed != uint64(len(chunks)) {
		t.Fatalf("freed %d chunks, want %d", freed, len(chunks))
	}
	stats, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for s, st := range stats {
		if st.PhysicalBytes != 0 {
			t.Errorf("shard %d still holds %d physical bytes after full deref", s, st.PhysicalBytes)
		}
	}
}

func TestFilePlaneCoLocationAndList(t *testing.T) {
	r, _ := startShards(t, 4, Config{})
	names := []string{"/a", "/b/c", "/d/e/f", "/g", "/hh", "/iii"}
	for _, name := range names {
		if err := r.PutBlob(ctx, store.NSRecipes, name, []byte("recipe:"+name)); err != nil {
			t.Fatal(err)
		}
		if err := r.PutBlob(ctx, store.NSStubs, name, []byte("stub:"+name)); err != nil {
			t.Fatal(err)
		}
	}
	// A file's recipe and stub must land on the same home shard.
	for _, name := range names {
		home := r.Home(name)
		for _, ns := range []string{store.NSRecipes, store.NSStubs} {
			listed, err := r.conns[home].ListBlobs(ctx, ns)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, n := range listed {
				if n == name {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s %q not on its home shard %d", ns, name, home)
			}
		}
		got, err := r.GetBlob(ctx, store.NSRecipes, name)
		if err != nil || string(got) != "recipe:"+name {
			t.Fatalf("GetBlob(%q) = %q, %v", name, got, err)
		}
	}
	// The merged listing sees every name exactly once, sorted.
	listed, err := r.ListBlobs(ctx, store.NSRecipes)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(names) {
		t.Fatalf("ListBlobs = %v, want %d names", listed, len(names))
	}
	for i := 1; i < len(listed); i++ {
		if listed[i-1] >= listed[i] {
			t.Fatalf("ListBlobs not sorted: %v", listed)
		}
	}
	for _, name := range names {
		if err := r.DeleteBlob(ctx, store.NSRecipes, name); err != nil {
			t.Fatal(err)
		}
	}
	listed, err = r.ListBlobs(ctx, store.NSRecipes)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 0 {
		t.Fatalf("names survive deletion: %v", listed)
	}
}

// A dead shard must transition to down after consecutive transport
// failures, after which every request the transport may not replay
// fails fast with ErrShardDown instead of burning its retry budget.
func TestFailFastOnDownShard(t *testing.T) {
	fast := retry.Policy{InitialDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, MaxAttempts: 2}
	srv, addr := testenv.StartServer(t)
	r, err := Dial(ctx, Config{Shards: []string{addr}, Retry: fast})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })

	if err := r.PutBlob(ctx, store.NSRecipes, "/x", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, h := range r.Health() {
		if h.Down || h.ConsecutiveFailures != 0 {
			t.Fatalf("healthy shard reported %+v", h)
		}
	}

	_ = srv.Shutdown()

	// Reads keep probing; each failed probe counts.
	for i := 0; i < downAfter; i++ {
		if _, err := r.GetBlob(ctx, store.NSRecipes, "/x"); err == nil {
			t.Fatal("read from dead shard succeeded")
		}
	}
	h := r.Health()[0]
	if !h.Down {
		t.Fatalf("shard not marked down after %d transport failures: %+v", h.ConsecutiveFailures, h)
	}

	// Refcount and deletion mutations now fail fast.
	chunks := randomChunks(t, 1, 3)
	if _, err := r.PutChunks(ctx, chunks); !errors.Is(err, ErrShardDown) {
		t.Fatalf("PutChunks to down shard: %v, want ErrShardDown", err)
	}
	if _, err := r.DerefChunks(ctx, []fingerprint.Fingerprint{chunks[0].FP}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("DerefChunks on down shard: %v, want ErrShardDown", err)
	}
	if err := r.DeleteBlob(ctx, store.NSRecipes, "/x"); !errors.Is(err, ErrShardDown) {
		t.Fatalf("DeleteBlob on down shard: %v, want ErrShardDown", err)
	}
	// Reads are still attempted — they are what heals the mark — and
	// report the transport error, not ErrShardDown.
	if _, err := r.GetBlob(ctx, store.NSRecipes, "/x"); errors.Is(err, ErrShardDown) {
		t.Fatalf("read refused on down shard: %v", err)
	}
}

func TestDialRejectsBadConfig(t *testing.T) {
	if _, err := Dial(ctx, Config{}); err == nil {
		t.Fatal("want error for empty shard list")
	}
	if _, err := Dial(ctx, Config{Shards: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("want error for duplicate shards")
	}
}

func TestCut(t *testing.T) {
	size := func(n int) (fingerprint.Fingerprint, int) { return fingerprint.Fingerprint{}, n }
	tests := []struct {
		name  string
		give  []int // item weights
		limit int
		want  []int // sub-batch lengths
	}{
		{"empty", nil, 100, nil},
		{"one small", []int{10}, 100, []int{1}},
		{"fits in one", []int{30, 30, 30}, 100, []int{3}},
		{"exactly full", []int{50, 50, 1}, 100, []int{2, 1}},
		{"splits", []int{60, 60, 60}, 100, []int{1, 1, 1}},
		{"pairs", []int{40, 40, 40, 40}, 100, []int{2, 2}},
		{"oversized alone", []int{200, 10}, 100, []int{1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var got []int
			for rest := tt.give; len(rest) > 0; {
				n := cut(rest, size, tt.limit)
				if n < 1 {
					t.Fatalf("cut(%v) = %d: no progress", rest, n)
				}
				got = append(got, n)
				rest = rest[n:]
			}
			if !slices.Equal(got, tt.want) {
				t.Fatalf("sub-batch lengths = %v, want %v", got, tt.want)
			}
		})
	}
}
