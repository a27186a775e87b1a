package client

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/keyreg"
	"repro/internal/policy"
	"repro/internal/recipe"
	"repro/internal/store"
	"repro/internal/testenv"
)

// Tests for the encrypt stage's third outcome: a chunk whose encryption
// result is cached beside its MLE key skips CAONT, and is encrypted
// after all only if the cluster turns out not to store it.

const knownChunkSize = 4 << 10

// knownUser builds an enhanced-scheme client with fixed 4 KB chunks, so
// a test can name every chunk's plaintext fingerprint; mutate adjusts
// the configuration.
func knownUser(t testing.TB, cluster *testenv.Cluster, user string, mutate func(*Config)) *Client {
	t.Helper()
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		UserID:         user,
		Scheme:         core.SchemeEnhanced,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		FixedChunkSize: knownChunkSize,
		PrivateKey:     cluster.Authority.IssueKey(user, []string{user}),
		Directory:      cluster.Authority,
		Owner:          owner,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// streamOf hides Seek, so Upload cannot take the whole-file clone and
// the chunk pipeline is what runs.
func streamOf(data []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} }

// cachedResults counts how many of data's chunks have an encryption
// result in c's key cache.
func cachedResults(c *Client, data []byte) (cached, chunks int) {
	for off := 0; off < len(data); off += knownChunkSize {
		end := min(off+knownChunkSize, len(data))
		if _, _, ok := c.cache.Result(fingerprint.New(data[off:end])); ok {
			cached++
		}
		chunks++
	}
	return cached, chunks
}

func fetchRecipe(t *testing.T, c *Client, path string) *recipe.Recipe {
	t.Helper()
	raw, err := c.router.GetBlob(ctx, store.NSRecipes, path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := recipe.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func mustDownload(t *testing.T, c *Client, path string, want []byte) {
	t.Helper()
	got, err := c.Download(ctx, path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: downloaded bytes differ", path)
	}
}

func storedChunks(sc *testenv.ShardedCluster) []float64 {
	var counts []float64
	for _, srv := range sc.Shards() {
		counts = append(counts, srv.MetricsSnapshot().Gauges["dedup_unique_chunk_count"])
	}
	return counts
}

// TestKnownChunksEquivalence: what a client stores through the cached
// results must be what a client without them stores — the same recipe,
// the same accounting, the same behaviour under download, rekey and
// delete — and the per-occurrence reference algebra must still balance:
// once every file is deleted no shard holds a chunk.
func TestKnownChunksEquivalence(t *testing.T) {
	sc := startSharded(t, 4)
	warm := knownUser(t, sc.Cluster, "alice", nil)
	cold := knownUser(t, sc.Cluster, "alice", nil)
	pol := policy.OrOfUsers([]string{"alice"})

	a := randomFile(t, 300<<10, 91)
	copy(a[40<<10:], a[:8<<10]) // two chunks that occur twice within the file
	if _, err := warm.Upload(ctx, "/known/a", bytes.NewReader(a), pol); err != nil {
		t.Fatal(err)
	}
	if cached, chunks := cachedResults(warm, a); cached != chunks {
		t.Fatalf("after a cold upload %d of %d chunks have a cached result", cached, chunks)
	}

	// The same bytes again: every chunk is stored, so both clients skip
	// every chunk, and both must say so in the same numbers although
	// only one of them built the packages.
	resWarm, err := warm.Upload(ctx, "/known/a-warm", streamOf(a), pol)
	if err != nil {
		t.Fatal(err)
	}
	resCold, err := cold.Upload(ctx, "/known/a-cold", streamOf(a), pol)
	if err != nil {
		t.Fatal(err)
	}
	var trimmed int64
	for _, ref := range fetchRecipe(t, warm, "/known/a").Chunks {
		trimmed += int64(ref.Size) + core.PackageOverhead - core.DefaultStubSize
	}
	for name, res := range map[string]*UploadResult{"warm": resWarm, "cold": resCold} {
		if res.SkippedChunks != res.Chunks || res.DuplicateChunks != res.Chunks || res.SkippedBytes != trimmed {
			t.Errorf("%s client: skipped %d chunks / %d bytes, %d duplicates; want all %d chunks, %d bytes",
				name, res.SkippedChunks, res.SkippedBytes, res.DuplicateChunks, res.Chunks, trimmed)
		}
	}

	// One extent changed, uploaded through the cache and without it.
	b := append([]byte(nil), a...)
	copy(b[100<<10:], randomFile(t, 8<<10, 92))
	cold.ClearKeyCache()
	if _, err := warm.Upload(ctx, "/known/b-warm", streamOf(b), pol); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Upload(ctx, "/known/b-cold", streamOf(b), pol); err != nil {
		t.Fatal(err)
	}
	recWarm, recCold := fetchRecipe(t, warm, "/known/b-warm"), fetchRecipe(t, cold, "/known/b-cold")
	if len(recWarm.Chunks) != len(recCold.Chunks) {
		t.Fatalf("recipes list %d and %d chunks", len(recWarm.Chunks), len(recCold.Chunks))
	}
	for i := range recWarm.Chunks {
		if recWarm.Chunks[i] != recCold.Chunks[i] {
			t.Fatalf("recipes differ at chunk %d", i)
		}
	}
	if recWarm.FileHash != recCold.FileHash || recWarm.Size != recCold.Size {
		t.Fatal("recipes differ in file hash or size")
	}

	// Each client reads the other's file; then lazy and active rekeys by
	// the owners, and the bytes must still come back.
	mustDownload(t, cold, "/known/b-warm", b)
	mustDownload(t, warm, "/known/b-cold", b)
	newPol := policy.OrOfUsers([]string{"alice", "carol"})
	for path, owner := range map[string]*Client{"/known/b-warm": warm, "/known/b-cold": cold} {
		if _, err := owner.Rekey(ctx, path, newPol, false); err != nil {
			t.Fatalf("lazy rekey of %s: %v", path, err)
		}
		mustDownload(t, owner, path, b)
		if _, err := owner.Rekey(ctx, path, newPol, true); err != nil {
			t.Fatalf("active rekey of %s: %v", path, err)
		}
		mustDownload(t, owner, path, b)
	}
	mustDownload(t, warm, "/known/a-warm", a)
	mustDownload(t, warm, "/known/a-cold", a)

	// Deleting everything drops exactly the references the uploads took.
	delWarm, err := warm.Delete(ctx, "/known/b-warm")
	if err != nil {
		t.Fatal(err)
	}
	delCold, err := cold.Delete(ctx, "/known/b-cold")
	if err != nil {
		t.Fatal(err)
	}
	if delWarm.Chunks != delCold.Chunks || delWarm.FreedChunks != 0 {
		t.Fatalf("delete of b-warm = %+v, of b-cold = %+v", delWarm, delCold)
	}
	for _, path := range []string{"/known/a", "/known/a-warm", "/known/a-cold"} {
		mustDownload(t, warm, path, a)
		if _, err := warm.Delete(ctx, path); err != nil {
			t.Fatalf("delete %s: %v", path, err)
		}
	}
	for shard, n := range storedChunks(sc) {
		if n != 0 {
			t.Errorf("shard %d still stores %v chunks after every file was deleted", shard, n)
		}
	}
}

// TestKnownChunksFallback: the cluster, not the cache, is the authority.
// After a delete frees the chunks, a re-upload with the cache still warm
// finds none of them stored and must encrypt and send every one; and a
// cached result that does not match its chunk is a hard error, never a
// recipe entry.
func TestKnownChunksFallback(t *testing.T) {
	sc := startSharded(t, 2)
	c := knownUser(t, sc.Cluster, "alice", nil)
	pol := policy.OrOfUsers([]string{"alice"})
	a := randomFile(t, 128<<10, 93)

	if _, err := c.Upload(ctx, "/fallback/a", bytes.NewReader(a), pol); err != nil {
		t.Fatal(err)
	}
	del, err := c.Delete(ctx, "/fallback/a")
	if err != nil {
		t.Fatal(err)
	}
	if del.FreedChunks != del.Chunks {
		t.Fatalf("delete freed %d of %d chunks", del.FreedChunks, del.Chunks)
	}

	b := append([]byte(nil), a...)
	copy(b[20<<10:], randomFile(t, knownChunkSize, 94))
	if cached, chunks := cachedResults(c, b); cached != chunks-1 {
		t.Fatalf("%d of %d chunks have a cached result, want all but the changed one", cached, chunks)
	}
	res, err := c.Upload(ctx, "/fallback/b", streamOf(b), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedChunks != 0 || res.DuplicateChunks != 0 {
		t.Fatalf("re-upload after the chunks were freed skipped %d chunks, %d duplicates", res.SkippedChunks, res.DuplicateChunks)
	}
	var stored float64
	for _, n := range storedChunks(sc) {
		stored += n
	}
	if int(stored) != res.Chunks {
		t.Fatalf("shards store %v chunks, the file has %d", stored, res.Chunks)
	}
	mustDownload(t, c, "/fallback/b", b)

	// A result that names another package: the chunk is not stored under
	// that name, so it is encrypted, and the names must then agree.
	fresh := randomFile(t, 3*knownChunkSize, 95)
	if _, err := c.Upload(ctx, "/fallback/c", streamOf(fresh), pol); err != nil {
		t.Fatal(err)
	}
	victim := fingerprint.New(fresh[knownChunkSize : 2*knownChunkSize])
	if !c.cache.PutResult(victim, fingerprint.New([]byte("not this chunk's package")), make([]byte, core.DefaultStubSize)) {
		t.Fatal("no key cached for the chunk just uploaded")
	}
	if _, err := c.Upload(ctx, "/fallback/c2", streamOf(fresh), pol); err == nil {
		t.Fatal("an upload whose cached result does not match its chunk succeeded")
	}
	if _, err := c.Download(ctx, "/fallback/c2"); err == nil {
		t.Fatal("the failed upload left a readable file")
	}
}

// TestKnownChunksBypass: an audit book and a disabled key cache each
// keep every chunk on the encrypt path. A deliberately wrong result planted in the cache would fail the
// upload (or corrupt the stub file) if it were ever consulted.
func TestKnownChunksBypass(t *testing.T) {
	cluster := startCluster(t)
	pol := policy.OrOfUsers([]string{"alice"})
	data := randomFile(t, 64<<10, 96)
	for name, mutate := range map[string]func(*Config){
		"audit book":   func(cfg *Config) { cfg.AuditTickets = 4 },
		"no key cache": func(cfg *Config) { cfg.CacheCapacity = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			c := knownUser(t, cluster, "alice", mutate)
			if _, err := c.Upload(ctx, "/bypass/"+name, streamOf(data), pol); err != nil {
				t.Fatal(err)
			}
			if c.cache != nil {
				if cached, _ := cachedResults(c, data); cached != 0 {
					t.Fatalf("%d encryption results were cached", cached)
				}
				for off := 0; off < len(data); off += knownChunkSize {
					fp := fingerprint.New(data[off : off+knownChunkSize])
					if !c.cache.PutResult(fp, fingerprint.New([]byte("planted")), make([]byte, core.DefaultStubSize)) {
						t.Fatal("no key cached for an uploaded chunk")
					}
				}
			}
			res, err := c.Upload(ctx, "/bypass/again/"+name, streamOf(data), pol)
			if err != nil {
				t.Fatal(err)
			}
			if res.DuplicateChunks != res.Chunks {
				t.Fatalf("%d of %d chunks deduplicated", res.DuplicateChunks, res.Chunks)
			}
			mustDownload(t, c, "/bypass/again/"+name, data)
		})
	}
}

// TestKnownChunksBoundedMemory: known chunks keep their plaintext
// charged to the byte gate until the cluster confirms them, so an upload
// that skips every transform still buffers O(segment), not O(file).
func TestKnownChunksBoundedMemory(t *testing.T) {
	cluster := startCluster(t)
	const (
		segBytes = 4 << 20
		fileSize = 64 << 20
	)
	c := knownUser(t, cluster, "alice", func(cfg *Config) {
		cfg.SegmentBytes = segBytes
		cfg.FixedChunkSize = 16 << 10
	})
	pol := policy.OrOfUsers([]string{"alice"})
	data := randomFile(t, fileSize, 97)
	if _, err := c.Upload(ctx, "/bounded/cold", streamOf(data), pol); err != nil {
		t.Fatal(err)
	}
	res, err := c.Upload(ctx, "/bounded/warm", streamOf(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedChunks != res.Chunks {
		t.Fatalf("warm upload skipped %d of %d chunks", res.SkippedChunks, res.Chunks)
	}
	if res.PeakBuffered <= 0 || res.PeakBuffered > 2*segBytes {
		t.Fatalf("PeakBuffered = %d on an all-warm %d-byte upload, want within (0, %d]", res.PeakBuffered, fileSize, 2*segBytes)
	}
}
