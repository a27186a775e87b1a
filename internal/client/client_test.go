package client

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/oprf"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/testenv"
)

// ctx is the default context test call sites run under.
var ctx = context.Background()

// Shared expensive fixtures: one OPRF key, one keyreg owner template.
var (
	fixtureOnce sync.Once
	kmKey       *oprf.ServerKey
)

func sharedKMKey(t testing.TB) *oprf.ServerKey {
	t.Helper()
	fixtureOnce.Do(func() {
		k, err := oprf.GenerateServerKey(oprf.DefaultBits, nil)
		if err != nil {
			t.Fatalf("oprf key: %v", err)
		}
		kmKey = k
	})
	return kmKey
}

// startCluster boots a small in-process deployment.
func startCluster(t testing.TB) *testenv.Cluster {
	t.Helper()
	cluster, err := testenv.Start(testenv.Options{DataServers: 2, KMKey: sharedKMKey(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster
}

// newUser builds a connected client for a user with a fresh keyreg
// owner.
func newUser(t testing.TB, cluster *testenv.Cluster, user string, scheme core.Scheme) *Client {
	t.Helper()
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         user,
		Scheme:         scheme,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey(user, []string{user}),
		Directory:      cluster.Authority,
		Owner:          owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func randomFile(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	cluster := startCluster(t)
	for _, scheme := range []core.Scheme{core.SchemeBasic, core.SchemeEnhanced} {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newUser(t, cluster, "alice-"+scheme.String(), scheme)
			data := randomFile(t, 256<<10, 1)
			pol := policy.OrOfUsers([]string{"alice-" + scheme.String()})

			res, err := c.Upload(ctx, "/f/"+scheme.String(), bytes.NewReader(data), pol)
			if err != nil {
				t.Fatal(err)
			}
			if res.LogicalBytes != int64(len(data)) {
				t.Fatalf("LogicalBytes = %d, want %d", res.LogicalBytes, len(data))
			}
			if res.Chunks == 0 {
				t.Fatal("no chunks")
			}

			got, err := c.Download(ctx, "/f/"+scheme.String())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("download differs from upload")
			}
		})
	}
}

func TestDeduplicationAcrossUploads(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 256<<10, 2)
	pol := policy.OrOfUsers([]string{"alice"})

	res1, err := c.Upload(ctx, "/v1", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res1.DuplicateChunks != 0 {
		t.Fatalf("first upload had %d duplicates", res1.DuplicateChunks)
	}
	res2, err := c.Upload(ctx, "/v2", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DuplicateChunks != res2.Chunks {
		t.Fatalf("second upload: %d/%d duplicates, want all", res2.DuplicateChunks, res2.Chunks)
	}

	// Both copies still download correctly.
	for _, path := range []string{"/v1", "/v2"} {
		got, err := c.Download(ctx, path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("download %s failed: %v", path, err)
		}
	}
}

func TestCrossUserDeduplication(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeEnhanced)
	bob := newUser(t, cluster, "bob", core.SchemeEnhanced)
	data := randomFile(t, 128<<10, 3)

	if _, err := alice.Upload(ctx, "/alice-file", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	res, err := bob.Upload(ctx, "/bob-file", bytes.NewReader(data), policy.OrOfUsers([]string{"bob"}))
	if err != nil {
		t.Fatal(err)
	}
	// Identical content under server-aided MLE deduplicates across
	// users even though the files have different policies and keys.
	if res.DuplicateChunks != res.Chunks {
		t.Fatalf("cross-user dedup: %d/%d duplicates", res.DuplicateChunks, res.Chunks)
	}
	// Each user still reads their own file.
	got, err := bob.Download(ctx, "/bob-file")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("bob download: %v", err)
	}
}

func TestAccessControl(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeEnhanced)
	mallory := newUser(t, cluster, "mallory", core.SchemeEnhanced)
	data := randomFile(t, 64<<10, 4)

	if _, err := alice.Upload(ctx, "/secret", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.Download(ctx, "/secret"); err == nil {
		t.Fatal("unauthorized user downloaded the file")
	}
}

func TestSharedFileBothUsersCanRead(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeEnhanced)
	bob := newUser(t, cluster, "bob", core.SchemeEnhanced)
	data := randomFile(t, 64<<10, 5)

	pol := policy.OrOfUsers([]string{"alice", "bob"})
	if _, err := alice.Upload(ctx, "/shared", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Client{"alice": alice, "bob": bob} {
		got, err := c.Download(ctx, "/shared")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s download: %v", name, err)
		}
	}
}

func TestLazyRevocation(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeEnhanced)
	bob := newUser(t, cluster, "bob", core.SchemeEnhanced)
	data := randomFile(t, 64<<10, 6)

	if _, err := alice.Upload(ctx, "/doc", bytes.NewReader(data), policy.OrOfUsers([]string{"alice", "bob"})); err != nil {
		t.Fatal(err)
	}

	res, err := alice.Rekey(ctx, "/doc", policy.OrOfUsers([]string{"alice"}), false /* lazy */)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVersion <= res.OldVersion {
		t.Fatalf("rekey did not advance the key state: %+v", res)
	}
	if res.StubBytes != 0 {
		t.Fatal("lazy revocation re-encrypted stubs")
	}

	// Alice can still read (stub is under the old version; key
	// regression unwinds).
	var got bytes.Buffer
	dl, err := alice.DownloadTo(ctx, "/doc", &got)
	if err != nil || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("alice download after lazy rekey: %v", err)
	}
	if dl.KeyVersion != res.OldVersion {
		t.Errorf("download reports key version %d, want the stub file's %d", dl.KeyVersion, res.OldVersion)
	}
	// Bob cannot decrypt the new key state.
	if _, err := bob.Download(ctx, "/doc"); err == nil {
		t.Fatal("revoked user still downloads after lazy revocation")
	}
}

func TestActiveRevocation(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeEnhanced)
	bob := newUser(t, cluster, "bob", core.SchemeEnhanced)
	data := randomFile(t, 64<<10, 7)

	if _, err := alice.Upload(ctx, "/doc2", bytes.NewReader(data), policy.OrOfUsers([]string{"alice", "bob"})); err != nil {
		t.Fatal(err)
	}
	res, err := alice.Rekey(ctx, "/doc2", policy.OrOfUsers([]string{"alice"}), true /* active */)
	if err != nil {
		t.Fatal(err)
	}
	if res.StubBytes == 0 {
		t.Fatal("active revocation did not re-encrypt stubs")
	}
	var got bytes.Buffer
	dl, err := alice.DownloadTo(ctx, "/doc2", &got)
	if err != nil || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("alice download after active rekey: %v", err)
	}
	// The recipe still names the publish-time version; the re-sealed
	// stub file's header names the new one.
	if dl.KeyVersion != res.NewVersion {
		t.Errorf("download reports key version %d, want the new %d", dl.KeyVersion, res.NewVersion)
	}
	if _, err := bob.Download(ctx, "/doc2"); err == nil {
		t.Fatal("revoked user still downloads after active revocation")
	}
}

func TestMultipleRekeys(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeBasic)
	data := randomFile(t, 64<<10, 8)

	if _, err := alice.Upload(ctx, "/multi", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		active := i%2 == 0
		if _, err := alice.Rekey(ctx, "/multi", policy.OrOfUsers([]string{"alice"}), active); err != nil {
			t.Fatalf("rekey %d: %v", i, err)
		}
		got, err := alice.Download(ctx, "/multi")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("download after rekey %d: %v", i, err)
		}
	}
}

func TestDownloadMissingFile(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeBasic)
	if _, err := c.Download(ctx, "/absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("error = %v, want ErrNotFound", err)
	}
}

func TestUploadWithoutOwner(t *testing.T) {
	cluster := startCluster(t)
	c, err := New(ctx, Config{
		UserID:         "noowner",
		Scheme:         core.SchemeBasic,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey("noowner", []string{"noowner"}),
		Directory:      cluster.Authority,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Upload(ctx, "/x", bytes.NewReader([]byte("data")), policy.OrOfUsers([]string{"noowner"}))
	if !errors.Is(err, ErrNoOwner) {
		t.Fatalf("error = %v, want ErrNoOwner", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cluster := startCluster(t)
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	valid := Config{
		UserID:         "u",
		Scheme:         core.SchemeBasic,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey("u", []string{"u"}),
		Directory:      cluster.Authority,
		Owner:          owner,
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no user", func(c *Config) { c.UserID = "" }},
		{"no data servers", func(c *Config) { c.DataServers = nil }},
		{"no key store", func(c *Config) { c.KeyStoreServer = "" }},
		{"no key manager", func(c *Config) { c.KeyManager = "" }},
		{"no private key", func(c *Config) { c.PrivateKey = nil }},
		{"no directory", func(c *Config) { c.Directory = nil }},
		{"bad scheme", func(c *Config) { c.Scheme = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := New(ctx, cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestEmptyFileUpload(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeBasic)
	res, err := c.Upload(ctx, "/empty", bytes.NewReader(nil), policy.OrOfUsers([]string{"alice"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 0 {
		t.Fatalf("empty file produced %d chunks", res.Chunks)
	}
	got, err := c.Download(ctx, "/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file downloaded %d bytes", len(got))
	}
}

func TestFixedChunking(t *testing.T) {
	cluster := startCluster(t)
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         "alice",
		Scheme:         core.SchemeEnhanced,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		FixedChunkSize: 4096,
		PrivateKey:     cluster.Authority.IssueKey("alice", []string{"alice"}),
		Directory:      cluster.Authority,
		Owner:          owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomFile(t, 100<<10, 9)
	res, err := c.Upload(ctx, "/fixed", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"}))
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(data) + 4095) / 4096; res.Chunks != want {
		t.Fatalf("fixed chunking produced %d chunks, want %d", res.Chunks, want)
	}
	got, err := c.Download(ctx, "/fixed")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fixed chunking round trip: %v", err)
	}
}

func TestKeyCacheSpeedsSecondUpload(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 128<<10, 10)

	if _, err := c.Upload(ctx, "/c1", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	// The duplicate goes under a second policy, so it misses the
	// per-policy whole-file index and reaches key generation.
	evalsAfterFirst := cluster.KMEvaluations()
	if _, err := c.Upload(ctx, "/c2", bytes.NewReader(data), policy.OrOfUsers([]string{"alice", "bob"})); err != nil {
		t.Fatal(err)
	}
	if cluster.KMEvaluations() != evalsAfterFirst {
		t.Fatal("second upload of identical data hit the key manager despite the cache")
	}
	hits, _ := c.CacheStats()
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestClearKeyCache(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 64<<10, 11)

	if _, err := c.Upload(ctx, "/cc1", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	// Second policy, as in TestKeyCacheSpeedsSecondUpload: the clone
	// would bypass the key manager with or without a cache.
	c.ClearKeyCache()
	evals := cluster.KMEvaluations()
	if _, err := c.Upload(ctx, "/cc2", bytes.NewReader(data), policy.OrOfUsers([]string{"alice", "bob"})); err != nil {
		t.Fatal(err)
	}
	if cluster.KMEvaluations() == evals {
		t.Fatal("cache cleared but no new key manager evaluations")
	}
}

func TestTamperedChunkDetected(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 64<<10, 12)
	if _, err := c.Upload(ctx, "/tamper", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	// Seal open containers to the backends, then corrupt them.
	for _, srv := range cluster.DataServers {
		if err := srv.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	corruptAll(t, cluster)
	if _, err := c.Download(ctx, "/tamper"); err == nil {
		t.Fatal("download of tampered data succeeded")
	}
}

// TestTamperedRecipeSizeBounded: the recipe is not authenticated, so a
// chunk size rewritten to 1 GiB must fail the download at that chunk,
// without Download first allocating what the recipe claims.
func TestTamperedRecipeSizeBounded(t *testing.T) {
	cluster := startCluster(t)
	c := knownUser(t, cluster, "alice", func(cfg *Config) { cfg.SegmentBytes = 8 << 20 })
	data := randomFile(t, 64<<10, 16)
	if _, err := c.Upload(ctx, "/tamper-size", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	rec := fetchRecipe(t, c, "/tamper-size")
	const claimed = 1 << 30
	rec.Size += claimed - uint64(rec.Chunks[0].Size)
	rec.Chunks[0].Size = claimed
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.router.PutBlob(ctx, store.NSRecipes, "/tamper-size", rec.Marshal()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Download(ctx, "/tamper-size")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "recipe says 1073741824") {
		t.Fatalf("download of a recipe claiming a 1 GiB chunk: err = %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("the failed download allocated %d MiB", alloc>>20)
	}
}

// corruptAll flips a byte in every stored container on every data
// server.
func corruptAll(t *testing.T, cluster *testenv.Cluster) {
	t.Helper()
	for _, srv := range cluster.DataServers {
		backend := srv.Backend()
		names, err := backend.List(ctx, store.NSContainers)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			blob, err := backend.Get(ctx, store.NSContainers, name)
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) == 0 {
				continue
			}
			blob[len(blob)/2] ^= 0xFF
			if err := backend.Put(ctx, store.NSContainers, name, blob); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestServerStats(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeBasic)
	data := randomFile(t, 128<<10, 13)
	if _, err := c.Upload(ctx, "/stats", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	stats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// 2 data servers + 1 key store.
	if len(stats) != 3 {
		t.Fatalf("stats count = %d", len(stats))
	}
	var physical uint64
	for _, s := range stats {
		physical += s.PhysicalBytes
	}
	if physical == 0 {
		t.Fatal("no physical bytes recorded")
	}
}

func TestLargeFileManyBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("large file test")
	}
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	// 12 MB forces multiple 4 MB upload batches per server.
	data := randomFile(t, 12<<20, 14)
	if _, err := c.Upload(ctx, "/large", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	got, err := c.Download(ctx, "/large")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("large file round trip: %v", err)
	}
}
