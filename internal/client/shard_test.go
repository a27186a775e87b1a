package client

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/packfile"
	"repro/internal/policy"
	"repro/internal/testenv"
)

// startSharded boots an n-shard deployment sharing the test OPRF key.
func startSharded(t testing.TB, n int) *testenv.ShardedCluster {
	t.Helper()
	sc, err := testenv.StartSharded(testenv.ShardedOptions{Shards: n, KMKey: sharedKMKey(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	return sc
}

// shardUser builds a client on a sharded cluster with fixed 4 KiB
// chunks, so corpora composed from shared 4 KiB-aligned blocks
// deduplicate across files and across deployments.
func shardUser(t testing.TB, sc *testenv.ShardedCluster, user string) *Client {
	t.Helper()
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         user,
		Scheme:         core.SchemeBasic,
		DataServers:    sc.ShardAddrs(),
		KeyStoreServer: sc.KeyAddr,
		KeyManager:     sc.KMAddr,
		PrivateKey:     sc.Authority.IssueKey(user, []string{user}),
		Directory:      sc.Authority,
		Owner:          owner,
		FixedChunkSize: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// shardCorpus builds files with deliberate duplicate content: /b is a
// block rotation of /a (same 4 KiB-aligned chunks, different order)
// and /c shares its first half with /a, so dedup must fire within and
// across files identically on any deployment.
func shardCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	base := randomFile(t, 256<<10, 1234)
	rot := append(append([]byte(nil), base[64<<10:]...), base[:64<<10]...)
	mixed := append(append([]byte(nil), base[:128<<10]...), randomFile(t, 128<<10, 5678)...)
	return map[string][]byte{"/corpus/a": base, "/corpus/b": rot, "/corpus/c": mixed}
}

// dedupTotals sums the dedup byte gauges across a deployment's storage
// servers (read directly from the in-process registries, the same
// numbers the Metrics RPC serves).
func dedupTotals(t testing.TB, sc *testenv.ShardedCluster) (logical, physical float64) {
	t.Helper()
	for _, srv := range sc.Shards() {
		snap := srv.MetricsSnapshot()
		logical += snap.Gauges["dedup_logical_bytes"]
		physical += snap.Gauges["dedup_physical_bytes"]
	}
	return logical, physical
}

// TestShardedRoundTripAndAccounting is the tentpole acceptance test: a
// 4-shard cluster must round-trip upload → download → rekey → delete
// byte-identically, and its per-shard dedup accounting must sum to
// exactly what a single-node deployment reports for the same corpus
// (placement only partitions the fingerprint space — it must never
// change what is stored).
func TestShardedRoundTripAndAccounting(t *testing.T) {
	corpus := shardCorpus(t)
	paths := []string{"/corpus/a", "/corpus/b", "/corpus/c"}

	single := startSharded(t, 1)
	sharded := startSharded(t, 4)
	cs := shardUser(t, single, "alice")
	c4 := shardUser(t, sharded, "alice")

	for _, path := range paths {
		pol := policy.OrOfUsers([]string{"alice"})
		rs, err := cs.Upload(ctx, path, bytes.NewReader(corpus[path]), pol)
		if err != nil {
			t.Fatalf("single-node upload %s: %v", path, err)
		}
		r4, err := c4.Upload(ctx, path, bytes.NewReader(corpus[path]), pol)
		if err != nil {
			t.Fatalf("sharded upload %s: %v", path, err)
		}
		// Dedup decisions must be placement-independent.
		if rs.Chunks != r4.Chunks || rs.DuplicateChunks != r4.DuplicateChunks {
			t.Fatalf("%s: single-node %d chunks (%d dups), sharded %d chunks (%d dups)",
				path, rs.Chunks, rs.DuplicateChunks, r4.Chunks, r4.DuplicateChunks)
		}
	}

	// Per-shard dedup accounting sums to the single-node totals.
	sl, sp := dedupTotals(t, single)
	ml, mp := dedupTotals(t, sharded)
	if sl <= 0 || sp <= 0 {
		t.Fatalf("single-node totals not positive: logical=%v physical=%v", sl, sp)
	}
	if ml != sl || mp != sp {
		t.Fatalf("sharded dedup totals logical=%v physical=%v, single-node logical=%v physical=%v",
			ml, mp, sl, sp)
	}
	// Every shard took a share of the corpus — the ring actually
	// spread the fingerprint space.
	for i, srv := range sharded.Shards() {
		if srv.MetricsSnapshot().Gauges["dedup_physical_bytes"] <= 0 {
			t.Errorf("shard %d holds no chunk bytes; placement collapsed onto fewer shards", i)
		}
	}

	// Download: byte-identical on the sharded deployment.
	for _, path := range paths {
		got, err := c4.Download(ctx, path)
		if err != nil || !bytes.Equal(got, corpus[path]) {
			t.Fatalf("sharded download %s: %v", path, err)
		}
	}

	// Rekey with active revocation (stub re-encryption crosses the
	// file plane), then download again.
	if _, err := c4.Rekey(ctx, "/corpus/a", policy.OrOfUsers([]string{"alice"}), true); err != nil {
		t.Fatalf("sharded rekey: %v", err)
	}
	got, err := c4.Download(ctx, "/corpus/a")
	if err != nil || !bytes.Equal(got, corpus["/corpus/a"]) {
		t.Fatalf("download after rekey: %v", err)
	}

	// Delete every file; chunks must be fully reclaimed across shards.
	for _, path := range paths {
		if _, err := c4.Delete(ctx, path); err != nil {
			t.Fatalf("sharded delete %s: %v", path, err)
		}
		if _, err := c4.Download(ctx, path); !errors.Is(err, ErrNotFound) {
			t.Fatalf("download after delete %s: %v, want ErrNotFound", path, err)
		}
	}
	if _, mp := dedupTotals(t, sharded); mp != 0 {
		t.Fatalf("%v physical bytes survive full deletion", mp)
	}
}

// TestSingleShardDegenerate pins the 1-shard ring to today's
// single-server behavior: every chunk and every blob lands on shard 0,
// nothing routes anywhere else, and the round trip is byte-identical.
func TestSingleShardDegenerate(t *testing.T) {
	sc := startSharded(t, 1)
	c := shardUser(t, sc, "alice")
	data := randomFile(t, 128<<10, 77)
	res, err := c.Upload(ctx, "/solo", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Download(ctx, "/solo")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	snap := sc.Shards()[0].MetricsSnapshot()
	if uint64(snap.Counters["dedup_total_puts"]) != uint64(res.Chunks) {
		t.Fatalf("shard 0 saw %d chunk puts, upload sent %d", snap.Counters["dedup_total_puts"], res.Chunks)
	}
	health := c.ShardHealth()
	if len(health) != 1 || health[0].Down {
		t.Fatalf("unexpected shard health %+v", health)
	}
}

// TestShardedStatsBySource checks the labeled cluster-metrics view: one
// snapshot per source, attributed to the shard address, the key
// manager, or the key store — per-shard imbalance must stay visible.
func TestShardedStatsBySource(t *testing.T) {
	sc := startSharded(t, 4)
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         "alice",
		Scheme:         core.SchemeBasic,
		DataServers:    sc.ShardAddrs(),
		KeyStoreServer: sc.KeyAddr,
		KeyManager:     sc.KMAddr,
		PrivateKey:     sc.Authority.IssueKey("alice", []string{"alice"}),
		Directory:      sc.Authority,
		Owner:          owner,
		FixedChunkSize: 4 << 10,
		Metrics:        metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	data := randomFile(t, 128<<10, 99)
	if _, err := c.Upload(ctx, "/labeled", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}

	sources, err := c.ClusterMetricsBySource(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bySource := make(map[string]metrics.Snapshot, len(sources))
	for _, src := range sources {
		if _, dup := bySource[src.Source]; dup {
			t.Fatalf("source %q listed twice", src.Source)
		}
		bySource[src.Source] = src.Snapshot
	}
	for _, want := range append([]string{"client", "keymanager", "keystore"}, sc.ShardAddrs()...) {
		if _, ok := bySource[want]; !ok {
			t.Fatalf("source %q missing from ClusterMetricsBySource (have %d sources)", want, len(sources))
		}
	}
	// Shard snapshots carry that shard's own accounting, not a merge.
	var chunkBytes float64
	for _, addr := range sc.ShardAddrs() {
		chunkBytes += bySource[addr].Gauges["dedup_physical_bytes"]
	}
	if chunkBytes <= 0 {
		t.Fatal("shard-attributed snapshots hold no dedup accounting")
	}
	// The client's own registry carries shard-labeled RPC families.
	labeled := 0
	for name := range bySource["client"].Histograms {
		if name == metrics.Label("rpc_latency", "op", "PutChunks", "shard", sc.ShardAddrs()[0]) {
			labeled++
		}
	}
	if labeled == 0 {
		t.Fatal("client registry has no shard-labeled rpc_latency families")
	}
}

// TestChaosShardedUploadSurvivesShardCut runs a 3-shard upload with a
// scripted mid-upload connection cut on one shard (dial order: conn 0
// is the key manager, conns 1..3 the shards): the upload must recover
// via redial plus the router's batch re-send, byte-identically.
func TestChaosShardedUploadSurvivesShardCut(t *testing.T) {
	sc := startSharded(t, 3)
	plan := netem.NewPlan(42)
	plan.OnDial(2, netem.Fault{CutAfterWriteBytes: 32 << 10})
	c := newChaosUser(t, sc.Cluster, "alice", plan)

	data := randomFile(t, 256<<10, 4242)
	pol := policy.OrOfUsers([]string{"alice"})
	res, err := c.Upload(ctx, "/chaos/shardcut", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatalf("sharded upload across shard cut: %v", err)
	}
	if plan.Injected() == 0 {
		t.Fatal("fault never fired; cut offset no longer on the upload path")
	}
	if res.Retry.Reconnects < 1 {
		t.Fatalf("Retry.Reconnects = %d, want >= 1", res.Retry.Reconnects)
	}
	if res.Retry.RetriedBatches < 1 {
		t.Fatalf("Retry.RetriedBatches = %d, want >= 1 (PutChunks batches are router-retried)", res.Retry.RetriedBatches)
	}
	got, err := c.Download(ctx, "/chaos/shardcut")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after recovered sharded upload: %v", err)
	}
	// No shard may be marked down — the cut was transient and healed.
	for _, h := range c.ShardHealth() {
		if h.Down {
			t.Fatalf("shard %s still marked down after recovery", h.Addr)
		}
	}
}

// TestShardedColdUploadWriteCensus is the write-amplification account
// of a 32 MB cold upload to a fresh 4-shard cluster, read from the
// shards' write-census counters: each unique chunk byte reaches its
// container about once (plus the packfile index), the WAL carries
// metadata only, and no shard checkpoints.
func TestShardedColdUploadWriteCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("32 MB upload")
	}
	sc := startSharded(t, 4)
	c := shardUser(t, sc, "alice")
	const size = 32 << 20
	data := randomFile(t, size, 2024)
	if _, err := c.Upload(ctx, "/census", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	var container, walBytes, commits, seals, checkpoints, unique, chunks float64
	for _, srv := range sc.Shards() {
		snap := srv.MetricsSnapshot()
		container += float64(snap.Counters["dedup_container_write_bytes"])
		walBytes += float64(snap.Counters["dedup_wal_write_bytes"])
		commits += float64(snap.Counters["dedup_commits_total"])
		seals += float64(snap.Counters["dedup_seals_total"])
		checkpoints += float64(snap.Counters["dedup_checkpoints_total"])
		unique += snap.Gauges["dedup_physical_bytes"]
		chunks += snap.Gauges["dedup_unique_chunk_count"]
	}
	index := chunks*packfile.EntrySize + (seals+4)*(packfile.HeaderSize+packfile.FooterSize)
	t.Logf("census: %.0f user bytes, %.0f unique chunk bytes in %.0f chunks; container writes %.0f (%.3f× unique), WAL %.0f (%.4f× user), %.0f commits, %.0f seals, %.0f checkpoints",
		float64(size), unique, chunks, container, container/unique, walBytes, walBytes/size, commits, seals, checkpoints)
	if container > 1.05*unique+index {
		t.Errorf("container writes %.0f > 1.05 × %.0f unique bytes + %.0f index", container, unique, index)
	}
	if walBytes > 0.02*size {
		t.Errorf("WAL writes %.0f > 2%% of %d user bytes", walBytes, size)
	}
	if checkpoints != 0 {
		t.Errorf("%.0f checkpoints during a 32 MB upload, want none", checkpoints)
	}
}
