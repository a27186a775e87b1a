package client

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/proto"
)

// chunkPlane is what a client's registry shows of its chunk traffic:
// trimmed bytes sent, and HasChunks and PutChunks calls over all shards.
type chunkPlane struct{ wireBytes, hasCalls, putCalls uint64 }

func chunkPlaneCounters(reg *metrics.Registry) chunkPlane {
	snap := reg.Snapshot()
	calls := func(op proto.MsgType) (n uint64) {
		prefix := strings.TrimSuffix(metrics.Label("rpc_total", "op", proto.OpNames()[op]), "}") + ","
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
		return n
	}
	return chunkPlane{
		wireBytes: snap.Counters["upload_wire_bytes"],
		hasCalls:  calls(proto.MsgHasChunksReq),
		putCalls:  calls(proto.MsgPutChunksReq),
	}
}

// TestWholeFileFastPath: re-uploading identical bytes under the same
// policy must take the clone path — no chunk data on the wire, and no
// chunk lookup either — and both files must download bit-identically.
func TestWholeFileFastPath(t *testing.T) {
	cluster := startCluster(t)
	reg := metrics.NewRegistry()
	c := knownUser(t, cluster, "alice", func(cfg *Config) { cfg.Metrics = reg })
	data := randomFile(t, 256<<10, 71)
	pol := policy.OrOfUsers([]string{"alice"})

	cold, err := c.Upload(ctx, "/fp/source", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WholeFileHit {
		t.Fatal("first upload of unique data reported a whole-file hit")
	}
	afterCold := chunkPlaneCounters(reg)
	if afterCold.wireBytes == 0 || afterCold.hasCalls == 0 || afterCold.putCalls == 0 {
		t.Fatalf("cold upload left chunk-plane counters at %+v, want all nonzero", afterCold)
	}
	warm, err := c.Upload(ctx, "/fp/clone", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	// The negative lookup alone would also keep every byte off the
	// wire, so the lookup and put calls must not move either.
	if afterWarm := chunkPlaneCounters(reg); afterWarm != afterCold {
		t.Fatalf("warm upload moved chunk-plane counters: %+v, want %+v", afterWarm, afterCold)
	}
	if !warm.WholeFileHit {
		t.Fatal("identical re-upload did not take the fast path")
	}
	if warm.SkippedBytes != int64(len(data)) {
		t.Fatalf("SkippedBytes = %d, want %d", warm.SkippedBytes, len(data))
	}
	if warm.Chunks != cold.Chunks || warm.DuplicateChunks != warm.Chunks {
		t.Fatalf("clone chunks = %d (dups %d), want %d all-dup", warm.Chunks, warm.DuplicateChunks, cold.Chunks)
	}
	for _, path := range []string{"/fp/source", "/fp/clone"} {
		got, err := c.Download(ctx, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: downloaded bytes differ", path)
		}
	}
}

// TestClonedFileEquivalence is the acceptance bar for the clone path:
// a cloned file must be indistinguishable from a freshly uploaded one
// under every later operation — download, lazy rekey, active rekey,
// and delete — on a sharded cluster.
func TestClonedFileEquivalence(t *testing.T) {
	cluster := startCluster(t) // two shards: clone spans the ring
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 300<<10, 72)
	pol := policy.OrOfUsers([]string{"alice"})

	if _, err := c.Upload(ctx, "/eq/fresh", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}
	warm, err := c.Upload(ctx, "/eq/clone", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WholeFileHit {
		t.Fatal("clone path not taken")
	}

	// Lazy rekey on the clone, active rekey on the fresh file: both
	// must keep downloading the original bytes.
	newPol := policy.OrOfUsers([]string{"alice", "carol"})
	if _, err := c.Rekey(ctx, "/eq/clone", newPol, false); err != nil {
		t.Fatalf("lazy rekey of clone: %v", err)
	}
	if _, err := c.Rekey(ctx, "/eq/fresh", newPol, true); err != nil {
		t.Fatalf("active rekey of fresh: %v", err)
	}
	// Active rekey on the clone too — it re-seals the clone's own stub
	// file, which only works if the clone's stubs are sealed exactly
	// like a fresh upload's.
	if _, err := c.Rekey(ctx, "/eq/clone", newPol, true); err != nil {
		t.Fatalf("active rekey of clone: %v", err)
	}
	for _, path := range []string{"/eq/fresh", "/eq/clone"} {
		got, err := c.Download(ctx, path)
		if err != nil {
			t.Fatalf("%s after rekey: %v", path, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s after rekey: bytes differ", path)
		}
	}

	// Deleting the source must not free chunks the clone references.
	del, err := c.Delete(ctx, "/eq/fresh")
	if err != nil {
		t.Fatal(err)
	}
	if del.FreedChunks != 0 {
		t.Fatalf("deleting the source freed %d chunks the clone references", del.FreedChunks)
	}
	got, err := c.Download(ctx, "/eq/clone")
	if err != nil {
		t.Fatalf("clone after source delete: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clone corrupted by source delete")
	}
	// Deleting the clone — now the last reference — frees everything.
	del, err = c.Delete(ctx, "/eq/clone")
	if err != nil {
		t.Fatal(err)
	}
	if del.FreedChunks != del.Chunks {
		t.Fatalf("deleting the last file freed %d of %d chunks", del.FreedChunks, del.Chunks)
	}
	if _, err := c.Download(ctx, "/eq/clone"); err == nil {
		t.Fatal("deleted clone still downloads")
	}
}

// TestWarmUploadFiltering: a file sharing most of its chunks with a
// stored one misses the whole-file index but must skip the shared
// chunks via the batched negative lookup — and the skipped references
// must count, so deleting the first file cannot corrupt the second.
func TestWarmUploadFiltering(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 256<<10, 73)
	pol := policy.OrOfUsers([]string{"alice"})

	if _, err := c.Upload(ctx, "/warm/a", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}
	// Same prefix, different tail: whole-file hash differs, most chunk
	// fingerprints do not.
	edited := append(append([]byte(nil), data...), randomFile(t, 4<<10, 74)...)
	res, err := c.Upload(ctx, "/warm/b", bytes.NewReader(edited), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.WholeFileHit {
		t.Fatal("edited file reported a whole-file hit")
	}
	if res.SkippedChunks == 0 {
		t.Fatal("warm upload filtered no chunks")
	}
	if res.SkippedChunks > res.DuplicateChunks {
		t.Fatalf("SkippedChunks %d > DuplicateChunks %d", res.SkippedChunks, res.DuplicateChunks)
	}
	if _, err := c.Delete(ctx, "/warm/a"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Download(ctx, "/warm/b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, edited) {
		t.Fatal("filtered upload corrupted by deleting its dedup sibling")
	}
}

// TestFastPathPolicyIsolation: identical bytes under a different
// protection policy must not hit the whole-file index — the pre-check
// must never become an oracle across policy boundaries.
func TestFastPathPolicyIsolation(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	data := randomFile(t, 128<<10, 75)

	if _, err := c.Upload(ctx, "/pol/a", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	res, err := c.Upload(ctx, "/pol/b", bytes.NewReader(data), policy.OrOfUsers([]string{"alice", "dave"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.WholeFileHit {
		t.Fatal("fast path crossed a policy boundary")
	}
	// Chunk-level dedup still applies across policies (REED's point):
	// the bytes dedupe, only the fast path is policy-scoped.
	if res.DuplicateChunks != res.Chunks {
		t.Fatalf("cross-policy re-upload deduped %d of %d chunks", res.DuplicateChunks, res.Chunks)
	}
}

// TestFastPathStaleEntryFallsBack: overwriting a registered file makes
// its index entry stale; a later identical upload of the *old* bytes
// must detect the mismatch against the recipe's FileHash and fall back
// to the full pipeline instead of cloning the wrong file.
func TestFastPathStaleEntryFallsBack(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	pol := policy.OrOfUsers([]string{"alice"})
	v1 := randomFile(t, 128<<10, 77)
	v2 := randomFile(t, 96<<10, 78)

	if _, err := c.Upload(ctx, "/stale/f", bytes.NewReader(v1), pol); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place. v2's registration adds its own entry and
	// leaves v1's, which now points at a recipe holding v2.
	if _, err := c.Upload(ctx, "/stale/f", bytes.NewReader(v2), pol); err != nil {
		t.Fatal(err)
	}

	res, err := c.Upload(ctx, "/stale/copy", bytes.NewReader(v1), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.WholeFileHit {
		t.Fatal("stale index entry produced a clone")
	}
	got, err := c.Download(ctx, "/stale/copy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("fallback upload stored wrong bytes")
	}
}

// TestPrechunkedFastPath: both entry points share one whole-file
// pre-check, so a file stored through either is cloned by the other. A
// reader that cannot seek skips the pre-check, and its chunks are still
// all found stored.
func TestPrechunkedFastPath(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeEnhanced)
	pol := policy.OrOfUsers([]string{"alice"})
	chunks := [][]byte{
		randomFile(t, 8<<10, 79),
		randomFile(t, 8<<10, 80),
		randomFile(t, 4<<10, 81),
	}
	if _, err := c.UploadPrechunked(ctx, "/pc/a", chunks, pol); err != nil {
		t.Fatal(err)
	}
	res, err := c.UploadPrechunked(ctx, "/pc/b", chunks, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WholeFileHit {
		t.Fatal("pre-chunked re-upload did not take the fast path")
	}
	want := bytes.Join(chunks, nil)
	if res, err = c.Upload(ctx, "/pc/c", bytes.NewReader(want), pol); err != nil {
		t.Fatal(err)
	}
	if !res.WholeFileHit {
		t.Fatal("seekable upload did not clone the pre-chunked file")
	}

	other := randomFile(t, 48<<10, 82)
	if _, err := c.Upload(ctx, "/pc/d", bytes.NewReader(other), pol); err != nil {
		t.Fatal(err)
	}
	if res, err = c.UploadPrechunked(ctx, "/pc/e", [][]byte{other[:20<<10], other[20<<10:]}, pol); err != nil {
		t.Fatal(err)
	}
	if !res.WholeFileHit {
		t.Fatal("pre-chunked upload did not clone the file Upload stored")
	}
	if res, err = c.Upload(ctx, "/pc/f", streamOf(other), pol); err != nil {
		t.Fatal(err)
	}
	if res.WholeFileHit || res.SkippedChunks != res.Chunks {
		t.Fatalf("non-seekable warm upload: clone = %v, skipped %d of %d chunks; want no clone, all skipped",
			res.WholeFileHit, res.SkippedChunks, res.Chunks)
	}

	for path, data := range map[string][]byte{"/pc/b": want, "/pc/c": want, "/pc/e": other, "/pc/f": other} {
		mustDownload(t, c, path, data)
	}
}
