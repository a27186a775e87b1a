package server

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/packfile"
	"repro/internal/proto"
	"repro/internal/store"
)

// TestInstrumentedDispatchCounts: with a registry attached, PutChunks
// requests served over a connection show up in the per-op dispatch
// families, the connection in server_connections, and the dedup gauges
// reflect the store.
func TestInstrumentedDispatchCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := New(ctx, store.NewMemory(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, serveTest(t, srv))
	data := []byte("instrumented-dispatch-probe")
	for i := 0; i < 3; i++ {
		if _, err := c.PutChunks(ctx, []proto.ChunkUpload{{FP: fingerprint.New(data), Data: data}}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	snap := srv.MetricsSnapshot()
	op := metrics.Label("dispatch_total", "op", "PutChunks")
	if got := snap.Counters[op]; got != 3 {
		t.Fatalf("%s = %d, want 3", op, got)
	}
	lat := metrics.Label("dispatch_latency", "op", "PutChunks")
	if h, ok := snap.Histograms[lat]; !ok || h.Count != 3 {
		t.Fatalf("%s count = %v, want 3 observations", lat, h.Count)
	}
	if got := snap.Gauges["server_connections"]; got != 1 {
		t.Fatalf("server_connections = %v, want 1", got)
	}
	if got := snap.Counters["dedup_total_puts"]; got != 3 {
		t.Fatalf("dedup_total_puts = %d, want 3", got)
	}
	if got := snap.Counters["dedup_deduped_puts"]; got != 2 {
		t.Fatalf("dedup_deduped_puts = %d, want 2 (same chunk re-put twice)", got)
	}
	if got := snap.Gauges["dedup_logical_bytes"]; got != float64(3*len(data)) {
		t.Fatalf("dedup_logical_bytes = %v, want %d", got, 3*len(data))
	}
	if got := snap.Gauges["dedup_container_count"]; got < 1 {
		t.Fatalf("dedup_container_count = %v, want >= 1", got)
	}
}

// TestWriteCensusCounters: the write census is registered, and a cold
// upload batch shows each chunk byte written to its container once
// (plus the header), a metadata-only WAL segment per commit, and no
// checkpoint.
func TestWriteCensusCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := New(ctx, store.NewMemory(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var chunkBytes uint64
	for batch := 0; batch < 4; batch++ {
		var chunks []proto.ChunkUpload
		for i := 0; i < 16; i++ {
			data := make([]byte, 8<<10)
			for j := range data {
				data[j] = byte(batch*131 + i*7 + j*13 + j>>8)
			}
			chunks = append(chunks, proto.ChunkUpload{FP: fingerprint.New(data), Data: data})
			chunkBytes += uint64(len(data))
		}
		if typ, _ := srv.dispatch(ctx, proto.MsgPutChunksReq, proto.EncodePutChunksReq(chunks)); typ != proto.MsgPutChunksResp {
			t.Fatalf("batch %d returned %v", batch, typ)
		}
	}
	c := srv.MetricsSnapshot().Counters
	if got, want := c["dedup_container_write_bytes"], chunkBytes+packfile.HeaderSize; got != want {
		t.Errorf("dedup_container_write_bytes = %d, want %d", got, want)
	}
	if got := c["dedup_commits_total"]; got != 4 {
		t.Errorf("dedup_commits_total = %d, want 4", got)
	}
	if got := c["dedup_wal_write_bytes"]; got == 0 || got*50 > chunkBytes {
		t.Errorf("dedup_wal_write_bytes = %d, want metadata only (under 2%% of %d)", got, chunkBytes)
	}
	if c["dedup_seals_total"] != 0 || c["dedup_checkpoints_total"] != 0 {
		t.Errorf("seals = %d, checkpoints = %d; want none", c["dedup_seals_total"], c["dedup_checkpoints_total"])
	}
	if err := srv.chunks.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c = srv.MetricsSnapshot().Counters
	if c["dedup_seals_total"] != 1 || c["dedup_checkpoints_total"] != 1 {
		t.Errorf("after Flush: seals = %d, checkpoints = %d; want 1 and 1", c["dedup_seals_total"], c["dedup_checkpoints_total"])
	}
}

// TestJournalLatencyHistograms: each journal times its commits and its
// checkpoints under its own label, and no blob name or blob byte reaches
// a metric name.
func TestJournalLatencyHistograms(t *testing.T) {
	srv, err := New(ctx, store.NewMemory(), WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("journal-latency-probe")
	const blobName, blobBytes = "secret-recipe-name", "secret-blob-bytes"
	for _, req := range []struct {
		typ     proto.MsgType
		payload []byte
	}{
		{proto.MsgPutChunksReq, proto.EncodePutChunksReq([]proto.ChunkUpload{{FP: fingerprint.New(data), Data: data}})},
		{proto.MsgRegisterFileReq, proto.EncodeRegisterFileReq(fileindex.Key{Size: 1}, "recipes/"+blobName)},
		{proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSRecipes, blobName, []byte(blobBytes))},
	} {
		if typ, resp := srv.dispatch(ctx, req.typ, req.payload); typ != req.typ.Response() {
			t.Fatalf("%v answered %v: %s", req.typ, typ, resp)
		}
	}
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	snap := srv.MetricsSnapshot()
	for _, journal := range []string{"chunks", "files", "blobs"} {
		commit := snap.Histograms[metrics.Label("journal_commit_latency", "journal", journal)]
		checkpoint := snap.Histograms[metrics.Label("journal_checkpoint_latency", "journal", journal)]
		// Flush's checkpoint commits once more where it has records to
		// write (the dedup store's SEAL).
		if commit.Count == 0 || checkpoint.Count != 1 {
			t.Errorf("journal %s: %d commits and %d checkpoints timed, want some and 1", journal, commit.Count, checkpoint.Count)
		}
	}
	text := snap.Text()
	if strings.Contains(text, blobName) || strings.Contains(text, blobBytes) {
		t.Errorf("a blob's name or bytes reached the metrics:\n%s", text)
	}
}

// TestBlobJournalBacklogGauge: blob_journal_backlog_bytes grows with
// every committed blob put and returns to 0 once Flush has folded the
// log.
func TestBlobJournalBacklogGauge(t *testing.T) {
	srv, err := New(ctx, store.NewMemory(), WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	backlog := func() float64 { return srv.MetricsSnapshot().Gauges["blob_journal_backlog_bytes"] }
	if got := backlog(); got != 0 {
		t.Fatalf("blob_journal_backlog_bytes = %v on a fresh server, want 0", got)
	}
	var last float64
	for i := range 3 {
		name := fmt.Sprintf("recipe-%d", i)
		if typ, resp := srv.dispatch(ctx, proto.MsgPutBlobReq, proto.EncodeBlobReq(store.NSRecipes, name, make([]byte, 1000))); typ != proto.MsgPutBlobResp {
			t.Fatalf("put %d answered %v: %s", i, typ, resp)
		}
		got := backlog()
		if got < last+1000 {
			t.Fatalf("after put %d: blob_journal_backlog_bytes = %v, want at least %v", i, got, last+1000)
		}
		last = got
	}
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := backlog(); got != 0 {
		t.Fatalf("blob_journal_backlog_bytes = %v after Flush, want 0", got)
	}
}
