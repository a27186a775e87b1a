package server

import (
	"context"
	"net"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
)

// metricsOption attaches a registry at construction.
type metricsOption struct{ reg *metrics.Registry }

func (o metricsOption) applyServer(s *Server) { s.reg = o.reg }

// WithMetrics instruments the server with the given registry: per-op
// dispatch counters and latency histograms, connection/worker gauges,
// and snapshot-time views over the dedup store's accounting. A nil
// registry leaves the server uninstrumented at zero cost.
func WithMetrics(reg *metrics.Registry) Option { return metricsOption{reg} }

// initMetrics builds the instruments once at construction so the
// per-request path never touches the registry's maps.
func (s *Server) initMetrics() {
	if s.reg == nil {
		return
	}
	s.ops = metrics.NewOpSet(s.reg, "dispatch", proto.OpNames())
	s.connsGauge = s.reg.Gauge("server_connections")
	s.inflightReqs = s.reg.Gauge("dispatch_inflight")
	for id, j := range s.journals[1:] {
		name := journalNames[id+1]
		j.ObserveJournal(s.reg.Histogram("journal_commit_latency", "journal", name),
			s.reg.Histogram("journal_checkpoint_latency", "journal", name))
	}

	// Dedup accounting is already maintained under the store's own lock;
	// snapshot-time functions expose it without a second copy to drift.
	s.reg.SetCounterFunc("dedup_total_puts", func() uint64 { return s.chunks.Stats().TotalPuts })
	s.reg.SetCounterFunc("dedup_deduped_puts", func() uint64 { return s.chunks.Stats().DedupedPuts })
	s.reg.SetCounterFunc("dedup_gc_freed_chunks", func() uint64 { return s.chunks.Stats().FreedChunks })
	s.reg.SetCounterFunc("dedup_gc_reclaimed_bytes", func() uint64 { return s.chunks.Stats().FreedBytes })
	s.reg.SetCounterFunc("dedup_gc_compacted_containers", func() uint64 { return s.chunks.Stats().CompactedContainers })
	// The write census: what the durable write path costs in backend
	// writes. Container bytes are open-container tails plus each seal's
	// index and footer; WAL bytes are segment bytes.
	s.reg.SetCounterFunc("dedup_container_write_bytes", func() uint64 { return s.chunks.WriteCensus().ContainerBytes })
	s.reg.SetCounterFunc("dedup_wal_write_bytes", func() uint64 { return s.chunks.WriteCensus().WALBytes })
	s.reg.SetCounterFunc("dedup_commits_total", func() uint64 { return s.chunks.WriteCensus().Commits })
	s.reg.SetCounterFunc("dedup_seals_total", func() uint64 { return s.chunks.WriteCensus().Seals })
	s.reg.SetCounterFunc("dedup_checkpoints_total", func() uint64 { return s.chunks.WriteCensus().Checkpoints })
	s.reg.SetGaugeFunc("dedup_logical_bytes", func() float64 { return float64(s.chunks.Stats().LogicalBytes) })
	s.reg.SetGaugeFunc("dedup_physical_bytes", func() float64 { return float64(s.chunks.Stats().PhysicalBytes) })
	s.reg.SetGaugeFunc("dedup_savings_ratio", func() float64 { return s.chunks.Stats().SavingsRatio() })
	s.reg.SetGaugeFunc("dedup_container_count", func() float64 { return float64(s.chunks.ContainerCount()) })
	s.reg.SetGaugeFunc("dedup_unique_chunk_count", func() float64 { return float64(s.chunks.UniqueChunks()) })
	s.reg.SetGaugeFunc("dedup_ref_inflation", func() float64 { return float64(s.chunks.RefInflation()) })
	s.reg.SetGaugeFunc("fileindex_entry_count", func() float64 { return float64(s.files.Len()) })
	s.reg.SetGaugeFunc("blob_stub_bytes", func() float64 { return float64(s.blobs.stubFileBytes()) })
}

// Metrics returns the server's registry (nil when uninstrumented).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// MetricsSnapshot captures the server's registry; empty when
// uninstrumented.
func (s *Server) MetricsSnapshot() metrics.Snapshot { return s.reg.Snapshot() }

// dispatchTimed wraps dispatch with per-op accounting. With no registry
// attached it is a plain tail call — instrumentation must cost nothing
// when disabled.
func (s *Server) dispatchTimed(ctx context.Context, typ proto.MsgType, payload []byte) (proto.MsgType, net.Buffers) {
	if s.ops == nil {
		return s.dispatch(ctx, typ, payload)
	}
	s.inflightReqs.Inc()
	start := time.Now()
	respType, respPayload := s.dispatch(ctx, typ, payload)
	s.inflightReqs.Dec()
	s.ops.Observe(int(typ), time.Since(start), respType == proto.MsgError)
	return respType, respPayload
}

// metricsResp serves MsgMetricsReq: the registry snapshot as JSON (an
// empty snapshot when uninstrumented, so the RPC always succeeds).
func (s *Server) metricsResp(context.Context, []byte) ([]byte, error) {
	return proto.EncodeMetricsResp(s.reg.Snapshot())
}
