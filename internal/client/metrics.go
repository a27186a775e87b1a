package client

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rpcmux"
)

// Reserved shard-label values for the client's non-shard connections.
// Shard addresses never collide with them (they are not host:port).
const (
	sourceKeyManager = "keymanager"
	sourceKeyStore   = "keystore"
)

// initMetrics attaches the configured registry to every connection and
// registers the client-level views. Routed-call families carry a shard
// label — the shard's address on storage connections, "keymanager" and
// "keystore" on the control connections — so per-shard balance stays
// visible in one registry. Counters that other layers already own —
// the per-connection reconnect/retry counters behind RetryStats — are
// exposed as snapshot-time sums rather than copied, so the Metrics
// path and the RetryStats path always report the same numbers.
func (c *Client) initMetrics() {
	reg := c.cfg.Metrics
	if reg == nil {
		return
	}
	c.km.Instrument(&rpcmux.Instruments{
		Ops:      metrics.NewOpSet(reg, "rpc", proto.OpNames(), "shard", sourceKeyManager),
		Inflight: reg.Gauge("rpc_inflight", "shard", sourceKeyManager),
	})
	c.router.Instrument(reg)
	c.keyConn.Instrument(&rpcmux.Instruments{
		Ops:      metrics.NewOpSet(reg, "rpc", proto.OpNames(), "shard", sourceKeyStore),
		Inflight: reg.Gauge("rpc_inflight", "shard", sourceKeyStore),
	})

	c.stageChunk = reg.Histogram("pipeline_stage_latency", "stage", "chunk")
	c.stageKeys = reg.Histogram("pipeline_stage_latency", "stage", "keys")
	c.stageEncrypt = reg.Histogram("pipeline_stage_latency", "stage", "encrypt")
	c.stageUpload = reg.Histogram("pipeline_stage_latency", "stage", "upload")
	c.bytesInFlight = reg.Gauge("pipeline_bytes_in_flight")

	reg.SetCounterFunc("rpc_reconnects", func() uint64 { return c.retrySnapshot().Reconnects })
	reg.SetCounterFunc("rpc_retried_calls", func() uint64 { return c.retrySnapshot().RetriedCalls })
	reg.SetCounterFunc("upload_retried_batches", c.retriedBatches.Value)

	// Two-phase upload accounting: pre-check outcomes, trimmed bytes
	// actually sent, and — as a gauge, so dashboards can read it next
	// to the byte gauges — the bytes the protocol kept off the wire.
	reg.SetCounterFunc("upload_wholefile_hits", c.wholeFileHits.Value)
	reg.SetCounterFunc("upload_wholefile_misses", c.wholeFileMisses.Value)
	reg.SetCounterFunc("upload_wire_bytes", c.wireBytes.Value)
	reg.SetGaugeFunc("upload_skipped_bytes", func() float64 { return float64(c.skippedBytes.Value()) })
}

// Metrics returns the client's registry (nil when uninstrumented).
func (c *Client) Metrics() *metrics.Registry { return c.cfg.Metrics }

// SourceMetrics is one process's metrics snapshot, labeled with where
// it came from: "client", "keymanager", "keystore", or a storage
// shard's address.
type SourceMetrics struct {
	Source   string
	Snapshot metrics.Snapshot
}

// ClusterMetricsBySource fetches a metrics snapshot from every process
// the client is connected to — its own registry (when configured), the
// key manager, each storage shard, and the key-store server — each
// labeled with its source, so per-shard imbalance stays visible
// instead of vanishing into an anonymous merge. The key-store entry is
// omitted when it targets one of the shards, so a shared server is
// never counted twice.
func (c *Client) ClusterMetricsBySource(ctx context.Context) ([]SourceMetrics, error) {
	out := make([]SourceMetrics, 0, len(c.cfg.DataServers)+3)
	if c.cfg.Metrics != nil {
		out = append(out, SourceMetrics{Source: "client", Snapshot: c.cfg.Metrics.Snapshot()})
	}
	s, err := c.km.Metrics(ctx) // the key-manager client applies CallTimeout
	if err != nil {
		return nil, fmt.Errorf("client: key manager metrics: %w", err)
	}
	out = append(out, SourceMetrics{Source: sourceKeyManager, Snapshot: s})
	shardSnaps, err := c.router.ShardMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("client: shard metrics: %w", err)
	}
	for i, addr := range c.router.Addrs() {
		out = append(out, SourceMetrics{Source: addr, Snapshot: shardSnaps[i]})
	}
	shared := false
	for _, addr := range c.cfg.DataServers {
		if addr == c.cfg.KeyStoreServer {
			shared = true
			break
		}
	}
	if !shared {
		rctx, cancel := c.rpc(ctx)
		s, err := c.keyConn.Metrics(rctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("client: key-store metrics: %w", err)
		}
		out = append(out, SourceMetrics{Source: sourceKeyStore, Snapshot: s})
	}
	return out, nil
}

// ClusterMetrics fetches a metrics snapshot from every server the
// client is connected to and merges them — plus the client's own
// registry, when configured — into one cluster-wide view. Servers
// running uninstrumented contribute empty snapshots. Prefer
// ClusterMetricsBySource when per-shard attribution matters.
func (c *Client) ClusterMetrics(ctx context.Context) (metrics.Snapshot, error) {
	sources, err := c.ClusterMetricsBySource(ctx)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	snaps := make([]metrics.Snapshot, len(sources))
	for i, src := range sources {
		snaps[i] = src.Snapshot
	}
	merged := metrics.Merge(snaps...)
	// Ratios are per-process and sum under Merge (two servers at 0.5
	// would read 1.0); recompute the cluster-wide value from the byte
	// gauges, which do sum meaningfully.
	if logical := merged.Gauges["dedup_logical_bytes"]; logical > 0 {
		merged.Gauges["dedup_savings_ratio"] = 1 - merged.Gauges["dedup_physical_bytes"]/logical
	}
	return merged, nil
}
