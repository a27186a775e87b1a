package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	reed "repro"
)

// counters are the counts read, at both edges of a traced window,
// through accessors the product already has.
type counters struct {
	evaluations            uint64 // KeyManagerServer.Evaluations
	cacheHits, cacheMisses uint64 // Client.CacheStats, all loop clients
	client, server         reed.MetricsSnapshot
}

func (r *run) readCounters() counters {
	c := counters{evaluations: r.dep.km.Evaluations()}
	for _, cl := range r.w.conns() {
		h, m := cl.CacheStats()
		c.cacheHits += h
		c.cacheMisses += m
	}
	snap := func(regs []*reed.MetricsRegistry) reed.MetricsSnapshot {
		snaps := make([]reed.MetricsSnapshot, len(regs))
		for i, reg := range regs {
			snaps[i] = reg.Snapshot()
		}
		return reed.MergeSnapshots(snaps...)
	}
	r.tr.mu.Lock()
	clientRegs := append([]*reed.MetricsRegistry(nil), r.tr.clientRegs...)
	r.tr.mu.Unlock()
	c.client, c.server = snap(clientRegs), snap(r.tr.serverRegs)
	return c
}

// histDelta sums, over the histograms whose name starts with prefix, the
// observations and busy time added between two snapshots.
func histDelta(from, to reed.MetricsSnapshot, prefix string) (count uint64, busy time.Duration) {
	for name, h := range to.Histograms {
		if strings.HasPrefix(name, prefix) {
			before := from.Histograms[name]
			count += h.Count - before.Count
			busy += time.Duration(h.SumNS - before.SumNS)
		}
	}
	return count, busy
}

// spanSum aggregates the spans of one kind.
type spanSum struct {
	count int
	busy  time.Duration
	bytes int64
	durs  []time.Duration
}

func sumSpans(spans []span, match func(name string) bool) spanSum {
	var s spanSum
	for _, sp := range spans {
		if match(sp.Name) {
			d := time.Duration(sp.End - sp.Start)
			s.count++
			s.busy += d
			s.bytes += sp.Bytes
			s.durs = append(s.durs, d)
		}
	}
	return s
}

func prefixed(prefixes ...string) func(string) bool {
	return func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pricer prices an operation's blocking steps at the unit costs the
// layer replay measured, for budget.explained_ratio.
type pricer struct {
	unit    costs
	sha     float64 // seconds per byte hashed (the whole-file pre-check, the sink)
	metaPut float64 // seconds per small durable blob: fsync the file, then its directory
}

func (p pricer) perByte(name string, n int64) float64 { return p.unit[name] / gib * float64(n) }
func (p pricer) perChunk(name string, n int) float64  { return p.unit[name] * 1e-6 * float64(n) }
func (p pricer) millis(name string) float64           { return p.unit[name] / 1e3 }

// seconds prices one operation. Key generation is left out: it is priced
// once per window from the key manager's own count, because chunks the
// key cache answered cost nothing.
func (p pricer) seconds(op opRecord) float64 {
	openState := p.millis("abe.decrypt_ms") // every read, delete and rekey first opens the key state
	seal := p.millis("abe.encrypt_ms_per_100_leaves") / 100 * float64(op.leaves)
	switch op.kind {
	case opUpload:
		s := float64(op.bytes)*p.sha + p.perChunk("fileindex.lookup_us", 1) + seal + 3*p.metaPut +
			p.millis("fileindex.register_commit_ms") + p.perChunk("recipe.marshal_us_per_chunk", op.chunks)
		if op.wholeFileHit {
			return s + openState + p.perChunk("recipe.unmarshal_us_per_chunk", op.chunks) +
				p.perChunk("cluster.refchunks_us_per_chunk", op.chunks)
		}
		return s + p.perByte("chunker.split_s_per_GB", op.bytes) + p.perByte("fingerprint.hash_s_per_GB", op.bytes) +
			p.perByte("core.encrypt_s_per_GB", op.bytes) +
			p.perChunk("cluster.haschunks_us_per_chunk", op.chunks) +
			p.perChunk("cluster.refchunks_us_per_chunk", op.skippedChunks) +
			p.perByte("cluster.putchunks_s_per_GB", op.bytes-op.skippedBytes)
	case opDelete:
		return openState + p.perChunk("recipe.unmarshal_us_per_chunk", op.chunks) +
			p.perChunk("cluster.derefchunks_us_per_chunk", op.chunks)
	case opDownload:
		return openState + p.perChunk("recipe.unmarshal_us_per_chunk", op.chunks) +
			p.perByte("cluster.getchunks_s_per_GB", op.bytes) + p.perByte("core.decrypt_s_per_GB", op.bytes) +
			float64(op.bytes)*p.sha
	case opRekeyLazy:
		return openState + p.millis("keyreg.wind_ms") + seal + p.metaPut
	case opRekeyActive:
		// The stub file was sealed one round of its owner's rekeys ago, so
		// the old state unwinds that many versions.
		return openState + p.millis("keyreg.wind_ms") + seal + 3*p.metaPut +
			p.millis("keyreg.unwind_ms")*2*rekeyPerOwner
	}
	return 0
}

// perLayer computes the per-layer metrics of a traced run: counts and
// spans from the traced pass tp, unit costs from the layer replay, the
// machine calibration, and — from the untraced pass plain of the same
// invocation — each operation's median latency, memory, and the tracing
// overhead.
func perLayer(ctx context.Context, cfg config, plain, tp *pass) ([]metric, error) {
	if err := tp.tr.write(filepath.Join(cfg.dir, "trace-"+tp.spec.name+".json")); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, tp.spec.name+"-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	unit, err := layerReplay(ctx, scratch, cfg.ports, tp.sample)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	machine, err := calibrate(scratch)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	replayed := func(name, unitName string) metric { return metric{name, unit[name], unitName, 0} }

	// Counts over the traced window's operations.
	var (
		uploads, hits, chunks, dupChunks, downloaded int
		uploadBytes, skippedBytes, peakBuffered      int64
		retried                                      uint64
		wall, explained                              float64
		keyed                                        bool
	)
	price := pricer{unit: unit, sha: 1 / (machine.sha256MBps * mib), metaPut: 2 * machine.fsync4kMS / 1e3}
	for _, op := range tp.ops {
		if op.failed {
			continue
		}
		wall += op.end.Sub(op.start).Seconds()
		explained += price.seconds(op)
		retried += op.retriedCalls
		switch op.kind {
		case opUpload:
			uploads++
			uploadBytes += op.bytes
			skippedBytes += op.skippedBytes
			chunks += op.chunks
			dupChunks += op.dupChunks
			peakBuffered = max(peakBuffered, op.peakBuffered)
			if op.wholeFileHit {
				hits++
			} else {
				keyed = true
			}
		case opDownload:
			downloaded += op.chunks
		}
	}
	open, shut := tp.open.counters, tp.shut.counters
	evaluations := shut.evaluations - open.evaluations
	cacheHits, cacheMisses := shut.cacheHits-open.cacheHits, shut.cacheMisses-open.cacheMisses
	if keyed {
		explained += price.perChunk("keymanager.generate_us_per_chunk", int(evaluations))
	}
	userBytes := float64(tp.userBytes())

	spans := tp.tr.window(tp.open.at, tp.shut.at)
	puts := sumSpans(spans, prefixed("store.put."))
	reads := sumSpans(spans, prefixed("store.get.", "store.getrange."))
	deletes := sumSpans(spans, prefixed("store.delete."))
	wal := sumSpans(spans, prefixed("store.put.wal", "store.put.filewal"))
	seals := sumSpans(spans, prefixed("store.put.containers"))
	containerReads := sumSpans(spans, prefixed("store.get.containers", "store.getrange.containers"))
	netWrites := sumSpans(spans, prefixed("net.write"))
	netReads := sumSpans(spans, prefixed("net.read"))

	rpcs, dispatchBusy := histDelta(open.server, shut.server, "dispatch_latency")
	stage := func(name string) float64 {
		_, busy := histDelta(open.client, shut.client, `pipeline_stage_latency{stage="`+name+`"}`)
		return busy.Seconds()
	}
	primary := plain.series(plain.spec.primary)

	out := []metric{
		replayed("chunker.split_s_per_GB", "s/GB"),
		replayed("fingerprint.hash_s_per_GB", "s/GB"),
		replayed("oprf.blind_us_per_chunk", "us"),
		replayed("oprf.evaluate_us_per_chunk", "us"),
		replayed("oprf.finalize_us_per_chunk", "us"),
		replayed("keymanager.generate_us_per_chunk", "us"),
		{"keymanager.evaluations", float64(evaluations), "count", 0},
		{"keycache.hit_ratio", ratio(float64(cacheHits), float64(cacheHits+cacheMisses)), "ratio", 0},
		replayed("core.encrypt_s_per_GB", "s/GB"),
		replayed("core.decrypt_s_per_GB", "s/GB"),
		replayed("abe.encrypt_ms_per_100_leaves", "ms"),
		replayed("abe.decrypt_ms", "ms"),
		replayed("keyreg.wind_ms", "ms"),
		replayed("keyreg.unwind_ms", "ms"),
		replayed("recipe.marshal_us_per_chunk", "us"),
		replayed("recipe.unmarshal_us_per_chunk", "us"),
		replayed("proto.encode_putchunks_s_per_GB", "s/GB"),
		{"proto.wire_bytes_per_user_byte", ratio(float64(netWrites.bytes+netReads.bytes), userBytes), "ratio", 0},
		{"rpcmux.write_calls_per_MB", ratio(float64(netWrites.count), userBytes/mib), "1/MB", 0},
		{"rpcmux.dial_count", float64(tp.tr.dials.Load()), "count", 0},
		replayed("cluster.putchunks_s_per_GB", "s/GB"),
		replayed("cluster.getchunks_s_per_GB", "s/GB"),
		replayed("cluster.haschunks_us_per_chunk", "us"),
		replayed("cluster.refchunks_us_per_chunk", "us"),
		replayed("cluster.derefchunks_us_per_chunk", "us"),
		{"server.dispatch_busy_s", dispatchBusy.Seconds(), "s", 0},
		{"server.rpc_count", float64(rpcs), "count", 0},
		replayed("dedup.put_us_per_chunk", "us"),
		replayed("dedup.get_cached_us_per_chunk", "us"),
		replayed("dedup.get_cold_us_per_chunk", "us"),
		{"dedup.duplicate_chunk_ratio", ratio(float64(dupChunks), float64(chunks)), "ratio", 0},
		{"dedup.container_seal_count", float64(seals.count), "count", 0},
		{"dedup.container_reads_per_1k_chunks", ratio(float64(containerReads.count)*1000, float64(downloaded)), "count", 0},
		replayed("fileindex.lookup_us", "us"),
		replayed("fileindex.register_commit_ms", "ms"),
		{"client.wholefile_hit_ratio", ratio(float64(hits), float64(uploads)), "ratio", 0},
		{"client.skipped_bytes_ratio", ratio(float64(skippedBytes), float64(uploadBytes)), "ratio", 0},
		{"wal.commit_count", float64(wal.count), "count", 0},
		{"wal.commit_busy_s", wal.busy.Seconds(), "s", 0},
		{"wal.bytes_per_user_byte", ratio(float64(wal.bytes), userBytes), "ratio", 0},
		replayed("packfile.finish_s_per_GB", "s/GB"),
		replayed("packfile.readindex_us", "us"),
		{"store.put_count", float64(puts.count), "count", 0},
		{"store.put_busy_s", puts.busy.Seconds(), "s", 0},
		{"store.put_p50_ms", ms(quantile(puts.durs, 0.5)), "ms", puts.count},
		{"store.put_bytes_per_user_byte", ratio(float64(puts.bytes), userBytes), "ratio", 0},
		{"store.read_count", float64(reads.count), "count", 0},
		{"store.read_busy_s", reads.busy.Seconds(), "s", 0},
		{"store.read_bytes_per_user_byte", ratio(float64(reads.bytes), userBytes), "ratio", 0},
		{"store.delete_count", float64(deletes.count), "count", 0},
		{"client.stage_chunk_busy_s", stage("chunk"), "s", 0},
		{"client.stage_keys_busy_s", stage("keys"), "s", 0},
		{"client.stage_encrypt_busy_s", stage("encrypt"), "s", 0},
		{"client.stage_upload_busy_s", stage("upload"), "s", 0},
		{"client.peak_buffered_MB", float64(peakBuffered) / mib, "MB", 0},
		{"client.retried_calls", float64(retried), "count", 0},
		{"client.op_p90_ms", ms(quantile(primary, 0.9)), "ms", len(primary)},
		{"process.peak_rss_MB", float64(plain.shut.maxRSS) / mib, "MB", 0},
		{"process.alloc_MB_per_user_MB", ratio(float64(plain.shut.alloc-plain.open.alloc), float64(plain.userBytes())), "ratio", 0},
		{"budget.explained_ratio", ratio(explained, wall), "ratio", 0},
		{"trace.overhead_ratio", ratio(tp.userMBps(), plain.userMBps()), "ratio", 0},
		{"setup.provision_s", plain.provision.Seconds(), "s", 0},
	}
	// Each operation's median from the untraced pass, under the name a
	// later change will cite (0 where the workload does not issue it).
	for kind := opKind(0); kind < numOpKinds; kind++ {
		series := plain.series(kind)
		out = append(out, metric{opNames[kind] + "_p50_ms", ms(quantile(series, 0.5)), "ms", len(series)})
	}
	out = append(out,
		metric{"failed_ops_ratio", ratio(float64(plain.failed+tp.failed), float64(plain.attempted+tp.attempted)), "ratio", 0},
		metric{"client.window_ops", float64(len(plain.ops)), "count", 0},
	)
	return append(out, machine.metrics()...), nil
}
