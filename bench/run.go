package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	reed "repro"
)

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	dir    string     // parent of the run's data directories
	scale  int        // data-size divisor: 1, or 8 in the smoke test
	ports  *portBlock // reserved by measure for everything it boots
}

const (
	// Set-up is repeated on fresh directories and its median reported:
	// setupReps times, or fewer if another repetition would take set-up
	// past setupBudget. Cheap set-ups get several samples; the 192 MB
	// restore corpus gets one.
	setupReps   = 3
	setupBudget = 10 * time.Second
	// maxFailures aborts a loop whose operations keep failing.
	maxFailures = 20
)

// opRecord is one client operation as the benchmark saw it.
type opRecord struct {
	kind       opKind
	start, end time.Time
	firstByte  time.Duration // downloads: call to first Write on the sink
	bytes      int64         // user (plaintext) bytes the operation covered
	failed     bool

	// What the result types report, for the per-layer ledger.
	chunks, dupChunks, skippedChunks int
	skippedBytes, peakBuffered       int64
	wholeFileHit                     bool
	retriedCalls                     uint64
	leaves                           int // policy leaves an upload or rekey sealed
}

// edge is the process state sampled when the timed window opens and
// when it closes.
type edge struct {
	at       time.Time
	cpu      time.Duration // user+sys, client and servers together
	alloc    uint64        // cumulative heap bytes allocated
	maxRSS   int64         // peak resident set, bytes
	counters counters      // traced passes only
}

const (
	phaseIdle = iota // set-up and verify: operations are only counted
	phaseWarm
	phaseWindow
	phaseDone
)

// run is one pass of one workload: provision, set-up, warm-up, timed
// window, restart-and-verify.
type run struct {
	cfg    config
	spec   spec
	prov   *provision
	dep    *deployment
	tr     *tracer // nil unless this is the traced pass
	w      workload
	setups []time.Duration

	mu        sync.Mutex
	phase     int
	warmEnd   time.Time
	open      edge
	shut      edge
	ops       []opRecord // completed inside the window
	attempted int
	failed    int
	stop      atomic.Bool
}

// sample reads the process state, and in a traced pass the counters.
func (r *run) sample() edge {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e := edge{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		maxRSS: ru.Maxrss << 10, // Linux reports kilobytes
	}
	if r.tr != nil {
		e.counters = r.readCounters()
	}
	return e
}

// do runs one client operation, times it, and files it under the
// current phase. The window opens at the first completion after the
// warm-up deadline and closes at the first completion after its length
// has passed; operations that complete in between count, and elapsed
// time is measured between those two completions, so both ends of the
// window are cut the same way.
func (r *run) do(client int, kind opKind, fn func(rec *opRecord) error) error {
	rec := opRecord{kind: kind}
	root := r.tr.begin(client, opNames[kind])
	rec.start = time.Now()
	err := fn(&rec)
	rec.end = time.Now()
	r.tr.end(client, root)
	if err != nil {
		rec.failed = true
		fmt.Fprintf(os.Stderr, "reed-perf: %s %s failed: %v\n", r.spec.name, opNames[kind], err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if rec.failed {
		r.failed++
		if r.failed >= maxFailures {
			r.stop.Store(true)
		}
	}
	switch r.phase {
	case phaseWarm:
		if !rec.end.Before(r.warmEnd) {
			r.open = r.sample()
			r.phase = phaseWindow
		}
	case phaseWindow:
		r.ops = append(r.ops, rec)
		if rec.end.Sub(r.open.at) >= r.cfg.window {
			r.shut = r.sample()
			r.phase = phaseDone
			r.stop.Store(true)
		}
	}
	return err
}

// upload stores data under path and checks the result describes it.
func (r *run) upload(ctx context.Context, client int, kind opKind, c *reed.Client, path string, data []byte, pol *reed.Policy) error {
	return r.do(client, kind, func(rec *opRecord) error {
		var src io.ReadSeeker = bytes.NewReader(data)
		if r.tr != nil {
			src = &tracedSource{ReadSeeker: src, t: r.tr, client: client}
		}
		res, err := c.Upload(ctx, path, src, pol)
		if err != nil {
			return err
		}
		if res.LogicalBytes != int64(len(data)) {
			return fmt.Errorf("upload %s stored %d bytes of %d", path, res.LogicalBytes, len(data))
		}
		rec.bytes = res.LogicalBytes
		rec.chunks, rec.dupChunks = res.Chunks, res.DuplicateChunks
		rec.skippedChunks, rec.skippedBytes = res.SkippedChunks, res.SkippedBytes
		rec.wholeFileHit, rec.peakBuffered = res.WholeFileHit, res.PeakBuffered
		rec.retriedCalls = res.Retry.RetriedCalls
		rec.leaves = pol.CountLeaves()
		return nil
	})
}

// sink is the writer downloads stream into: it hashes every byte and
// notes when the first one arrived.
type sink struct {
	h     hash.Hash
	start time.Time
	first time.Duration
}

func (s *sink) Write(p []byte) (int, error) {
	if s.first == 0 {
		s.first = time.Since(s.start)
	}
	return s.h.Write(p)
}

// download streams path into a hashing sink and compares the digest
// with the generated bytes'. The verify step uses it too, as client 0.
func (r *run) download(ctx context.Context, client int, c *reed.Client, path string, want [sha256.Size]byte) {
	_ = r.do(client, opDownload, func(rec *opRecord) error {
		s := &sink{h: sha256.New(), start: time.Now()}
		var w io.Writer = s
		if r.tr != nil {
			w = &tracedSink{Writer: s, t: r.tr, client: client}
		}
		res, err := c.DownloadTo(ctx, path, w)
		if err != nil {
			return err
		}
		if got := s.h.Sum(nil); !bytes.Equal(got, want[:]) {
			return fmt.Errorf("download %s: SHA-256 mismatch", path)
		}
		rec.bytes, rec.chunks, rec.firstByte = res.LogicalBytes, res.Chunks, s.first
		rec.retriedCalls = res.Retry.RetriedCalls
		return nil
	})
}

// pass is what one pass measured.
type pass struct {
	spec      spec
	setups    []time.Duration
	provision time.Duration
	open      edge
	shut      edge
	ops       []opRecord
	attempted int
	failed    int
	stored    int64 // bytes in every backend directory after shutdown
	live      int64 // plaintext bytes of the files that remain
	tr        *tracer
	sample    []byte
}

// runPass runs one workload once. A traced pass differs only in that
// the deployment is wrapped and instrumented.
func runPass(ctx context.Context, cfg config, sp spec, traced bool) (*pass, error) {
	prov, err := newProvision(sp.owners...)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, spec: sp, prov: prov}
	base, err := os.MkdirTemp(cfg.dir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up: boot the servers, dial the clients, upload the prefill.
	var spent time.Duration
	for rep := 0; ; rep++ {
		if traced {
			r.tr = newTracer(sp.clients)
		}
		dir := filepath.Join(base, fmt.Sprintf("data-%d", rep))
		start := time.Now()
		if r.dep, err = boot(ctx, dir, prov, r.tr, cfg.ports); err != nil {
			return nil, err
		}
		r.w = sp.make(env{seed: cfg.seed, scale: cfg.scale})
		if err = r.w.setup(ctx, r); err != nil {
			r.w.close()
			return nil, errors.Join(err, r.dep.shutdown())
		}
		took := time.Since(start)
		r.setups = append(r.setups, took)
		spent += took
		if rep+1 == setupReps || spent+took > setupBudget/time.Duration(cfg.scale) {
			break
		}
		r.w.close()
		if err := r.dep.shutdown(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	// Warm-up runs straight into the timed window: one closed loop per
	// client, each waiting for its reply before the next request.
	r.mu.Lock()
	r.phase, r.warmEnd = phaseWarm, time.Now().Add(cfg.warmup)
	r.mu.Unlock()
	var wg sync.WaitGroup
	for i := 0; i < sp.clients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for !r.stop.Load() {
				r.w.step(ctx, r, client)
			}
		}(i)
	}
	wg.Wait()
	r.mu.Lock()
	done := r.phase == phaseDone
	r.phase = phaseIdle
	r.mu.Unlock()
	r.w.close()
	if err := r.dep.shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if !done {
		return nil, fmt.Errorf("%s: loop stopped after %d failed operations", sp.name, r.failed)
	}

	p := &pass{spec: sp, setups: r.setups, provision: prov.took, open: r.open, shut: r.shut,
		ops: r.ops, live: r.w.liveBytes(), tr: r.tr}
	if p.stored, err = treeBytes(r.dep.dir); err != nil {
		return nil, err
	}
	if traced {
		p.sample = r.w.sample(replaySample / cfg.scale)
	}

	// Verify: reopen the same directories at the same addresses and read
	// every live file back through a fresh client.
	r.tr = nil
	if r.dep, err = boot(ctx, r.dep.dir, prov, nil, cfg.ports); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	err = r.w.verify(ctx, r)
	if err := errors.Join(err, r.dep.shutdown()); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	p.attempted, p.failed = r.attempted, r.failed
	return p, nil
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// --- metrics ---

// metric is one reported number. n is the sample count behind a median
// or percentile (0 when the value is not one).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

const (
	mib = 1 << 20
	gib = 1 << 30
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by nearest rank (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// series returns the latencies of the window's successful operations of
// one kind.
func (p *pass) series(kind opKind) []time.Duration {
	var out []time.Duration
	for _, op := range p.ops {
		switch {
		case op.failed:
		case kind == opFirstByte && op.kind == opDownload:
			out = append(out, op.firstByte)
		case op.kind == kind:
			out = append(out, op.end.Sub(op.start))
		}
	}
	return out
}

func (p *pass) seconds() float64 { return p.shut.at.Sub(p.open.at).Seconds() }

// userBytes is the plaintext covered by operations that completed in
// the window.
func (p *pass) userBytes() int64 {
	var n int64
	for _, op := range p.ops {
		if !op.failed {
			n += op.bytes
		}
	}
	return n
}

func (p *pass) userMBps() float64 { return float64(p.userBytes()) / mib / p.seconds() }

// endToEnd computes the metrics a user of the system would see.
func (p *pass) endToEnd() []metric {
	primary := p.series(p.spec.primary)
	return []metric{
		{"setup_s", quantile(p.setups, 0.5).Seconds(), "s", len(p.setups)},
		{"user_MBps", p.userMBps(), "MB/s", 0},
		{"cpu_s_per_user_GB", (p.shut.cpu - p.open.cpu).Seconds() / (float64(p.userBytes()) / gib), "s/GB", 0},
		{"stored_bytes_per_user_byte", float64(p.stored) / float64(p.live), "ratio", 0},
		{"primary_op_p50_ms", ms(quantile(primary, 0.5)), "ms", len(primary)},
	}
}
