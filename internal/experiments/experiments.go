// Package experiments regenerates every figure of the REED paper's
// evaluation (Section VI) against this implementation.
//
// Each FigNN function reproduces one figure's series and returns
// structured points; cmd/reed-bench prints them as tables and the
// root-level bench_test.go wraps them as testing.B benchmarks. Data
// volumes are scaled down from the paper's (2 GB files → 64 MB by
// default) via Options.FileBytes; the reproduction target is the shape
// of each curve — who wins, by what factor, where it saturates — not
// absolute numbers, since the substrate is an in-process testbed rather
// than the authors' LAN.
//
// The paper's testbed network (1 Gb/s switch, ~116 MB/s effective) is
// emulated with internal/netem so network-bound plateaus appear at the
// paper's level regardless of host speed.
//
// These runs print a figure's curve; none of them is a baseline. A
// throughput number is compared across commits only by the repository
// benchmark (bench/, declared in BENCHMARK.json), which measures
// upload, key generation and rekey delay on the durable deployment.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chunker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/netem"
	"repro/internal/oprf"
	"repro/internal/policy"
	"repro/internal/testenv"
)

// Options scales and wires the experiments.
type Options struct {
	// FileBytes stands in for the paper's 2 GB test file (default
	// 64 MB). Experiment A.4(c) uses multiples of it for its file-size
	// sweep.
	FileBytes int
	// KMKey reuses one OPRF key across experiments (RSA keygen
	// dominates setup time otherwise). Generated on demand if nil.
	KMKey *oprf.ServerKey
	// LinkBandwidth emulates the testbed LAN in bytes/second; 0
	// disables emulation, netem.GigabitEffective reproduces the paper's
	// switch.
	LinkBandwidth float64
	// LinkRTT adds per-request latency on the emulated link (default
	// netem.DefaultRTT when LinkBandwidth is set); without it loopback
	// round trips are free and the batching effect of Figure 5(b)
	// vanishes.
	LinkRTT time.Duration
	// DataServers is the data-store server count (default 4, as in the
	// paper).
	DataServers int
	// Seed randomizes workloads deterministically.
	Seed int64
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() (Options, error) {
	if o.FileBytes <= 0 {
		o.FileBytes = 64 << 20
	}
	if o.DataServers <= 0 {
		o.DataServers = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LinkBandwidth > 0 && o.LinkRTT == 0 {
		o.LinkRTT = netem.DefaultRTT
	}
	if o.KMKey == nil {
		key, err := oprf.GenerateServerKey(oprf.DefaultBits, nil)
		if err != nil {
			return o, fmt.Errorf("experiments: key manager key: %w", err)
		}
		o.KMKey = key
	}
	return o, nil
}

// PaperChunkSizesKB are the average chunk sizes the paper sweeps.
var PaperChunkSizesKB = []int{2, 4, 8, 16}

// PaperBatchSizes are the key-generation batch sizes of Figure 5(b).
var PaperBatchSizes = []int{1, 4, 16, 64, 256, 1024, 4096}

// uniqueData returns deterministic random bytes (globally unique
// chunks, as the paper's synthetic dataset).
func uniqueData(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// chunkOpts builds the paper's chunking options for an average size.
func chunkOpts(avgKB int) chunker.Options {
	return chunker.Options{
		MinSize: 2 * 1024,
		MaxSize: 16 * 1024,
		AvgSize: avgKB * 1024,
	}
}

// startCluster boots a testbed deployment for one experiment.
func startCluster(o Options) (*testenv.Cluster, error) {
	return testenv.Start(testenv.Options{
		DataServers:   o.DataServers,
		KMKey:         o.KMKey,
		LinkBandwidth: o.LinkBandwidth,
		LinkRTT:       o.LinkRTT,
	})
}

// clientConfig assembles a client config against a cluster.
type clientParams struct {
	user     string
	scheme   core.Scheme
	avgKB    int
	batch    int
	cache    bool
	workers  int
	stubSize int
	ownLink  bool // give this client its own emulated NIC
}

func newClient(cluster *testenv.Cluster, o Options, p clientParams) (*client.Client, error) {
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		return nil, err
	}
	cfg := client.Config{
		UserID:         p.user,
		Scheme:         p.scheme,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		Chunking:       chunkOpts(maxInt(p.avgKB, 2)),
		KeyGenBatch:    p.batch,
		Workers:        p.workers,
		StubSize:       p.stubSize,
		PrivateKey:     cluster.Authority.IssueKey(p.user, []string{p.user}),
		Directory:      cluster.Authority,
		Owner:          owner,
	}
	if !p.cache {
		cfg.CacheCapacity = -1
	}
	if p.ownLink && o.LinkBandwidth > 0 {
		link, err := netem.NewLinkRTT(o.LinkBandwidth, o.LinkRTT)
		if err != nil {
			return nil, err
		}
		cfg.Dialer = link.Dialer(nil)
	} else {
		cfg.Dialer = cluster.Dialer()
	}
	return client.New(context.Background(), cfg)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mbps converts a byte count and duration into MB/s.
func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// timeUpload uploads data and returns the measured speed.
func timeUpload(c *client.Client, path string, data []byte, pol *policy.Node) (float64, error) {
	start := time.Now()
	if _, err := c.Upload(context.Background(), path, bytes.NewReader(data), pol); err != nil {
		return 0, err
	}
	return mbps(len(data), time.Since(start)), nil
}

// timeUploadResult uploads data and returns the measured speed along
// with the full upload result.
func timeUploadResult(c *client.Client, path string, data []byte, pol *policy.Node) (float64, *client.UploadResult, error) {
	start := time.Now()
	res, err := c.Upload(context.Background(), path, bytes.NewReader(data), pol)
	if err != nil {
		return 0, nil, err
	}
	return mbps(len(data), time.Since(start)), res, nil
}

// timeDownload downloads a file and returns the measured speed.
func timeDownload(c *client.Client, path string, wantBytes int) (float64, error) {
	start := time.Now()
	got, err := c.Download(context.Background(), path)
	if err != nil {
		return 0, err
	}
	if len(got) != wantBytes {
		return 0, fmt.Errorf("experiments: downloaded %d bytes, want %d", len(got), wantBytes)
	}
	return mbps(wantBytes, time.Since(start)), nil
}

// parallel runs fn(i) for i in [0,n) concurrently and returns the first
// error.
func parallel(n int, fn func(int) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// userNames builds n distinct user identities.
func userNames(n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return out
}
