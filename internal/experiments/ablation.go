package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/keymanager"
	"repro/internal/policy"
)

// Ablations quantify the design choices DESIGN.md calls out: request
// batching, the MLE key cache, encryption parallelism, and the stub
// size. Each returns the same structured-point style as the figure
// reproductions.

// AblationBatchingPoint compares keygen speed with and without request
// batching.
type AblationBatchingPoint struct {
	Batched   bool
	BatchSize int
	MBps      float64
	// Chunks and Requests count the keys generated and the key-manager
	// requests that carried them (see KeyGenPoint).
	Chunks   int
	Requests int
}

// AblationBatching measures MLE key generation with batch sizes 1 (no
// batching: one round trip per chunk) and 256 (the paper's default).
func AblationBatching(o Options) ([]AblationBatchingPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []AblationBatchingPoint
	for _, batch := range []int{1, keymanager.DefaultBatchSize} {
		size := o.FileBytes
		if batch == 1 {
			size = o.FileBytes / 8 // bound the unbatched run's wall time
		}
		p, err := keyGenRun(cluster, o, 8, batch, size)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationBatchingPoint{
			Batched:   batch > 1,
			BatchSize: batch,
			MBps:      p.MBps,
			Chunks:    p.Chunks,
			Requests:  p.Requests,
		})
	}
	return out, nil
}

// AblationCachePoint compares the second upload with and without the
// MLE key cache.
type AblationCachePoint struct {
	CacheEnabled bool
	SecondUpMBps float64
	// SecondUpEvaluations is how many OPRF evaluations the key manager
	// served during the second upload: the work the cache exists to
	// avoid, counted rather than timed.
	SecondUpEvaluations uint64
}

// AblationKeyCache uploads a file twice with the cache on and with it
// off; without the cache the second upload pays full key generation
// again.
func AblationKeyCache(o Options) ([]AblationCachePoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []AblationCachePoint
	for _, enabled := range []bool{true, false} {
		user := fmt.Sprintf("cache-%v", enabled)
		c, err := newClient(cluster, o, clientParams{
			user: user, scheme: core.SchemeEnhanced, avgKB: 8,
			batch: keymanager.DefaultBatchSize, cache: enabled, workers: 2,
		})
		if err != nil {
			return nil, err
		}
		data := uniqueData(o.FileBytes, o.Seed+int64(len(out))*31)
		if _, err := timeUpload(c, "/ab-cache/"+user+"/1", data, policy.OrOfUsers([]string{user})); err != nil {
			c.Close()
			return nil, err
		}
		// The second copy goes under a second policy: the whole-file index
		// is keyed per policy, so it misses and the upload reaches key
		// generation.
		evalsBefore := cluster.KMEvaluations()
		second, err := timeUpload(c, "/ab-cache/"+user+"/2", data, policy.OrOfUsers([]string{user, user + "-peer"}))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Close()
		out = append(out, AblationCachePoint{
			CacheEnabled: enabled, SecondUpMBps: second,
			SecondUpEvaluations: cluster.KMEvaluations() - evalsBefore,
		})
	}
	return out, nil
}

// AblationThreadsPoint reports encryption speed at one worker count.
type AblationThreadsPoint struct {
	Workers int
	Scheme  string
	MBps    float64
}

// AblationThreads sweeps the encryption worker count (the paper fixes
// two threads on a quad-core machine; this shows the scaling that
// justified it).
func AblationThreads(o Options, workerCounts []int) ([]AblationThreadsPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	var out []AblationThreadsPoint
	for _, w := range workerCounts {
		points, err := encryptionSpeedAt(o, w, 8)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			out = append(out, AblationThreadsPoint{Workers: w, Scheme: p.Scheme, MBps: p.MBps})
		}
	}
	return out, nil
}

// encryptionSpeedAt measures both schemes at one chunk size and worker
// count.
func encryptionSpeedAt(o Options, workers, chunkKB int) ([]EncryptionPoint, error) {
	return encryptionSpeed(o, workers, []int{chunkKB})
}

// AblationStubPoint reports the cost of one stub size.
type AblationStubPoint struct {
	StubSize int
	// StorageOverheadPct is stub bytes as a percentage of logical bytes
	// for a fully unique file (the per-chunk tax).
	StorageOverheadPct float64
	// ActiveRekeySec is the end-to-end active rekey delay, dominated by
	// stub-file transfer and re-encryption.
	ActiveRekeySec float64
}

// AblationStubSize sweeps the stub size: larger stubs strengthen the
// withheld share and raise both the storage tax and the rekey cost; the
// paper picks 64 bytes (0.78% of an 8 KB chunk).
func AblationStubSize(o Options, stubSizes []int) ([]AblationStubPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(stubSizes) == 0 {
		stubSizes = []int{32, 64, 128, 256}
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []AblationStubPoint
	for _, stub := range stubSizes {
		user := fmt.Sprintf("stub-%d", stub)
		c, err := newClient(cluster, o, clientParams{
			user: user, scheme: core.SchemeEnhanced, avgKB: 8,
			batch: keymanager.DefaultBatchSize, cache: true, workers: 2,
			stubSize: stub,
		})
		if err != nil {
			return nil, err
		}
		data := uniqueData(o.FileBytes, o.Seed+int64(stub))
		pol := policy.OrOfUsers([]string{user})
		path := "/ab-stub/" + user
		res, err := c.Upload(context.Background(), path, bytes.NewReader(data), pol)
		if err != nil {
			c.Close()
			return nil, err
		}
		start := time.Now()
		if _, err := c.Rekey(context.Background(), path, pol, true); err != nil {
			c.Close()
			return nil, err
		}
		active := time.Since(start).Seconds()
		c.Close()

		out = append(out, AblationStubPoint{
			StubSize:           stub,
			StorageOverheadPct: float64(res.Chunks*stub) / float64(len(data)) * 100,
			ActiveRekeySec:     active,
		})
	}
	return out, nil
}
