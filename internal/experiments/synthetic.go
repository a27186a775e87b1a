package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chunker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/keymanager"
	"repro/internal/metrics"
	"repro/internal/mle"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/testenv"
)

// --- Experiment A.1: MLE key generation performance (Figure 5) ---

// KeyGenPoint is one point of Figure 5.
type KeyGenPoint struct {
	// ChunkKB is the average chunk size (Figure 5a) and BatchSize the
	// request batch (Figure 5b); the swept variable depends on the
	// figure.
	ChunkKB   int
	BatchSize int
	// MBps is the key generation speed: file bytes divided by the time
	// from sending the first blinded fingerprint to holding all keys.
	MBps float64
	// Chunks is how many chunks (and hence OPRF evaluations) were
	// needed.
	Chunks int
	// Requests is how many key-generation requests the key manager
	// served for them: one per batch of at most BatchSize chunks. It is
	// the count behind the batching curve, read off the key manager's
	// per-op dispatch counter.
	Requests int
}

// Fig5aKeyGenVsChunkSize reproduces Figure 5(a): key generation speed
// versus average chunk size with the batch fixed at the client's default,
// keymanager.DefaultBatchSize (the paper's is 256).
func Fig5aKeyGenVsChunkSize(o Options) ([]KeyGenPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []KeyGenPoint
	for _, kb := range PaperChunkSizesKB {
		point, err := keyGenRun(cluster, o, kb, keymanager.DefaultBatchSize, o.FileBytes)
		if err != nil {
			return nil, fmt.Errorf("chunk size %dKB: %w", kb, err)
		}
		out = append(out, point)
	}
	return out, nil
}

// Fig5bKeyGenVsBatchSize reproduces Figure 5(b): key generation speed
// versus batch size with the average chunk size fixed at 8 KB.
func Fig5bKeyGenVsBatchSize(o Options) ([]KeyGenPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []KeyGenPoint
	for _, batch := range PaperBatchSizes {
		// Small batches pay a round trip per few chunks; bound their
		// runtime by shrinking the file (speed normalizes by size).
		size := o.FileBytes
		if batch < 64 {
			size = o.FileBytes / 4
		}
		point, err := keyGenRun(cluster, o, 8, batch, size)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", batch, err)
		}
		out = append(out, point)
	}
	return out, nil
}

// keyGenRun chunks a synthetic file and measures pure key generation.
func keyGenRun(cluster *testenv.Cluster, o Options, avgKB, batch, fileBytes int) (KeyGenPoint, error) {
	data := uniqueData(fileBytes, o.Seed+int64(avgKB)*1000+int64(batch))
	chunks, err := chunker.Split(data, chunkOpts(avgKB))
	if err != nil {
		return KeyGenPoint{}, err
	}
	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i, c := range chunks {
		fps[i] = fingerprint.New(c)
	}

	kmOpts := []keymanager.ClientOption{keymanager.WithBatchSize(batch)}
	if dialer := cluster.Dialer(); dialer != nil {
		kmOpts = append(kmOpts, keymanager.WithDialer(dialer))
	}
	km, err := keymanager.Dial(context.Background(), cluster.KMAddr, kmOpts...)
	if err != nil {
		return KeyGenPoint{}, err
	}
	defer km.Close()

	requestsBefore := keyGenRequests(cluster)
	start := time.Now()
	if _, err := km.GenerateKeys(context.Background(), fps); err != nil {
		return KeyGenPoint{}, err
	}
	elapsed := time.Since(start)
	return KeyGenPoint{
		ChunkKB:   avgKB,
		BatchSize: batch,
		MBps:      mbps(fileBytes, elapsed),
		Chunks:    len(chunks),
		Requests:  int(keyGenRequests(cluster) - requestsBefore),
	}, nil
}

// keyGenRequests reads how many key-generation requests the cluster's
// key manager has served.
func keyGenRequests(cluster *testenv.Cluster) uint64 {
	name := metrics.Label("dispatch_total", "op", proto.OpNames()[proto.MsgKeyGenReq])
	return cluster.KM().MetricsSnapshot().Counters[name]
}

// --- Experiment A.2: encryption performance (Figure 6) ---

// EncryptionPoint is one point of Figure 6.
type EncryptionPoint struct {
	ChunkKB int
	Scheme  string
	MBps    float64
}

// Fig6EncryptionSpeed reproduces Figure 6: chunk encryption speed for
// the basic and enhanced schemes versus average chunk size, with the
// paper's two worker threads. Keys are derived locally so the
// measurement isolates encryption, as in the paper (keys are assumed
// already fetched).
func Fig6EncryptionSpeed(o Options) ([]EncryptionPoint, error) {
	return encryptionSpeed(o, 2, PaperChunkSizesKB)
}

// encryptionSpeed measures both schemes at each chunk size with the
// given worker count.
func encryptionSpeed(o Options, workers int, chunkSizesKB []int) ([]EncryptionPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	deriver, err := mle.NewSecretDeriver([]byte("experiments-fig6"))
	if err != nil {
		return nil, err
	}

	var out []EncryptionPoint
	for _, kb := range chunkSizesKB {
		data := uniqueData(o.FileBytes, o.Seed+int64(kb))
		chunks, err := chunker.Split(data, chunkOpts(kb))
		if err != nil {
			return nil, err
		}
		keys := make([][]byte, len(chunks))
		for i, c := range chunks {
			keys[i], err = deriver.DeriveKey(fingerprint.New(c))
			if err != nil {
				return nil, err
			}
		}

		for _, scheme := range []core.Scheme{core.SchemeBasic, core.SchemeEnhanced} {
			codec, err := core.New(scheme)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := encryptPool(codec, chunks, keys, workers); err != nil {
				return nil, err
			}
			out = append(out, EncryptionPoint{
				ChunkKB: kb,
				Scheme:  scheme.String(),
				MBps:    mbps(o.FileBytes, time.Since(start)),
			})
		}
	}
	return out, nil
}

// encryptPool encrypts all chunks across the given worker count.
func encryptPool(codec *core.Codec, chunks [][]byte, keys [][]byte, workers int) error {
	if workers < 1 {
		workers = 1
	}
	return parallel(workers, func(w int) error {
		for i := w; i < len(chunks); i += workers {
			if _, err := codec.Encrypt(chunks[i], keys[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- Experiment A.3: upload and download performance (Figure 7) ---

// TransferPoint is one point of Figures 7(a) and 7(b).
type TransferPoint struct {
	ChunkKB        int
	Scheme         string
	FirstUpMBps    float64 // first upload (unique data)
	SecondUpMBps   float64 // second upload (identical data, keys cached)
	DownloadMBps   float64
	UploadedChunks int
}

// Fig7UploadDownload reproduces Figures 7(a) and 7(b): single-client
// upload speed (first and second upload of the same 2 GB-equivalent
// file) and download speed, for both schemes across chunk sizes, with
// all optimizations enabled (batch 256, 512 MB key cache, two worker
// threads).
func Fig7UploadDownload(o Options) ([]TransferPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []TransferPoint
	for _, kb := range PaperChunkSizesKB {
		for _, scheme := range []core.Scheme{core.SchemeBasic, core.SchemeEnhanced} {
			user := fmt.Sprintf("u-%d-%s", kb, scheme)
			c, err := newClient(cluster, o, clientParams{
				user: user, scheme: scheme, avgKB: kb,
				batch: keymanager.DefaultBatchSize, cache: true, workers: 2,
			})
			if err != nil {
				return nil, err
			}
			// Unique content per combination so each first upload is
			// cold.
			data := uniqueData(o.FileBytes, o.Seed+int64(kb)*10+int64(scheme))
			pol := policy.OrOfUsers([]string{user})

			p := TransferPoint{ChunkKB: kb, Scheme: scheme.String()}
			path1 := fmt.Sprintf("/fig7/%d/%s/1", kb, scheme)
			path2 := fmt.Sprintf("/fig7/%d/%s/2", kb, scheme)
			if p.FirstUpMBps, err = timeUpload(c, path1, data, pol); err != nil {
				c.Close()
				return nil, err
			}
			if p.SecondUpMBps, err = timeUpload(c, path2, data, pol); err != nil {
				c.Close()
				return nil, err
			}
			if p.DownloadMBps, err = timeDownload(c, path1, len(data)); err != nil {
				c.Close()
				return nil, err
			}
			c.Close()
			out = append(out, p)
		}
	}
	return out, nil
}

// MultiClientPoint is one point of Figure 7(c).
type MultiClientPoint struct {
	Clients      int
	FirstUpMBps  float64 // aggregate, unique data
	SecondUpMBps float64 // aggregate, identical re-upload
	// SecondUpHits counts second-round uploads the whole-file index
	// turned into clones, and SecondUpEvaluations the OPRF evaluations
	// the key manager served during that round: the work the re-upload
	// skips, counted rather than timed.
	SecondUpHits        int
	SecondUpEvaluations uint64
}

// Fig7cMultiClient reproduces Figure 7(c): aggregate upload speed versus
// the number of concurrent clients (enhanced scheme, 8 KB chunks). Each
// client gets its own emulated NIC, as each testbed machine has its own
// 1 Gb/s port.
func Fig7cMultiClient(o Options, clientCounts []int) ([]MultiClientPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(clientCounts) == 0 {
		clientCounts = []int{1, 2, 4, 8}
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []MultiClientPoint
	for _, n := range clientCounts {
		clients := make([]*testClient, n)
		for i := 0; i < n; i++ {
			user := fmt.Sprintf("mc-%d-%d", n, i)
			c, err := newClient(cluster, o, clientParams{
				user: user, scheme: core.SchemeEnhanced, avgKB: 8,
				batch: keymanager.DefaultBatchSize, cache: true, workers: 2,
				ownLink: true,
			})
			if err != nil {
				return nil, err
			}
			clients[i] = &testClient{
				c:    c,
				data: uniqueData(o.FileBytes, o.Seed+int64(n)*100+int64(i)),
				pol:  policy.OrOfUsers([]string{user}),
			}
		}

		point := MultiClientPoint{Clients: n}
		for round := 0; round < 2; round++ {
			var hits atomic.Int32
			evalsBefore := cluster.KMEvaluations()
			start := time.Now()
			err := parallel(n, func(i int) error {
				path := fmt.Sprintf("/fig7c/%d/%d/%d", n, i, round)
				_, res, err := timeUploadResult(clients[i].c, path, clients[i].data, clients[i].pol)
				if err == nil && res.WholeFileHit {
					hits.Add(1)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			aggregate := mbps(o.FileBytes*n, time.Since(start))
			if round == 0 {
				point.FirstUpMBps = aggregate
				continue
			}
			point.SecondUpMBps = aggregate
			point.SecondUpHits = int(hits.Load())
			point.SecondUpEvaluations = cluster.KMEvaluations() - evalsBefore
		}
		for _, tc := range clients {
			tc.c.Close()
		}
		out = append(out, point)
	}
	return out, nil
}

type testClient struct {
	c    *client.Client
	data []byte
	pol  *policy.Node
}

// --- Experiment A.4: rekeying performance (Figure 8) ---

// RekeyPoint is one point of Figure 8.
type RekeyPoint struct {
	// X is the swept variable: total users (8a), revocation percent
	// (8b), or file megabytes (8c).
	X int
	// LazySec and ActiveSec are the end-to-end rekeying delays.
	LazySec   float64
	ActiveSec float64
}

// Fig8aRekeyVsUsers reproduces Figure 8(a): rekeying delay versus the
// total number of authorized users, at a fixed 20% revocation ratio and
// fixed file size.
func Fig8aRekeyVsUsers(o Options, userCounts []int) ([]RekeyPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(userCounts) == 0 {
		userCounts = []int{100, 200, 300, 400, 500}
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []RekeyPoint
	for _, users := range userCounts {
		point, err := rekeyRun(cluster, o, users, 20, o.FileBytes)
		if err != nil {
			return nil, fmt.Errorf("users=%d: %w", users, err)
		}
		point.X = users
		out = append(out, point)
	}
	return out, nil
}

// Fig8bRekeyVsRatio reproduces Figure 8(b): rekeying delay versus the
// revocation ratio with `users` total users (0 selects the paper's 500).
func Fig8bRekeyVsRatio(o Options, users int, ratios []int) ([]RekeyPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	if users <= 0 {
		users = 500
	}
	if len(ratios) == 0 {
		ratios = []int{5, 10, 20, 30, 40, 50}
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []RekeyPoint
	for _, ratio := range ratios {
		point, err := rekeyRun(cluster, o, users, ratio, o.FileBytes)
		if err != nil {
			return nil, fmt.Errorf("ratio=%d%%: %w", ratio, err)
		}
		point.X = ratio
		out = append(out, point)
	}
	return out, nil
}

// Fig8cRekeyVsFileSize reproduces Figure 8(c): rekeying delay versus
// the rekeyed file's size (the paper sweeps 1–8 GB; sizes here are
// multiples of Options.FileBytes standing in for that range), with
// `users` total users (0 selects the paper's 500) and a 20% revocation
// ratio.
func Fig8cRekeyVsFileSize(o Options, users int, multipliers []int) ([]RekeyPoint, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	if users <= 0 {
		users = 500
	}
	if len(multipliers) == 0 {
		multipliers = []int{1, 2, 4, 8}
	}
	cluster, err := startCluster(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var out []RekeyPoint
	for _, m := range multipliers {
		size := o.FileBytes / 2 * m
		point, err := rekeyRun(cluster, o, users, 20, size)
		if err != nil {
			return nil, fmt.Errorf("size=%dMB: %w", size>>20, err)
		}
		point.X = size >> 20
		out = append(out, point)
	}
	return out, nil
}

// rekeyRun uploads a file under a policy of `users` identities, then
// measures lazy and active rekeying to a policy with `ratio` percent of
// the users revoked.
func rekeyRun(cluster *testenv.Cluster, o Options, users, ratio, fileBytes int) (RekeyPoint, error) {
	names := userNames(users, "r")
	owner := names[0]

	c, err := newClient(cluster, o, clientParams{
		user: owner, scheme: core.SchemeEnhanced, avgKB: 8,
		batch: 256, cache: true, workers: 2,
	})
	if err != nil {
		return RekeyPoint{}, err
	}
	defer c.Close()

	data := uniqueData(fileBytes, o.Seed+int64(users)*7+int64(ratio)*13+int64(fileBytes))
	path := fmt.Sprintf("/fig8/%d/%d/%d", users, ratio, fileBytes)
	oldPol := policy.OrOfUsers(names)
	if _, err := c.Upload(context.Background(), path, bytes.NewReader(data), oldPol); err != nil {
		return RekeyPoint{}, err
	}

	// The new policy keeps (100-ratio)% of the users (the owner always
	// stays).
	keep := users - users*ratio/100
	if keep < 1 {
		keep = 1
	}
	newPol := policy.OrOfUsers(names[:keep])

	// Warm up code paths once, then average a few timed runs; rekeying
	// is idempotent in structure (each run winds the chain one step).
	if _, err := c.Rekey(context.Background(), path, newPol, false); err != nil {
		return RekeyPoint{}, fmt.Errorf("warmup rekey: %w", err)
	}
	const reps = 3
	var point RekeyPoint
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := c.Rekey(context.Background(), path, newPol, false); err != nil {
			return RekeyPoint{}, fmt.Errorf("lazy rekey: %w", err)
		}
		point.LazySec += time.Since(start).Seconds() / reps

		start = time.Now()
		if _, err := c.Rekey(context.Background(), path, newPol, true); err != nil {
			return RekeyPoint{}, fmt.Errorf("active rekey: %w", err)
		}
		point.ActiveSec += time.Since(start).Seconds() / reps
	}
	return point, nil
}
