package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	reed "repro"
	"repro/internal/abe"
	"repro/internal/chunker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/keymanager"
	"repro/internal/keyreg"
	"repro/internal/oprf"
	"repro/internal/packfile"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/recipe"
	"repro/internal/store"
)

// replaySample is how much of the workload's own generated input the
// layer replay feeds, single-threaded, through each layer's public
// functions.
const replaySample = 16 << 20

// costs maps a per-layer metric name to its measured unit cost.
type costs map[string]float64

// stopwatch times the replay's steps. After a step fails, later steps
// are skipped and report 0; the caller checks err once it has run them.
type stopwatch struct{ err error }

func (s *stopwatch) time(fn func() error) time.Duration {
	if s.err != nil {
		return 0
	}
	start := time.Now()
	s.err = fn()
	return time.Since(start)
}

func perGB(d time.Duration, bytes int) float64 { return d.Seconds() / (float64(bytes) / gib) }
func perItemUS(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// layerReplay measures each layer alone on sample. Layers that need
// servers run against a fresh deployment under dir built exactly like
// the measured one; layers that need a store get a disk:// backend.
func layerReplay(ctx context.Context, dir string, ports *portBlock, sample []byte) (costs, error) {
	prov, err := newProvision(ownerName)
	if err != nil {
		return nil, err
	}
	dep, err := boot(ctx, filepath.Join(dir, "replay-cluster"), prov, nil, ports)
	if err != nil {
		return nil, err
	}
	defer dep.shutdown()
	km, err := keymanager.Dial(ctx, dep.kmAddr)
	if err != nil {
		return nil, err
	}
	defer km.Close()
	router, err := cluster.Dial(ctx, cluster.Config{Shards: dep.shardAddrs})
	if err != nil {
		return nil, err
	}
	defer router.Close()
	backend, err := reed.OpenBackend(ctx, "disk://"+filepath.Join(dir, "replay-store"))
	if err != nil {
		return nil, err
	}
	defer backend.Close()
	codec, err := core.New(core.SchemeEnhanced)
	if err != nil {
		return nil, err
	}

	c := costs{}
	var sw stopwatch

	// chunker, fingerprint
	var chunks [][]byte
	c["chunker.split_s_per_GB"] = perGB(sw.time(func() (err error) {
		chunks, err = chunker.Split(sample, chunker.Options{MinSize: 2 << 10, AvgSize: 8 << 10, MaxSize: 16 << 10})
		return
	}), len(sample))
	if sw.err != nil {
		return nil, sw.err
	}
	n := len(chunks)
	fps := make([]fingerprint.Fingerprint, n)
	c["fingerprint.hash_s_per_GB"] = perGB(sw.time(func() error {
		for i, ch := range chunks {
			fps[i] = fingerprint.New(ch)
		}
		return nil
	}), len(sample))

	// oprf: the three steps of one key generation, on a slice of the
	// chunks (an RSA private operation each), then the live key manager
	// at its default batch size.
	params := prov.kmKey.PublicParams()
	m := min(n, 256)
	blinded, unblinders, responses := make([][]byte, m), make([]*oprf.Unblinder, m), make([][]byte, m)
	c["oprf.blind_us_per_chunk"] = perItemUS(sw.time(func() (err error) {
		for i := 0; i < m && err == nil; i++ {
			blinded[i], unblinders[i], err = oprf.Blind(params, fps[i][:], nil)
		}
		return
	}), m)
	c["oprf.evaluate_us_per_chunk"] = perItemUS(sw.time(func() (err error) {
		for i := 0; i < m && err == nil; i++ {
			responses[i], err = prov.kmKey.Evaluate(blinded[i])
		}
		return
	}), m)
	c["oprf.finalize_us_per_chunk"] = perItemUS(sw.time(func() (err error) {
		for i := 0; i < m && err == nil; i++ {
			_, err = oprf.Finalize(params, unblinders[i], responses[i])
		}
		return
	}), m)
	var keys [][]byte
	c["keymanager.generate_us_per_chunk"] = perItemUS(sw.time(func() (err error) {
		keys, err = km.GenerateKeys(ctx, fps)
		return
	}), n)

	// core
	pkgs := make([]core.Package, n)
	c["core.encrypt_s_per_GB"] = perGB(sw.time(func() (err error) {
		for i := 0; i < n && err == nil; i++ {
			pkgs[i], err = codec.Encrypt(chunks[i], keys[i])
		}
		return
	}), len(sample))
	c["core.decrypt_s_per_GB"] = perGB(sw.time(func() (err error) {
		for i := 0; i < n && err == nil; i++ {
			_, err = codec.Decrypt(pkgs[i])
		}
		return
	}), len(sample))

	ups := make([]proto.ChunkUpload, n)
	trimFPs := make([]fingerprint.Fingerprint, n)
	trimmed := 0
	for i, p := range pkgs {
		trimFPs[i] = fingerprint.New(p.Trimmed)
		ups[i] = proto.ChunkUpload{FP: trimFPs[i], Data: p.Trimmed}
		trimmed += len(p.Trimmed)
	}

	// proto
	c["proto.encode_putchunks_s_per_GB"] = perGB(sw.time(func() error {
		_ = proto.EncodePutChunksReq(ups)
		return nil
	}), trimmed)

	// cluster: the live 4-shard router, so each call includes the
	// servers' dedup, WAL commit and store work behind it.
	c["cluster.putchunks_s_per_GB"] = perGB(sw.time(func() (err error) { _, err = router.PutChunks(ctx, ups); return }), trimmed)
	c["cluster.haschunks_us_per_chunk"] = perItemUS(sw.time(func() (err error) { _, err = router.HasChunks(ctx, trimFPs); return }), n)
	c["cluster.refchunks_us_per_chunk"] = perItemUS(sw.time(func() (err error) { _, err = router.RefChunks(ctx, trimFPs); return }), n)
	c["cluster.getchunks_s_per_GB"] = perGB(sw.time(func() (err error) { _, err = router.GetChunks(ctx, trimFPs); return }), trimmed)
	c["cluster.derefchunks_us_per_chunk"] = perItemUS(sw.time(func() (err error) { _, err = router.DerefChunks(ctx, trimFPs); return }), n)

	// abe, keyreg: the fixed costs of every rekey, download and delete.
	const reps = 16
	users := make([]string, 100)
	for i := range users {
		users[i] = fmt.Sprintf("user%03d", i)
	}
	pol := policy.OrOfUsers(users)
	owner := prov.owners[ownerName]
	state := owner.Current()
	var ct *abe.Ciphertext
	c["abe.encrypt_ms_per_100_leaves"] = ms(sw.time(func() (err error) {
		// As the client seals a key state: resolve the leaves' public
		// keys, then encrypt.
		ct, err = abe.Encrypt(prov.authority.PublicKeys(pol.Leaves()), pol, state.Marshal(), nil)
		return
	}))
	key := prov.authority.IssueKey(users[0], users[:1])
	c["abe.decrypt_ms"] = ms(sw.time(func() (err error) {
		for i := 0; i < reps && err == nil; i++ {
			_, err = abe.Decrypt(key, ct)
		}
		return
	})) / reps
	c["keyreg.wind_ms"] = ms(sw.time(func() error {
		for i := 0; i < reps; i++ {
			owner.Wind()
		}
		return nil
	})) / reps
	c["keyreg.unwind_ms"] = ms(sw.time(func() (err error) { // back over the reps versions just wound
		_, err = keyreg.Unwind(owner.Public(), owner.Current(), state.Version)
		return
	})) / reps

	// recipe
	rec := &recipe.Recipe{Path: "/replay", Size: uint64(len(sample)), Scheme: uint8(core.SchemeEnhanced),
		FileHash: sha256.Sum256(sample), Chunks: make([]recipe.ChunkRef, n)}
	for i := range rec.Chunks {
		rec.Chunks[i] = recipe.ChunkRef{Fingerprint: trimFPs[i], Size: uint32(len(chunks[i]))}
	}
	var blob []byte
	c["recipe.marshal_us_per_chunk"] = perItemUS(sw.time(func() error { blob = rec.Marshal(); return nil }), n)
	c["recipe.unmarshal_us_per_chunk"] = perItemUS(sw.time(func() (err error) { _, err = recipe.Unmarshal(blob); return }), n)

	// dedup, fileindex, packfile: directly on a disk:// backend.
	replayDedup(ctx, &sw, backend, ups, c)

	var ix *fileindex.Index
	sw.time(func() (err error) { ix, err = fileindex.Open(ctx, backend); return })
	c["fileindex.register_commit_ms"] = ms(sw.time(func() (err error) {
		for i := 0; i < reps && err == nil; i++ {
			if err = ix.Register(ctx, fileindex.Key{Hash: fps[i], Size: uint64(i)}, "/replay"); err == nil {
				err = ix.Commit(ctx)
			}
		}
		return
	})) / reps
	const lookups = 10000
	c["fileindex.lookup_us"] = perItemUS(sw.time(func() error {
		for i := 0; i < lookups; i++ {
			ix.Lookup(fileindex.Key{Hash: fps[i%n]})
		}
		return nil
	}), lookups)

	packed := 0
	var pack []byte
	c["packfile.finish_s_per_GB"] = perGB(sw.time(func() error {
		w := packfile.NewWriter(dedup.DefaultContainerSize)
		for _, up := range ups {
			if packed+len(up.Data) > dedup.DefaultContainerSize {
				break
			}
			w.Add(up.FP, up.Data)
			packed += len(up.Data)
		}
		pack = w.Finish()
		return nil
	}), max(packed, 1))
	sw.time(func() error { return backend.Put(ctx, store.NSContainers, "replay-pack", pack) })
	c["packfile.readindex_us"] = perItemUS(sw.time(func() (err error) {
		for i := 0; i < reps && err == nil; i++ {
			_, err = packfile.ReadIndex(ctx, backend, store.NSContainers, "replay-pack")
		}
		return
	}), reps)
	return c, sw.err
}

// replayDedup times the dedup store alone: puts committed in 4 MB
// batches as the server commits them, cold point reads on a reopened
// store, and reads served from the container cache.
func replayDedup(ctx context.Context, sw *stopwatch, backend store.Backend, ups []proto.ChunkUpload, c costs) {
	n := len(ups)
	var st *dedup.Store
	open := func() (err error) { st, err = dedup.Open(ctx, backend, dedup.DefaultContainerSize); return }
	sw.time(open)
	c["dedup.put_us_per_chunk"] = perItemUS(sw.time(func() error {
		batch := 0
		for _, up := range ups {
			if _, err := st.Put(ctx, up.FP, up.Data); err != nil {
				return err
			}
			if batch += len(up.Data); batch >= 4<<20 {
				batch = 0
				if err := st.Commit(ctx); err != nil {
					return err
				}
			}
		}
		return st.Commit(ctx)
	}), n)
	sw.time(func() error { return st.Close(ctx) }) // seals the open container
	sw.time(open)
	if sw.err != nil {
		return
	}
	defer st.Close(ctx)

	readAll := func(idx func(i int) int, count int) func() error {
		return func() error {
			for i := 0; i < count; i++ {
				if _, err := st.Get(ctx, ups[idx(i)].FP); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// Cold: stride through the chunks so that consecutive reads land in
	// different containers and none is promoted to a whole-container
	// fetch; every read is a GetRange of one chunk.
	const cold = 256
	stride := n/4 + 1
	c["dedup.get_cold_us_per_chunk"] = perItemUS(sw.time(readAll(func(i int) int { return i * stride % n }, cold)), cold)
	// Cached: a sequential pass pulls every container into the read
	// cache (the sample's few containers fit); the second pass is timed.
	inOrder := func(i int) int { return i }
	sw.time(readAll(inOrder, n))
	c["dedup.get_cached_us_per_chunk"] = perItemUS(sw.time(readAll(inOrder, n)), n)
}
