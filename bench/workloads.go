package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"

	reed "repro"
)

// opKind names a client operation whose latency the benchmark reports.
type opKind int

const (
	opUpload opKind = iota
	opDelete
	opDownload
	opRekeyLazy
	opRekeyActive
	// opFirstByte is not issued: its series is the time from each
	// download's call to the first Write on the benchmark's sink.
	opFirstByte
	numOpKinds
)

var opNames = [numOpKinds]string{"upload", "delete", "download", "rekey_lazy", "rekey_active", "first_byte"}

// spec is the fixed description of a workload: the closed-loop client
// count, the operation its end-to-end latency metric reports, and the
// users that upload or rekey. BENCHMARK.json says why each exists.
type spec struct {
	name    string
	clients int
	primary opKind // primary_op_p50_ms
	owners  []string
	make    func(env) workload
}

// workload is one closed-loop traffic mix. setup dials its clients on a
// fresh deployment and uploads the prefill corpus; step runs one loop
// iteration for one client through run.do; verify re-downloads every
// live file from a reopened deployment; sample returns n bytes of the
// workload's own input for the layer replay.
type workload interface {
	setup(ctx context.Context, r *run) error
	step(ctx context.Context, r *run, client int)
	verify(ctx context.Context, r *run) error
	liveBytes() int64
	sample(n int) []byte
	conns() []*reed.Client
	close()
}

// env is what a workload is built from: the seed and the data scale
// (1 in real runs; the smoke test divides every size by 8).
type env struct {
	seed  int64
	scale int
}

func (e env) mb(n int) int { return n << 20 / e.scale }
func (e env) kb(n int) int { return n << 10 / e.scale }

var specs = []spec{
	{name: "cold_upload", clients: 1, primary: opUpload,
		owners: []string{ownerName}, make: func(e env) workload { return &coldUpload{env: e} }},
	{name: "snapshot_churn", clients: 2, primary: opUpload,
		owners: []string{"u0", "u1"}, make: func(e env) workload { return &snapshotChurn{env: e} }},
	{name: "restore", clients: 2, primary: opDownload,
		owners: []string{ownerName}, make: func(e env) workload { return &restore{env: e} }},
	// Lazy rekeys take ≈95 % of rekey_mix's loop time, so user_MBps already
	// follows them; the latency slot goes to the active rekey, which
	// user_MBps would hide.
	{name: "rekey_mix", clients: rekeyOwners, primary: opRekeyActive,
		owners: []string{rekeyOwner(0), rekeyOwner(1)}, make: func(e env) workload { return &rekeyMix{env: e} }},
}

// loopClients are a workload's closed-loop clients, in client-index
// order.
type loopClients struct{ clients []*reed.Client }

func (l *loopClients) dial(ctx context.Context, r *run, users ...string) error {
	for _, user := range users {
		c, err := r.dep.client(ctx, user)
		if err != nil {
			return err
		}
		l.clients = append(l.clients, c)
	}
	return nil
}

func (l *loopClients) conns() []*reed.Client { return l.clients }

func (l *loopClients) close() {
	for _, c := range l.clients {
		_ = c.Close()
	}
}

// --- cold_upload ---

// coldUpload: one client uploads a stream of unique 32 MB files (two
// 16 MB pipeline units each, so the client's stages can overlap). Every
// chunk needs a fresh OPRF key and crosses the wire; the key cache, the
// whole-file index and the read path do almost nothing.
type coldUpload struct {
	env
	loopClients
	data  []byte
	iters int
}

func (w *coldUpload) name(i int) string { return fmt.Sprintf("cold/%d", i) } // 0 is the prefill

func (w *coldUpload) setup(ctx context.Context, r *run) error {
	if err := w.dial(ctx, r, ownerName); err != nil {
		return err
	}
	w.data = make([]byte, w.mb(32))
	fill(w.data, w.seed, w.name(0))
	return r.upload(ctx, 0, opUpload, w.clients[0], "/"+w.name(0), w.data, reed.PolicyForUsers(ownerName))
}

func (w *coldUpload) step(ctx context.Context, r *run, client int) {
	w.iters++
	fill(w.data, w.seed, w.name(w.iters))
	_ = r.upload(ctx, client, opUpload, w.clients[0], "/"+w.name(w.iters), w.data, reed.PolicyForUsers(ownerName))
}

func (w *coldUpload) verify(ctx context.Context, r *run) error {
	c, err := r.dep.client(ctx, ownerName)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i <= w.iters; i++ {
		fill(w.data, w.seed, w.name(i))
		r.download(ctx, 0, c, "/"+w.name(i), sha256.Sum256(w.data))
	}
	return nil
}

func (w *coldUpload) liveBytes() int64    { return int64(1+w.iters) * int64(len(w.data)) }
func (w *coldUpload) sample(n int) []byte { return gen(w.seed, "cold/sample", n) }

// --- snapshot_churn ---

// snapshotChurn: two users each keep a 32 MB backup of which 20 % is
// common to both. Each iteration uploads the next snapshot (≈1 % of its
// bytes overwritten; every 4th byte-identical, so a whole-file hit) and
// deletes the snapshot four back. OPRF is bypassed by the key cache;
// time goes to chunking and fingerprinting, the two-phase protocol,
// recipe and stub writes, DerefChunks, WAL commits and GC.
type snapshotChurn struct {
	env
	loopClients
	files []*churnFile
}

const churnRetained = 4

func churnUser(i int) string       { return fmt.Sprintf("u%d", i) }
func churnPath(user, k int) string { return fmt.Sprintf("/churn/u%d/s%d", user, k) }
func (w *snapshotChurn) size() int { return w.mb(32) }

// setup uploads each user's base snapshot and the next churnRetained−1,
// so the loop starts in its steady state: every iteration uploads one
// snapshot and deletes one.
func (w *snapshotChurn) setup(ctx context.Context, r *run) error {
	if err := w.dial(ctx, r, churnUser(0), churnUser(1)); err != nil {
		return err
	}
	for i, c := range w.clients {
		f := newChurnFile(w.seed, i, w.size())
		w.files = append(w.files, f)
		for k := 0; k < churnRetained; k++ {
			if k > 0 {
				f.advance()
			}
			if err := r.upload(ctx, i, opUpload, c, churnPath(i, k), f.data, reed.PolicyForUsers(churnUser(i))); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *snapshotChurn) step(ctx context.Context, r *run, client int) {
	f, c := w.files[client], w.clients[client]
	k := f.advance()
	_ = r.upload(ctx, client, opUpload, c, churnPath(client, k), f.data, reed.PolicyForUsers(churnUser(client)))
	_ = r.do(client, opDelete, func(rec *opRecord) error {
		res, err := c.Delete(ctx, churnPath(client, k-churnRetained))
		if err == nil {
			rec.chunks = res.Chunks
		}
		return err
	})
}

func (w *snapshotChurn) verify(ctx context.Context, r *run) error {
	for i, f := range w.files {
		c, err := r.dep.client(ctx, churnUser(i))
		if err != nil {
			return err
		}
		again := newChurnFile(w.seed, i, w.size())
		for again.k < f.k-churnRetained+1 {
			again.advance()
		}
		for {
			r.download(ctx, 0, c, churnPath(i, again.k), sha256.Sum256(again.data))
			if again.k == f.k {
				break
			}
			again.advance()
		}
		_ = c.Close()
	}
	return nil
}

func (w *snapshotChurn) liveBytes() int64 {
	var n int64
	for _, f := range w.files {
		n += churnRetained * int64(len(f.data))
	}
	return n
}

func (w *snapshotChurn) sample(n int) []byte {
	f := newChurnFile(w.seed, 0, w.size())
	f.advance()
	return f.data[:min(n, len(f.data))]
}

// --- restore ---

// restore: set-up uploads restoreFiles unique 16 MB files — 192 MB, more
// than the 4 shards × 8 containers × 4 MB = 128 MB of container read
// cache. Two authorized users loop DownloadTo into a hashing sink, each
// request choosing with probability ½ one of the 2 hot files (32 MB,
// fits the cache) and otherwise one of the 10 cold files (160 MB, does
// not). Read path only: no OPRF, no WAL.
type restore struct {
	env
	loopClients
	picks []*rand.Rand
	sums  [][sha256.Size]byte
	size  int
}

const (
	restoreFiles = 12
	restoreHot   = 2
	readerName   = "reader"
)

func restorePath(i int) string { return fmt.Sprintf("/restore/f%d", i) }

func (w *restore) setup(ctx context.Context, r *run) error {
	w.size = w.mb(16)
	if err := w.dial(ctx, r, ownerName, readerName); err != nil {
		return err
	}
	for i := range w.clients {
		w.picks = append(w.picks, rng(w.seed, fmt.Sprintf("restore/pick%d", i)))
	}
	buf := make([]byte, w.size)
	pol := reed.PolicyForUsers(ownerName, readerName)
	for i := 0; i < restoreFiles; i++ {
		fill(buf, w.seed, fmt.Sprintf("restore/%d", i))
		w.sums = append(w.sums, sha256.Sum256(buf))
		if err := r.upload(ctx, 0, opUpload, w.clients[0], restorePath(i), buf, pol); err != nil {
			return err
		}
	}
	return nil
}

func (w *restore) step(ctx context.Context, r *run, client int) {
	p := w.picks[client]
	i := p.Intn(restoreHot)
	if p.Intn(2) == 1 {
		i = restoreHot + p.Intn(restoreFiles-restoreHot)
	}
	r.download(ctx, client, w.clients[client], restorePath(i), w.sums[i])
}

func (w *restore) verify(ctx context.Context, r *run) error {
	c, err := r.dep.client(ctx, readerName)
	if err != nil {
		return err
	}
	defer c.Close()
	for i, sum := range w.sums {
		r.download(ctx, 0, c, restorePath(i), sum)
	}
	return nil
}

func (w *restore) liveBytes() int64    { return int64(restoreFiles) * int64(w.size) }
func (w *restore) sample(n int) []byte { return gen(w.seed, "restore/0", min(n, w.mb(16))) }

// --- rekey_mix ---

// rekeyMix: two owners, rekeyUsers issued users. rekeyFiles shared files
// (4 MB, readable by their owner and 99 users) and as many personal files
// (16 MB, so a 128 KB stub file; readable by their owner and 2 users),
// half of each belonging to each owner. Each owner's loop strictly
// alternates a lazy rekey of its next shared file to itself plus a
// seeded 79-of-99 subset — always 80 leaves, so the ABE cost is constant
// — and an active rekey of its next personal file to itself plus 1 user
// — always 2 leaves. No chunk data moves.
//
// Two owners, not one, because a rekey is single-threaded: on the 2-vCPU
// sandbox a lone loop runs at whatever speed the idle sibling CPU's state
// allows (run-to-run spread 0.23–0.45 measured); two loops keep both
// CPUs busy, as the other workloads do.
type rekeyMix struct {
	env
	loopClients
	users    []string
	subsets  []*rand.Rand // per owner
	iters    []int        // per owner
	retained [][]string   // per owner and shared file, a user its latest policy admits
}

const (
	rekeyOwners   = 2
	rekeyUsers    = 100
	rekeyFiles    = 4
	rekeyPerOwner = rekeyFiles / rekeyOwners
	rekeyShared   = 99 // users, besides the owner, a shared file starts with
	rekeyKept     = 79 // of those, how many each lazy rekey keeps
)

func rekeyOwner(o int) string      { return fmt.Sprintf("owner%d", o) }
func sharedPath(o, i int) string   { return fmt.Sprintf("/rekey/o%d/shared%d", o, i) }
func personalPath(o, i int) string { return fmt.Sprintf("/rekey/o%d/personal%d", o, i) }

func (w *rekeyMix) shared(o, i int) []byte {
	return gen(w.seed, fmt.Sprintf("rekey/o%d/shared%d", o, i), w.mb(4))
}

// personal need not differ between files: after an owner's first, each
// upload is a whole-file hit and only its metadata is new, which is all a
// rekey touches.
func (w *rekeyMix) personal() []byte { return gen(w.seed, "rekey/personal", w.mb(16)) }

func (w *rekeyMix) setup(ctx context.Context, r *run) error {
	for i := 0; i < rekeyUsers; i++ {
		w.users = append(w.users, fmt.Sprintf("user%03d", i))
	}
	personal := w.personal()
	for o := 0; o < rekeyOwners; o++ {
		if err := w.dial(ctx, r, rekeyOwner(o)); err != nil {
			return err
		}
		w.subsets = append(w.subsets, rng(w.seed, fmt.Sprintf("rekey/subsets%d", o)))
		w.iters = append(w.iters, 0)
		w.retained = append(w.retained, nil)
		sharedPol := reed.PolicyForUsers(append([]string{rekeyOwner(o)}, w.users[:rekeyShared]...)...)
		personalPol := reed.PolicyForUsers(rekeyOwner(o), w.users[0], w.users[1])
		for i := 0; i < rekeyPerOwner; i++ {
			w.retained[o] = append(w.retained[o], w.users[0])
			if err := r.upload(ctx, o, opUpload, w.clients[o], sharedPath(o, i), w.shared(o, i), sharedPol); err != nil {
				return err
			}
			if err := r.upload(ctx, o, opUpload, w.clients[o], personalPath(o, i), personal, personalPol); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *rekeyMix) step(ctx context.Context, r *run, o int) {
	i := w.iters[o] % rekeyPerOwner
	w.iters[o]++

	kept := make([]string, 0, rekeyKept+1)
	kept = append(kept, rekeyOwner(o))
	for _, j := range w.subsets[o].Perm(rekeyShared)[:rekeyKept] {
		kept = append(kept, w.users[j])
	}
	_ = r.do(o, opRekeyLazy, func(rec *opRecord) error {
		rec.bytes, rec.leaves = int64(w.mb(4)), len(kept)
		_, err := w.clients[o].Rekey(ctx, sharedPath(o, i), reed.PolicyForUsers(kept...), reed.LazyRevocation)
		if err == nil {
			w.retained[o][i] = kept[1]
		}
		return err
	})
	_ = r.do(o, opRekeyActive, func(rec *opRecord) error {
		rec.bytes, rec.leaves = int64(w.mb(16)), 2
		_, err := w.clients[o].Rekey(ctx, personalPath(o, i), reed.PolicyForUsers(rekeyOwner(o), w.users[0]), reed.ActiveRevocation)
		return err
	})
}

// verify downloads every file as a user its current policy admits, and
// checks that the user an active rekey revoked can no longer read.
func (w *rekeyMix) verify(ctx context.Context, r *run) error {
	readers := make(map[string]*reed.Client)
	defer func() {
		for _, c := range readers {
			_ = c.Close()
		}
	}()
	as := func(user string) (*reed.Client, error) {
		if c, ok := readers[user]; ok {
			return c, nil
		}
		c, err := r.dep.client(ctx, user)
		if err == nil {
			readers[user] = c
		}
		return c, err
	}
	kept, err := as(w.users[0])
	if err != nil {
		return err
	}
	revoked, err := as(w.users[1])
	if err != nil {
		return err
	}
	personalSum := sha256.Sum256(w.personal())
	for o := 0; o < rekeyOwners; o++ {
		for i := 0; i < rekeyPerOwner; i++ {
			c, err := as(w.retained[o][i])
			if err != nil {
				return err
			}
			r.download(ctx, 0, c, sharedPath(o, i), sha256.Sum256(w.shared(o, i)))
			r.download(ctx, 0, kept, personalPath(o, i), personalSum)
			if i < w.iters[o] { // actively rekeyed at least once
				_ = r.do(0, opDownload, func(rec *opRecord) error {
					if _, err := revoked.Download(ctx, personalPath(o, i)); err == nil {
						return errors.New("revoked user still reads " + personalPath(o, i))
					}
					return nil
				})
			}
		}
	}
	return nil
}

func (w *rekeyMix) liveBytes() int64    { return int64(rekeyFiles) * int64(w.mb(4)+w.mb(16)) }
func (w *rekeyMix) sample(n int) []byte { return w.personal()[:min(n, w.mb(16))] }
