package dedup

// Crash-point tests for the commit point: the open container's tail is
// written to its blob, then the WAL batch naming it. Each test stops
// a store between two of those writes (a backend fault stands in for
// kill -9 at that instant), abandons it, and checks the recovered store
// holds exactly the last committed state and appends at its end.

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/packfile"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// crashAt fails every op to ns (and name, if set) after the first skip,
// as a crash at that write would leave things.
func crashAt(op storetest.Op, ns, name string, skip int) *storetest.Rule {
	return &storetest.Rule{Ops: op, NS: []string{ns}, Name: name, Skip: skip, Fail: true}
}

// crashState is what a test expects a recovered store to hold.
type crashState struct {
	fps   []fingerprint.Fingerprint
	datas [][]byte
	stats Stats
}

func (c *crashState) put(t *testing.T, s *Store, seed, size int) {
	t.Helper()
	data, fp := chunk(seed, size)
	if _, err := s.Put(ctx, fp, data); err != nil {
		t.Fatal(err)
	}
	c.fps = append(c.fps, fp)
	c.datas = append(c.datas, data)
}

// recoverAndCheck opens a store over backend and checks it holds want
// and nothing in lost, then that the next Put lands at the end of the
// recovered open container and survives another crash.
func recoverAndCheck(t *testing.T, backend store.Backend, containerSize int, want crashState, lost []fingerprint.Fingerprint) {
	t.Helper()
	s, err := Open(ctx, backend, containerSize)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := s.Stats(); got != want.stats {
		t.Fatalf("stats after recovery = %+v, want %+v", got, want.stats)
	}
	verifyChunks(t, s, want.fps, want.datas)
	for _, fp := range lost {
		if s.Has(fp) {
			t.Fatalf("uncommitted chunk %s survived the crash", fp.Short())
		}
	}

	s.mu.Lock()
	wantLoc := s.nextLocation(100)
	s.mu.Unlock()
	data, fp := chunk(4242, 100)
	if _, err := s.Put(ctx, fp, data); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	got := s.index[fp]
	s.mu.Unlock()
	if got != wantLoc {
		t.Fatalf("next Put landed at %+v, want the committed end %+v", got, wantLoc)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(ctx, backend, containerSize)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	verifyChunks(t, s2, append(want.fps, fp), append(want.datas, data))
}

// TestCrashAtCommitPoint stops a Commit at each of its two writes. A
// failed container write must leave the WAL untouched (the records
// would name bytes that never landed); after a failed WAL write the
// container holds the tail but nothing names it. Either way the tail's
// chunks are lost cleanly, and the next Put overwrites them.
func TestCrashAtCommitPoint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crash   *storetest.Rule
		blobLen int // the open container's blob after the failed Commit
	}{
		{"before the container write", crashAt(storetest.WriteAt, store.NSContainers, containerName(0), 0), packfile.HeaderSize + 4000},
		{"after the container write, before the WAL", crashAt(storetest.WriteAt, store.NSWAL, "", 0), packfile.HeaderSize + 7000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := storetest.New()
			backend := faults.View("server")
			s, err := Open(ctx, backend, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			var want crashState
			for i := 0; i < 4; i++ {
				want.put(t, s, 100+i, 1000)
			}
			if err := s.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			want.stats = s.Stats()
			segs, err := backend.List(ctx, store.NSWAL)
			if err != nil {
				t.Fatal(err)
			}

			var lost crashState
			for i := 0; i < 3; i++ {
				lost.put(t, s, 200+i, 1000)
			}
			faults.Add(tc.crash)
			if err := s.Commit(ctx); !errors.Is(err, storetest.ErrInjected) {
				t.Fatalf("Commit = %v, want the injected fault", err)
			}
			faults.Remove(tc.crash)
			blob, err := backend.Get(ctx, store.NSContainers, containerName(0))
			if err != nil || len(blob) != tc.blobLen {
				t.Fatalf("open container blob is %d bytes, %v; want %d", len(blob), err, tc.blobLen)
			}
			if after, _ := backend.List(ctx, store.NSWAL); !slices.Equal(after, segs) {
				t.Fatalf("WAL segments %v after the failed Commit, want %v", after, segs)
			}
			recoverAndCheck(t, backend, 1<<20, want, lost.fps)
		})
	}
}

// TestTornUncommittedTail: a crash mid-write left the open container's
// blob with a partial, garbled tail past the committed length.
func TestTornUncommittedTail(t *testing.T) {
	backend := store.NewMemory()
	s, err := Open(ctx, backend, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var want crashState
	for i := 0; i < 4; i++ {
		want.put(t, s, 300+i, 900)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want.stats = s.Stats()
	committed := packfile.HeaderSize + 4*900
	garbage := bytes.Repeat([]byte{0xA5}, 1234)
	if err := backend.WriteAt(ctx, store.NSContainers, containerName(0), int64(committed), garbage); err != nil {
		t.Fatal(err)
	}
	recoverAndCheck(t, backend, 1<<20, want, nil)
}

// TestCrashAfterSealBeforeSEALJournaled: a seal appended the index and
// footer to the open container's blob, but the crash came before the
// WAL segment holding SEAL (and the container's last PUTs). Recovery
// treats the container as still open at its committed length.
func TestCrashAfterSealBeforeSEALJournaled(t *testing.T) {
	backend := store.NewMemory()
	s, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var want crashState
	want.put(t, s, 400, 1500)
	want.put(t, s, 401, 1500)
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want.stats = s.Stats()

	var lost crashState
	lost.put(t, s, 402, 500)  // fits: uncommitted tail of container 0
	lost.put(t, s, 403, 1500) // overflows: seals container 0 in place
	if n := s.ContainerCount(); n != 2 {
		t.Fatalf("ContainerCount = %d, want container 0 sealed and 1 open", n)
	}
	if _, err := packfile.ReadIndex(ctx, backend, store.NSContainers, containerName(0)); err != nil {
		t.Fatalf("container 0 not sealed in place: %v", err)
	}
	recoverAndCheck(t, backend, 4096, want, lost.fps)
}

// TestCrashDuringOpenContainerCompaction: a deref left the open
// container half dead, so it was sealed and its live chunks moved into
// a fresh open container. A crash before the moves' container write or
// WAL segment recovers the state before the deref; a crash after both
// but before the old blob's deletion recovers the state after, and
// sweeps the blob.
func TestCrashDuringOpenContainerCompaction(t *testing.T) {
	for _, tc := range []struct {
		name          string
		crash         *storetest.Rule
		wantCompacted bool
	}{
		{"before the container write", crashAt(storetest.WriteAt, store.NSContainers, containerName(1), 0), false},
		{"before the WAL segment", crashAt(storetest.WriteAt, store.NSWAL, "", 0), false},
		{"before the old blob's deletion", crashAt(storetest.Delete, store.NSContainers, "", 0), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := storetest.New()
			backend := faults.View("server")
			s, err := Open(ctx, backend, 8192)
			if err != nil {
				t.Fatal(err)
			}
			var all crashState
			for i := 0; i < 5; i++ {
				all.put(t, s, 500+i, 1600)
			}
			if _, err := s.Deref(ctx, all.fps[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			before := crashState{fps: all.fps[1:], datas: all.datas[1:], stats: s.Stats()}

			// Two more derefs take the open container's dead bytes past
			// half its capacity (3 × 1600 ≥ 4096).
			if _, err := s.Deref(ctx, all.fps[1]); err != nil {
				t.Fatal(err)
			}
			faults.Add(tc.crash)
			if _, err := s.Deref(ctx, all.fps[2]); !errors.Is(err, storetest.ErrInjected) {
				t.Fatalf("Deref = %v, want the injected fault", err)
			}
			after := crashState{fps: all.fps[3:], datas: all.datas[3:], stats: s.Stats()}
			if after.stats.CompactedContainers != 1 {
				t.Fatalf("CompactedContainers = %d, want the open container compacted", after.stats.CompactedContainers)
			}
			faults.Remove(tc.crash)

			want := before
			if tc.wantCompacted {
				want = after
			}
			recoverAndCheck(t, backend, 8192, want, nil)
			if ok, _ := backend.Has(ctx, store.NSContainers, containerName(0)); ok == tc.wantCompacted {
				t.Fatalf("container 0 present = %v after recovery", ok)
			}
		})
	}
}

// TestDerefAutoCommitStagesOpenTail: a chunk sits uncommitted in the
// open container while a run of Derefs grows the buffered records past
// the auto-commit threshold. The auto-commit is a commit point like any
// other, so it must write the container's tail before the WAL segment
// whose PUT names it; otherwise the log outlives the blob and the store
// never opens again.
func TestDerefAutoCommitStagesOpenTail(t *testing.T) {
	backend := store.NewMemory()
	s, err := Open(ctx, backend, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var st crashState
	st.put(t, s, 650, 100)
	const refs = 1 << 16 // enough DEREF records to pass 1 MiB
	for i := 0; i < refs; i++ {
		if _, err := s.Ref(ctx, st.fps[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	st.put(t, s, 651, 1000) // uncommitted: only in the open container
	commits := s.WriteCensus().Commits
	for i := 0; s.WriteCensus().Commits == commits; i++ {
		if i == refs {
			t.Fatal("the Derefs never auto-committed")
		}
		if _, err := s.Deref(ctx, st.fps[0]); err != nil {
			t.Fatal(err)
		}
	}
	st.stats = s.Stats()
	recoverAndCheck(t, backend, 1<<20, st, nil)
}

// TestCrashDuringCompactionThatSealsHalfDeadOpen: compacting a sealed
// container moves a small live chunk into a half-dead open container,
// then a larger one that does not fit, so the open container is sealed
// and is due for compaction itself. That second compaction must wait
// until the first is durable: run inside it, its commit point would
// make the first one's moves durable without its DROP, leaving the
// first container's live-byte accounting above what the index holds in
// it, which Open's scrub refuses. A crash at each of the four writes
// that follow must recover, with every live chunk intact.
func TestCrashDuringCompactionThatSealsHalfDeadOpen(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash *storetest.Rule
	}{
		{"first WAL segment", crashAt(storetest.WriteAt, store.NSWAL, "", 0)},
		{"second WAL segment", crashAt(storetest.WriteAt, store.NSWAL, "", 1)},
		{"first delete", crashAt(storetest.Delete, store.NSContainers, "", 0)},
		{"second delete", crashAt(storetest.Delete, store.NSContainers, "", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := storetest.New()
			backend := faults.View("server")
			s, err := Open(ctx, backend, 8192)
			if err != nil {
				t.Fatal(err)
			}
			// Container 0: a1 a2 a3 a4, sealed by p1's put. Container
			// 1: p1..p7, four of them dead (43 %: still open).
			var a, p crashState
			for i, size := range []int{2000, 2000, 500, 3000} {
				a.put(t, s, 700+i, size)
			}
			for i := 0; i < 7; i++ {
				p.put(t, s, 710+i, 1000)
			}
			for _, fp := range p.fps[:4] {
				if _, err := s.Deref(ctx, fp); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Deref(ctx, a.fps[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			// a2's deref takes container 0 to 53 % dead: a3 moves into
			// container 1, a4 does not fit and seals it.
			faults.Add(tc.crash)
			if _, err := s.Deref(ctx, a.fps[1]); !errors.Is(err, storetest.ErrInjected) {
				t.Fatalf("Deref = %v, want the injected fault", err)
			}
			faults.Remove(tc.crash)

			r, err := Open(ctx, backend, 8192)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			verifyChunks(t, r, append(a.fps[2:], p.fps[4:]...), append(a.datas[2:], p.datas[4:]...))
		})
	}
}

// TestOpenFailsOnShortOpenContainer: a blob shorter than the journal's
// committed length means committed bytes are gone; Open must refuse.
func TestOpenFailsOnShortOpenContainer(t *testing.T) {
	backend := store.NewMemory()
	s, err := Open(ctx, backend, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var st crashState
	st.put(t, s, 600, 1000)
	st.put(t, s, 601, 1000)
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	blob, err := backend.Get(ctx, store.NSContainers, containerName(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Put(ctx, store.NSContainers, containerName(0), blob[:len(blob)-1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, backend, 1<<20); err == nil {
		t.Fatal("recovery accepted an open container shorter than its committed length")
	}
}

// TestAutoCommitCountsContainerBytes: a caller that never commits still
// gets its chunks committed once the open container's uncommitted bytes
// pass the journal's auto-commit threshold, although their metadata
// records alone are far below it.
func TestAutoCommitCountsContainerBytes(t *testing.T) {
	backend := store.NewMemory()
	s, err := Open(ctx, backend, DefaultContainerSize)
	if err != nil {
		t.Fatal(err)
	}
	var st crashState
	for i := 0; i < 24; i++ { // 1.5 MiB of chunks, about 1.4 KB of records
		st.put(t, s, 800+i, 64<<10)
	}
	if c := s.WriteCensus(); c.Commits != 1 || c.ContainerBytes < 1<<20 {
		t.Fatalf("census = %+v, want one auto-commit of at least 1 MiB", c)
	}
	s2, err := Open(ctx, backend, DefaultContainerSize)
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.UniqueChunks(); n < 16 {
		t.Fatalf("recovered %d chunks, want the 16 or more the auto-commit covered", n)
	}
	verifyChunks(t, s2, st.fps[:s2.UniqueChunks()], st.datas)
}

// TestRecoveryOverHTTPBackend runs commits, seals, compaction and a
// crash over the HTTP backend, whose WriteAt is a read-modify-write Put
// spliced onto its copy of the blob it last wrote.
func TestRecoveryOverHTTPBackend(t *testing.T) {
	srv := httptest.NewServer(store.NewObjectHandler(store.NewMemory()))
	t.Cleanup(srv.Close)
	backend, err := store.NewHTTP(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var st crashState
	for i := 0; i < 20; i++ {
		st.put(t, s, 900+i, 700)
		if i%3 == 2 {
			if err := s.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, fp := range st.fps[:12] {
		if _, err := s.Deref(ctx, fp); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Stats().CompactedContainers == 0 {
		t.Fatal("setup failed to trigger compaction")
	}
	want := crashState{fps: st.fps[12:], datas: st.datas[12:], stats: s.Stats()}
	recoverAndCheck(t, backend, 4096, want, st.fps[:12])
}
