package dedup

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// readCounts counts the full Gets and the range reads of container 0,
// so tests can pin which read path served a chunk.
func readCounts(faults *storetest.Faulty) (gets, ranges *storetest.Rule) {
	return faults.Add(&storetest.Rule{Ops: storetest.Get, NS: []string{store.NSContainers}, Name: containerName(0)}),
		faults.Add(&storetest.Rule{Ops: storetest.GetRange, NS: []string{store.NSContainers}, Name: containerName(0)})
}

func sealChunks(t *testing.T, s *Store, n, size int) ([]fingerprint.Fingerprint, [][]byte) {
	t.Helper()
	fps := make([]fingerprint.Fingerprint, n)
	datas := make([][]byte, n)
	for i := range fps {
		datas[i], fps[i] = chunk(500+i, size)
		if _, err := s.Put(ctx, fps[i], datas[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); err != nil { // seals container 0
		t.Fatal(err)
	}
	return fps, datas
}

// TestColdGetUsesPointRead: a single chunk read from a cold sealed
// container must be served by one GetRange and zero full container
// fetches.
func TestColdGetUsesPointRead(t *testing.T) {
	faults := storetest.New()
	gets, ranges := readCounts(faults)
	s, err := Open(ctx, faults.View("server"), 8192)
	if err != nil {
		t.Fatal(err)
	}
	fps, datas := sealChunks(t, s, 8, 512)

	got, err := s.Get(ctx, fps[3])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, datas[3]) {
		t.Fatal("point read returned wrong bytes")
	}
	if gets.Hits() != 0 || ranges.Hits() != 1 {
		t.Fatalf("cold Get did %d full fetches and %d range reads, want 0 and 1", gets.Hits(), ranges.Hits())
	}
}

// TestConsecutiveMissesPromoteToFullFetch: a second miss on the same
// container fetches and caches it whole, and subsequent Gets are served
// from cache with no further backend traffic.
func TestConsecutiveMissesPromoteToFullFetch(t *testing.T) {
	faults := storetest.New()
	gets, ranges := readCounts(faults)
	s, err := Open(ctx, faults.View("server"), 8192)
	if err != nil {
		t.Fatal(err)
	}
	fps, datas := sealChunks(t, s, 8, 512)

	for i := 0; i < len(fps); i++ {
		got, err := s.Get(ctx, fps[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("Get %d: wrong bytes", i)
		}
	}
	if n := gets.Hits(); n != 1 {
		t.Fatalf("sequential restore did %d full fetches, want 1 (promotion)", n)
	}
	if n := ranges.Hits(); n != 1 {
		t.Fatalf("sequential restore did %d range reads, want 1 (first miss only)", n)
	}
}

// TestPointReadVerifiesFingerprint: the point-read path skips the
// packfile checksum, so a corrupted range read must be caught by the
// fingerprint check instead of being served.
func TestPointReadVerifiesFingerprint(t *testing.T) {
	faults := storetest.New()
	s, err := Open(ctx, faults.View("server"), 8192)
	if err != nil {
		t.Fatal(err)
	}
	fps, _ := sealChunks(t, s, 8, 512)

	faults.Add(&storetest.Rule{Ops: storetest.GetRange, Corrupt: true})
	if _, err := s.Get(ctx, fps[0]); err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("corrupted point read error = %v, want verification failure", err)
	}
}

// TestCachedGetIsZeroCopy: once a container is cached, Get returns a
// sub-slice of the cached body rather than a fresh copy.
func TestCachedGetIsZeroCopy(t *testing.T) {
	s, err := Open(ctx, store.NewMemory(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	fps, _ := sealChunks(t, s, 8, 512)

	// Two misses on the container promote it into the cache.
	if _, err := s.Get(ctx, fps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, fps[1]); err != nil {
		t.Fatal(err)
	}
	s.cacheMu.Lock()
	body := s.readCache[0]
	s.cacheMu.Unlock()
	if body == nil {
		t.Fatal("container not cached after consecutive misses")
	}
	got, err := s.Get(ctx, fps[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || &got[0] != &body[512*2] {
		t.Fatal("cached Get copied instead of aliasing the container body")
	}
}
