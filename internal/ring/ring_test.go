package ring

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fingerprint"
)

func randomFPs(n int, seed int64) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	fps := make([]fingerprint.Fingerprint, n)
	for i := range fps {
		var b [64]byte
		rng.Read(b[:])
		fps[i] = fingerprint.New(b[:])
	}
	return fps
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("want error for empty member list")
	}
	if _, err := New([]string{"a", "a"}); err == nil {
		t.Fatal("want error for duplicate members")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Fatal("want error for empty member address")
	}
}

// A 1-member ring must be the identity placement: every fingerprint and
// every key routes to member 0, exactly like the pre-sharding code
// paths that assumed one server.
func TestSingleMemberDegenerates(t *testing.T) {
	r, err := New([]string{"only:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range randomFPs(1000, 1) {
		if got := r.Owner(fp); got != 0 {
			t.Fatalf("Owner(%x) = %d, want 0", fp[:4], got)
		}
	}
	for _, key := range []string{"", "a", "path/to/file", "recipes/x"} {
		if got := r.OwnerKey([]byte(key)); got != 0 {
			t.Fatalf("OwnerKey(%q) = %d, want 0", key, got)
		}
	}
}

// Ownership across 4 shards must be uniform within ±10% of fair for
// 100k random fingerprints (the ISSUE's placement-quality bound).
func TestOwnershipUniformity(t *testing.T) {
	members := []string{"s0:1", "s1:1", "s2:1", "s3:1"}
	r, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	counts := make([]int, len(members))
	for _, fp := range randomFPs(n, 42) {
		counts[r.Owner(fp)]++
	}
	fair := float64(n) / float64(len(members))
	for i, c := range counts {
		dev := (float64(c) - fair) / fair
		if dev < -0.10 || dev > 0.10 {
			t.Errorf("shard %d owns %d fingerprints (%.1f%% off fair %0.f)", i, c, dev*100, fair)
		}
	}
	t.Logf("ownership: %v (fair %.0f)", counts, fair)
}

// Rebuilding the ring with the same members must reproduce every
// placement exactly — clients construct their rings independently, so
// any instability would scatter a file's chunks across shards.
func TestReconstructionStability(t *testing.T) {
	members := []string{"s0:1", "s1:1", "s2:1", "s3:1"}
	a, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(append([]string(nil), members...))
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range randomFPs(10_000, 7) {
		if a.Owner(fp) != b.Owner(fp) {
			t.Fatalf("Owner(%x) differs across identical reconstructions", fp[:4])
		}
	}
}

// Placement must not depend on the order the member list is written in:
// two clients of the same cluster may list the shards differently.
func TestOrderInsensitivePlacement(t *testing.T) {
	fwd := []string{"s0:1", "s1:1", "s2:1", "s3:1"}
	rev := []string{"s3:1", "s2:1", "s1:1", "s0:1"}
	a, err := New(fwd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(rev)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range randomFPs(10_000, 9) {
		if fwd[a.Owner(fp)] != rev[b.Owner(fp)] {
			t.Fatalf("owner address for %x depends on member order", fp[:4])
		}
	}
	for _, key := range []string{"x", "some/file", "another"} {
		if fwd[a.OwnerKey([]byte(key))] != rev[b.OwnerKey([]byte(key))] {
			t.Fatalf("OwnerKey(%q) depends on member order", key)
		}
	}
}

// Adding a member must move only part of the space: keys that stay must
// keep their owner (the consistent-hashing property live rebalancing
// will rely on).
func TestGrowthMovesBoundedKeys(t *testing.T) {
	small, err := New([]string{"s0:1", "s1:1", "s2:1"})
	if err != nil {
		t.Fatal(err)
	}
	big, err := New([]string{"s0:1", "s1:1", "s2:1", "s3:1"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	moved := 0
	for _, fp := range randomFPs(n, 13) {
		was, now := small.Owner(fp), big.Owner(fp)
		if was != now {
			if now != 3 {
				t.Fatalf("fingerprint moved between surviving members %d -> %d", was, now)
			}
			moved++
		}
	}
	// The new member should own ~1/4 of the space; far more than half
	// moving means the hash is not consistent.
	if moved == 0 || moved > n/2 {
		t.Fatalf("adding a member moved %d/%d keys, want roughly %d", moved, n, n/4)
	}
	t.Logf("growth 3->4 members moved %d/%d keys", moved, n)
}

// Removing a fingerprint's owner must promote its successor — the
// first other member clockwise from the owner's point — to owner: only
// the removed member's keys move, and each to a well-defined heir.
// Indices differ between the two rings, so the comparison goes through
// member addresses.
func TestSuccessorsOwnerRemoval(t *testing.T) {
	members := []string{"s0:1", "s1:1", "s2:1", "s3:1", "s4:1"}
	r, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range randomFPs(100, 37) {
		owner := r.Owner(fp)
		pos := binary.BigEndian.Uint64(fp[:8])
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
		heir := owner
		for ; heir == owner; i++ {
			heir = r.points[i%len(r.points)].member
		}
		ownerAddr, heirAddr := members[owner], members[heir]

		var survivors []string
		for _, m := range members {
			if m != ownerAddr {
				survivors = append(survivors, m)
			}
		}
		r2, err := New(survivors)
		if err != nil {
			t.Fatal(err)
		}
		if got := survivors[r2.Owner(fp)]; got != heirAddr {
			t.Fatalf("after removing owner %s, new owner = %s, want old first successor %s",
				ownerAddr, got, heirAddr)
		}
	}
}
