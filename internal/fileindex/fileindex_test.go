package fileindex

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/store"
	"repro/internal/wal"
)

var ctx = context.Background()

func testKey(seed byte) Key {
	var k Key
	for i := range k.Hash {
		k.Hash[i] = seed + byte(i)
	}
	for i := range k.Policy {
		k.Policy[i] = seed ^ byte(i)
	}
	k.Size = uint64(seed) * 1000
	return k
}

// decodeSnapshot runs a checkpoint blob through the journal's envelope
// check and the index's body decode, as Open does.
func decodeSnapshot(blob []byte) (map[Key]string, error) {
	var ix Index
	_, err := wal.DecodeSnapshot(journalSpec, blob, (*state)(&ix))
	return ix.entries, err
}

func cloneBackend(t *testing.T, b store.Backend) *store.Memory {
	t.Helper()
	out := store.NewMemory()
	for _, ns := range []string{store.NSMeta, store.NSFileWAL} {
		names, err := b.List(ctx, ns)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			blob, err := b.Get(ctx, ns, name)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.Put(ctx, ns, name, blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func TestRegisterLookup(t *testing.T) {
	backend := store.NewMemory()
	ix, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if _, ok := ix.Lookup(k); ok {
		t.Fatal("lookup hit on empty index")
	}
	if err := ix.Register(ctx, k, "recipes/a"); err != nil {
		t.Fatal(err)
	}
	name, ok := ix.Lookup(k)
	if !ok || name != "recipes/a" {
		t.Fatalf("Lookup = %q, %v; want recipes/a, true", name, ok)
	}
	// Upsert: last writer wins.
	if err := ix.Register(ctx, k, "recipes/b"); err != nil {
		t.Fatal(err)
	}
	if name, _ := ix.Lookup(k); name != "recipes/b" {
		t.Fatalf("after re-register Lookup = %q, want recipes/b", name)
	}
	if got := ix.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if err := ix.Register(ctx, testKey(2), ""); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestCommittedRegistrationsSurviveReopen is the kill -9 contract: a
// committed (acknowledged) registration must be visible after reopening
// from the backend alone, with no Flush/checkpoint in between; an
// uncommitted one must simply be absent, never an error.
func TestCommittedRegistrationsSurviveReopen(t *testing.T) {
	backend := store.NewMemory()
	ix, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	committed, uncommitted := testKey(3), testKey(4)
	if err := ix.Register(ctx, committed, "recipes/durable"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ix.Register(ctx, uncommitted, "recipes/lost"); err != nil {
		t.Fatal(err)
	}
	// No Commit, no Flush: the process dies here.
	ix2, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := ix2.Lookup(committed); !ok || name != "recipes/durable" {
		t.Fatalf("committed entry after reopen = %q, %v", name, ok)
	}
	if _, ok := ix2.Lookup(uncommitted); ok {
		t.Fatal("uncommitted entry survived reopen")
	}
}

// TestRecoveryAcrossCheckpoint: entries folded into the snapshot and
// entries still in the WAL tail must both recover.
func TestRecoveryAcrossCheckpoint(t *testing.T) {
	backend := store.NewMemory()
	ix, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 10; i++ {
		if err := ix.Register(ctx, testKey(10+i), fmt.Sprintf("recipes/s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Flush(ctx); err != nil { // checkpoint: snapshot + truncated WAL
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		if err := ix.Register(ctx, testKey(40+i), fmt.Sprintf("recipes/w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Commit(ctx); err != nil { // WAL tail only
		t.Fatal(err)
	}
	ix2, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix2.Len(); got != 15 {
		t.Fatalf("recovered %d entries, want 15", got)
	}
	for i := byte(0); i < 10; i++ {
		if name, ok := ix2.Lookup(testKey(10 + i)); !ok || name != fmt.Sprintf("recipes/s%d", i) {
			t.Fatalf("snapshot entry %d = %q, %v", i, name, ok)
		}
	}
	for i := byte(0); i < 5; i++ {
		if name, ok := ix2.Lookup(testKey(40 + i)); !ok || name != fmt.Sprintf("recipes/w%d", i) {
			t.Fatalf("wal entry %d = %q, %v", i, name, ok)
		}
	}
}

// TestTornTailTolerated: a final WAL segment cut at every possible byte
// boundary — the shape a mid-write crash leaves — must never fail
// recovery, and the committed batches before the cut must survive
// intact.
func TestTornTailTolerated(t *testing.T) {
	backend := store.NewMemory()
	ix, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	const last = "f0000000000000000"
	var batchEnds []int
	for batch := byte(0); batch < 2; batch++ { // one WAL batch per commit
		for i := byte(0); i < 3; i++ {
			if err := ix.Register(ctx, testKey(100+batch*10+i), fmt.Sprintf("recipes/t%d-%d", batch, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		seg, err := backend.Get(ctx, store.NSFileWAL, last)
		if err != nil {
			t.Fatal(err)
		}
		batchEnds = append(batchEnds, len(seg))
	}
	if segs, err := backend.List(ctx, store.NSFileWAL); err != nil || len(segs) != 1 {
		t.Fatalf("expected one WAL segment, got %v, %v", segs, err)
	}
	full, err := backend.Get(ctx, store.NSFileWAL, last)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		torn := cloneBackend(t, backend)
		if err := torn.Put(ctx, store.NSFileWAL, last, full[:cut]); err != nil {
			t.Fatal(err)
		}
		ix2, err := Open(ctx, torn)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		want := 0
		for _, end := range batchEnds {
			if cut >= end {
				want += 3
			}
		}
		if got := ix2.Len(); got != want {
			t.Fatalf("cut %d: recovered %d entries, want %d", cut, got, want)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	k := testKey(7)
	key, name, err := DecodeRecord(EncodeRecord(k, "recipes/rt"))
	if err != nil {
		t.Fatal(err)
	}
	if key != k || name != "recipes/rt" {
		t.Fatalf("round trip = %+v, %q", key, name)
	}
	for _, bad := range [][]byte{
		nil,
		{99},
		EncodeRecord(k, "recipes/rt")[:10],
		append(EncodeRecord(k, "recipes/rt"), 0),
	} {
		if _, _, err := DecodeRecord(bad); err == nil {
			t.Fatalf("DecodeRecord(%x) accepted", bad)
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	backend := store.NewMemory()
	ix, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Register(ctx, testKey(9), "recipes/x"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	blob, err := backend.Get(ctx, store.NSMeta, journalSpec.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(blob); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := decodeSnapshot(flipped); err == nil {
		t.Fatal("bit-flipped snapshot accepted")
	}
	if _, err := decodeSnapshot(blob[:3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestRoutingNameStable(t *testing.T) {
	k := testKey(5)
	if k.RoutingName() != k.RoutingName() {
		t.Fatal("routing name not deterministic")
	}
	k2 := k
	k2.Policy[0] ^= 1
	if k.RoutingName() == k2.RoutingName() {
		t.Fatal("policy change did not move the routing name")
	}
}
