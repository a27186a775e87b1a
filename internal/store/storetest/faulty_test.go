package storetest

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/store"
)

var ctx = context.Background()

const ns = store.NSContainers

// cutDuring makes a fresh disk of two, writes old under "blob" and
// three more blobs, then cuts the power to it while call is in
// flight. It checks that call, and the old handle, fail; that every
// write that returned before the cut is in the image; and that the
// other disk keeps serving. It returns what the image holds under
// "blob" and Cut's count of lost writes.
func cutDuring(t *testing.T, seed int64, old []byte, call func(b store.Backend) error) ([]byte, int) {
	t.Helper()
	f := New()
	v, other := f.View("s"), f.View("other")
	for _, err := range []error{
		v.Put(ctx, ns, "put", []byte("put")),
		v.Put(ctx, ns, "gone", []byte("gone")),
		v.Delete(ctx, ns, "gone"),
		v.WriteAt(ctx, store.NSWAL, "log", 0, []byte("0123456789")),
		v.WriteAt(ctx, store.NSWAL, "log", 4, []byte("ab")),
		other.Put(ctx, ns, "put", []byte("other")),
		v.Put(ctx, ns, "blob", old),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	lost, err := f.CutAt(rand.New(rand.NewSource(seed)), &Rule{Name: "blob"}, func() error { return call(v) }, "s")
	if !errors.Is(err, ErrPowerCut) || lost < 0 {
		t.Fatalf("the call in flight at the cut returned %v (lost %d), want ErrPowerCut", err, lost)
	}
	if _, err := v.Get(ctx, ns, "put"); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("a handle from before the cut read with %v, want ErrPowerCut", err)
	}
	image := f.View("s")
	for _, want := range [][3]string{{ns, "put", "put"}, {store.NSWAL, "log", "0123ab"}} {
		if got, err := image.Get(ctx, want[0], want[1]); err != nil || string(got) != want[2] {
			t.Fatalf("the image holds %s/%s = %q, %v; want %q", want[0], want[1], got, err, want[2])
		}
	}
	if ok, err := image.Has(ctx, ns, "gone"); ok || err != nil {
		t.Fatalf("the image holds a deleted blob (%v)", err)
	}
	if got, err := other.Get(ctx, ns, "put"); err != nil || string(got) != "other" {
		t.Fatalf("the disk not cut reads %q, %v", got, err)
	}
	got, err := image.Get(ctx, ns, "blob")
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		t.Fatal(err)
	}
	return got, lost
}

// TestCutInFlightPutOrDelete: a Put or Delete in flight at the cut is
// applied whole or not at all, and across seeds both happen.
func TestCutInFlightPutOrDelete(t *testing.T) {
	old, data := []byte("old blob"), []byte("new blob, longer")
	for applied, call := range map[string]func(b store.Backend) error{
		string(data): func(b store.Backend) error { return b.Put(ctx, ns, "blob", data) },
		"":           func(b store.Backend) error { return b.Delete(ctx, ns, "blob") },
	} {
		seen := map[bool]bool{}
		for seed := int64(0); seed < 32; seed++ {
			got, lost := cutDuring(t, seed, old, call)
			landed := string(got) == applied
			if !landed && !bytes.Equal(got, old) || lost != map[bool]int{true: 0, false: 1}[landed] {
				t.Fatalf("seed %d: the image holds %q and Cut lost %d; want %q (lost 1) or %q (lost 0)", seed, got, lost, old, applied)
			}
			seen[landed] = true
		}
		if len(seen) != 2 {
			t.Fatalf("32 cuts of a write leaving %q produced only landed = %v", applied, seen)
		}
	}
}

// TestCutInFlightWriteAt: a WriteAt in flight at the cut keeps the
// bytes before its offset and a prefix of its data, followed by the
// old blob's bytes past that prefix or by zeros to the end of the
// write. Both shapes occur, and so do an empty and a whole prefix, over
// a blob's middle and as an append at its end, as a log's is.
func TestCutInFlightWriteAt(t *testing.T) {
	const off = 8
	data := []byte("ABCDEFGHIJ")
	for _, old := range [][]byte{[]byte("0123456789abcdefghijklmnopqrstuv"), []byte("01234567")} {
		whole := append(old[:off:off], data...)
		seen := map[string]bool{}
		for seed := int64(0); seed < 200; seed++ {
			got, lost := cutDuring(t, seed, old, func(b store.Backend) error { return b.WriteAt(ctx, ns, "blob", off, data) })
			k := 0
			for off+k < len(got) && k < len(data) && got[off+k] == data[k] {
				k++
			}
			switch rest := got[min(off+k, len(got)):]; {
			case !bytes.HasPrefix(got, old[:off]):
				t.Fatalf("seed %d: the bytes before the offset changed: %q", seed, got)
			case bytes.Equal(rest, make([]byte, len(data)-k)):
				seen["zeros"] = true
			case bytes.Equal(rest, old[min(off+k, len(old)):]):
				seen["old bytes"] = true
			default:
				t.Fatalf("seed %d: %q is not a prefix of the write followed by the old bytes or zeros", seed, got)
			}
			seen[map[int]string{0: "empty prefix", len(data): "whole prefix"}[k]] = true
			if lost != map[bool]int{true: 0, false: 1}[bytes.Equal(got, whole)] {
				t.Fatalf("seed %d: the image holds %q, and Cut lost %d", seed, got, lost)
			}
		}
		if len(seen) != 5 { // the four named, and "" for a partial prefix
			t.Fatalf("200 cuts over %q produced only %v", old, seen)
		}
	}
}
