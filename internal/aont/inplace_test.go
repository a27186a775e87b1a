package aont

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

func testKeyMsg() (key, msg []byte) {
	k := sha256.Sum256([]byte("key material"))
	msg = bytes.Repeat([]byte("reed in-place transform "), 128)
	return k[:], msg
}

// TestApplyMaskMatchesMask pins the equivalence the hot path relies on:
// applying the keystream in place equals XORing an explicit mask.
func TestApplyMaskMatchesMask(t *testing.T) {
	key, msg := testKeyMsg()
	want := make([]byte, len(msg))
	copy(want, msg)
	mask, err := Mask(key, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if err := XORBytes(want, mask); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(msg))
	copy(got, msg)
	if err := ApplyMask(key, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ApplyMask differs from explicit Mask+XOR")
	}

	// Involution: applying twice restores the input.
	if err := ApplyMask(key, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("ApplyMask twice did not restore the message")
	}

	if err := ApplyMask(key[:5], got); err == nil {
		t.Fatal("short key expected error")
	}
}

func TestTransformWithKeyIntoMatchesTransformWithKey(t *testing.T) {
	key, msg := testKeyMsg()
	want, err := TransformWithKey(msg, key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg)+TailSize)
	if err := TransformWithKeyInto(got, msg, key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("TransformWithKeyInto differs from TransformWithKey")
	}

	if err := TransformWithKeyInto(got[:len(got)-1], msg, key); err == nil {
		t.Fatal("undersized buffer expected error")
	}
}

func TestTransformInPlaceRoundTrip(t *testing.T) {
	key, msg := testKeyMsg()
	pkg := make([]byte, len(msg)+TailSize)
	copy(pkg, msg)
	if err := TransformInPlace(pkg, key); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(pkg, msg[:64]) {
		t.Fatal("package leaks plaintext prefix")
	}

	// Revert over the head itself.
	head := pkg[:len(msg)]
	gotKey, err := RevertParts(head, nil, head, pkg[len(msg):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, msg) {
		t.Fatal("in-place round trip lost the message")
	}
	if !bytes.Equal(gotKey[:], key) {
		t.Fatal("in-place round trip lost the key")
	}

	if err := TransformInPlace(make([]byte, TailSize-1), key); err == nil {
		t.Fatal("short package expected error")
	}
	if _, err := RevertParts(nil, nil, make([]byte, TailSize), make([]byte, TailSize-1)); err == nil {
		t.Fatal("tail split across the parts expected error")
	}
}

// TestRevertPartsAtEverySplit: reverting a package given as two parts
// into a message written as two parts recovers the message and key for
// every cut of either — in place, with the message written over the
// package buffer, and into a separate buffer, leaving the package
// untouched. These are the shapes a trimmed package and its stub take.
func TestRevertPartsAtEverySplit(t *testing.T) {
	key, msg := testKeyMsg()
	msg = msg[:3*TailSize+5]
	pkg, err := TransformWithKey(msg, key)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), pkg...)
	for cut := 0; cut <= len(msg); cut++ {
		for _, n := range []int{0, 1, cut / 2, cut, cut + 1, len(msg)} {
			n = min(n, len(msg))
			// In place: first aliases the package's start and runs on
			// into the second part when n > cut.
			buf := append([]byte(nil), pkg...)
			rest := make([]byte, len(msg)-n)
			gotKey, err := RevertParts(buf[:n], rest, buf[:cut], buf[cut:])
			if err != nil {
				t.Fatal(err)
			}
			if got := append(buf[:n:n], rest...); !bytes.Equal(got, msg) || !bytes.Equal(gotKey[:], key) {
				t.Fatalf("in place, split at %d, message cut at %d: lost message or key", cut, n)
			}
			out := make([]byte, len(msg))
			if _, err := RevertParts(out[:n], out[n:], pkg[:cut], pkg[cut:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, msg) || !bytes.Equal(pkg, orig) {
				t.Fatalf("separate output, split at %d, message cut at %d: lost the message or wrote the package", cut, n)
			}
		}
	}
	if _, err := RevertParts(make([]byte, len(msg)-1), nil, pkg[:len(msg)], pkg[len(msg):]); err == nil {
		t.Fatal("short output expected error")
	}
}

// TestRevertLeavesInputIntact: the non-in-place Revert must not mutate
// the caller's package.
func TestRevertLeavesInputIntact(t *testing.T) {
	key, msg := testKeyMsg()
	pkg, err := TransformWithKey(msg, key)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]byte, len(pkg))
	copy(before, pkg)
	if _, _, err := Revert(pkg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkg, before) {
		t.Fatal("Revert mutated its input package")
	}
}

// TestTransformIntoZeroAlloc locks in the allocation-free property of
// the in-place CAONT path for a caller-owned buffer.
func TestTransformIntoZeroAlloc(t *testing.T) {
	key, msg := testKeyMsg()
	pkg := make([]byte, len(msg)+TailSize)
	if n := testing.AllocsPerRun(100, func() {
		copy(pkg, msg)
		if err := TransformInPlace(pkg, key); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		// The AES cipher and CTR stream state are the only remaining
		// per-op allocations (3 small fixed-size objects); the package
		// itself must never be copied or reallocated.
		t.Fatalf("TransformInPlace allocates %v per run, want <= 3", n)
	}
}

func BenchmarkTransformInPlace8KB(b *testing.B) {
	key, _ := testKeyMsg()
	pkg := make([]byte, 8<<10+TailSize)
	b.SetBytes(8 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := TransformInPlace(pkg, key); err != nil {
			b.Fatal(err)
		}
	}
}
