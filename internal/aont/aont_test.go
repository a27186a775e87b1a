package aont

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func TestTransformRevertRoundTrip(t *testing.T) {
	f := func(msg []byte) bool {
		pkg, err := Transform(msg, nil)
		if err != nil {
			return false
		}
		got, _, err := Revert(pkg)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransformRandomized(t *testing.T) {
	msg := []byte("same message transformed twice")
	p1, err := Transform(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(p1, p2) {
		t.Fatal("randomized AONT produced identical packages for two invocations")
	}
}

func TestTransformWithKeyDeterministic(t *testing.T) {
	msg := []byte("convergent aont message")
	key := ConvergentKey(msg)
	p1, err := TransformWithKey(msg, key)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := TransformWithKey(msg, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("CAONT produced different packages for identical message and key")
	}
}

func TestTransformWithKeyRecoversKey(t *testing.T) {
	f := func(msg []byte, seed [KeySize]byte) bool {
		pkg, err := TransformWithKey(msg, seed[:])
		if err != nil {
			return false
		}
		got, key, err := Revert(pkg)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg) && bytes.Equal(key, seed[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackageSize(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 4096, 8191} {
		msg := make([]byte, n)
		pkg, err := Transform(msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg) != n+TailSize {
			t.Fatalf("package size for %d-byte msg = %d, want %d", n, len(pkg), n+TailSize)
		}
	}
}

func TestRevertTooShort(t *testing.T) {
	if _, _, err := Revert(make([]byte, TailSize-1)); err == nil {
		t.Fatal("Revert on short package expected error")
	}
}

// TestAllOrNothing verifies the defining property: flipping any single
// byte of the package changes the recovered key (and hence the recovered
// message decrypts to garbage under the integrity check).
func TestAllOrNothing(t *testing.T) {
	msg := []byte("the all or nothing property must hold for every byte")
	key := ConvergentKey(msg)
	pkg, err := TransformWithKey(msg, key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkg {
		mutated := append([]byte(nil), pkg...)
		mutated[i] ^= 0x01
		got, gotKey, err := Revert(mutated)
		if err != nil {
			t.Fatalf("Revert on mutated package: %v", err)
		}
		if bytes.Equal(got, msg) && bytes.Equal(gotKey, key) {
			t.Fatalf("flipping byte %d left both message and key unchanged", i)
		}
		// The CAONT integrity check must catch the tamper.
		if VerifyConvergent(got, gotKey) {
			t.Fatalf("tampered package at byte %d passed the convergent check", i)
		}
	}
}

func TestMaskDeterministicAndKeyDependent(t *testing.T) {
	k1 := ConvergentKey([]byte("k1"))
	k2 := ConvergentKey([]byte("k2"))
	m1a, err := Mask(k1, 128)
	if err != nil {
		t.Fatal(err)
	}
	m1b, err := Mask(k1, 128)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Mask(k2, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1a, m1b) {
		t.Fatal("mask not deterministic")
	}
	if bytes.Equal(m1a, m2) {
		t.Fatal("masks under different keys are identical")
	}
}

func TestMaskRejectsBadKey(t *testing.T) {
	if _, err := Mask(make([]byte, 16), 32); err == nil {
		t.Fatal("Mask with 16-byte key expected error")
	}
}

func TestXORBytes(t *testing.T) {
	dst := []byte{1, 2, 3}
	if err := XORBytes(dst, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, []byte{0, 0, 0}) {
		t.Fatalf("xor result = %v", dst)
	}
	if err := XORBytes(dst, []byte{1}); err == nil {
		t.Fatal("length mismatch expected error")
	}
}

// selfXORRef is the byte-at-a-time fold SelfXOR is tested against.
func selfXORRef(data []byte) [TailSize]byte {
	var acc [TailSize]byte
	for i, b := range data {
		acc[i%TailSize] ^= b
	}
	return acc
}

// raggedLens end before, on and after a piece boundary, with no whole
// piece, one, and many.
var raggedLens = []int{0, 1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 95, 100, 2048 + 17, 8191, 8192 + 64, 16384 + 63}

func patterned(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + i>>8)
	}
	return data
}

func TestSelfXOR(t *testing.T) {
	// XOR of two identical pieces cancels out.
	piece := bytes.Repeat([]byte{0x5A}, TailSize)
	double := append(append([]byte(nil), piece...), piece...)
	if got := SelfXOR(double); got != [TailSize]byte{} {
		t.Fatalf("SelfXOR of duplicated piece = %x, want zero", got)
	}
	// Single partial piece is zero-padded.
	got := SelfXOR([]byte{0xFF, 0x01})
	want := [TailSize]byte{0xFF, 0x01}
	if got != want {
		t.Fatalf("SelfXOR partial = %x, want %x", got, want)
	}
	// Empty input.
	if got := SelfXOR(nil); got != [TailSize]byte{} {
		t.Fatalf("SelfXOR(nil) = %x, want zero", got)
	}
	// Ragged tails, at every alignment of the slice within its array.
	for _, n := range raggedLens {
		for shift := 0; shift < 8; shift++ {
			data := patterned(n + shift)[shift:]
			if got, want := SelfXOR(data), selfXORRef(data); got != want {
				t.Fatalf("SelfXOR of %d bytes at offset %d = %x, want %x", n, shift, got, want)
			}
		}
		// Two parts, split on, before and after a piece boundary.
		data := patterned(n)
		for _, cut := range []int{0, 1, 31, 32, 33, n / 2, n} {
			cut = min(cut, n)
			if got, want := SelfXORParts(data[:cut], data[cut:]), selfXORRef(data); got != want {
				t.Fatalf("SelfXORParts of %d bytes split at %d = %x, want %x", n, cut, got, want)
			}
		}
	}
}

func TestSelfXORSensitiveToEveryByte(t *testing.T) {
	for _, n := range []int{31, 33, 100, 2048 + 17} {
		data := patterned(n)
		base := SelfXOR(data)
		for i := range data {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= 0x80
			if SelfXOR(mutated) == base {
				t.Fatalf("SelfXOR of %d bytes unchanged after flipping byte %d", n, i)
			}
		}
	}
}

func TestConvergentKeyMatchesHash(t *testing.T) {
	msg := []byte("hash key check")
	want := sha256.Sum256(msg)
	if !bytes.Equal(ConvergentKey(msg), want[:]) {
		t.Fatal("ConvergentKey does not match SHA-256")
	}
}

func BenchmarkTransformWithKey8KB(b *testing.B) {
	msg := make([]byte, 8192)
	key := ConvergentKey(msg)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		if _, err := TransformWithKey(msg, key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRevert8KB(b *testing.B) {
	msg := make([]byte, 8192)
	key := ConvergentKey(msg)
	pkg, err := TransformWithKey(msg, key)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Revert(pkg); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSelfXOR [TailSize]byte

func BenchmarkSelfXOR8KB(b *testing.B) {
	// The enhanced scheme folds C1 || K_M: an 8 KB chunk plus the key.
	data := patterned(8192 + KeySize)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		benchSelfXOR = SelfXOR(data)
	}
}
