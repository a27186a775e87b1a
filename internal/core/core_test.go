package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/aont"
)

func testKey(seed string) []byte {
	h := sha256.Sum256([]byte(seed))
	return h[:]
}

func mustCodec(t testing.TB, scheme Scheme, opts ...Option) *Codec {
	t.Helper()
	c, err := New(scheme, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSchemeString(t *testing.T) {
	tests := []struct {
		give Scheme
		want string
	}{
		{SchemeBasic, "basic"},
		{SchemeEnhanced, "enhanced"},
		{Scheme(9), "Scheme(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewRejectsBadScheme(t *testing.T) {
	if _, err := New(Scheme(0)); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("New(0) error = %v, want ErrBadScheme", err)
	}
}

func TestNewRejectsTinyStub(t *testing.T) {
	if _, err := New(SchemeBasic, WithStubSize(8)); err == nil {
		t.Fatal("New with 8-byte stub expected error")
	}
}

func TestRoundTripBothSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		t.Run(scheme.String(), func(t *testing.T) {
			c := mustCodec(t, scheme)
			key := testKey("k")
			for _, n := range []int{1, 31, 32, 33, 64, 100, 4096, 8192, 16384} {
				chunk := make([]byte, n)
				rng := rand.New(rand.NewSource(int64(n)))
				rng.Read(chunk)

				pkg, err := c.Encrypt(chunk, key)
				if err != nil {
					t.Fatalf("Encrypt(%d bytes): %v", n, err)
				}
				if len(pkg.Stub) != DefaultStubSize {
					t.Fatalf("stub size = %d, want %d", len(pkg.Stub), DefaultStubSize)
				}
				if len(pkg.Trimmed)+len(pkg.Stub) != n+PackageOverhead {
					t.Fatalf("package size = %d, want %d", len(pkg.Trimmed)+len(pkg.Stub), n+PackageOverhead)
				}
				got, err := c.Decrypt(pkg)
				if err != nil {
					t.Fatalf("Decrypt(%d bytes): %v", n, err)
				}
				if !bytes.Equal(got, chunk) {
					t.Fatalf("round trip mismatch for %d bytes", n)
				}
			}
		})
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		c := mustCodec(t, scheme)
		f := func(chunk []byte, seed [KeySize]byte) bool {
			if len(chunk) == 0 {
				chunk = []byte{0}
			}
			pkg, err := c.Encrypt(chunk, seed[:])
			if err != nil {
				return false
			}
			got, err := c.Decrypt(pkg)
			if err != nil {
				return false
			}
			return bytes.Equal(got, chunk)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

// TestDeterministicTrimmedPackage verifies the dedup-critical property:
// identical (chunk, MLE key) pairs yield identical trimmed packages and
// stubs, under both schemes.
func TestDeterministicTrimmedPackage(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		t.Run(scheme.String(), func(t *testing.T) {
			c := mustCodec(t, scheme)
			chunk := bytes.Repeat([]byte("dedup"), 1000)
			key := testKey("dedup-key")
			p1, err := c.Encrypt(chunk, key)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := c.Encrypt(chunk, key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p1.Trimmed, p2.Trimmed) {
				t.Fatal("trimmed packages differ for identical inputs")
			}
			if !bytes.Equal(p1.Stub, p2.Stub) {
				t.Fatal("stubs differ for identical inputs")
			}
		})
	}
}

func TestDistinctKeysDistinctPackages(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		c := mustCodec(t, scheme)
		chunk := bytes.Repeat([]byte("x"), 4096)
		p1, err := c.Encrypt(chunk, testKey("a"))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := c.Encrypt(chunk, testKey("b"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(p1.Trimmed, p2.Trimmed) {
			t.Fatalf("%v: same trimmed package under different MLE keys", scheme)
		}
	}
}

// TestTamperDetection flips bytes across the package and requires every
// mutation to be caught — the paper's chunk-level integrity goal.
func TestTamperDetection(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		t.Run(scheme.String(), func(t *testing.T) {
			c := mustCodec(t, scheme)
			chunk := bytes.Repeat([]byte("integrity"), 128)
			pkg, err := c.Encrypt(chunk, testKey("k"))
			if err != nil {
				t.Fatal(err)
			}
			// Flip a sample of positions in trimmed package and stub.
			for _, pos := range []int{0, 1, len(pkg.Trimmed) / 2, len(pkg.Trimmed) - 1} {
				mutated := Package{
					Trimmed: append([]byte(nil), pkg.Trimmed...),
					Stub:    append([]byte(nil), pkg.Stub...),
				}
				mutated.Trimmed[pos] ^= 0x01
				if _, err := c.Decrypt(mutated); !errors.Is(err, ErrIntegrity) {
					t.Fatalf("trimmed tamper at %d: err = %v, want ErrIntegrity", pos, err)
				}
			}
			for pos := 0; pos < len(pkg.Stub); pos++ {
				mutated := Package{
					Trimmed: append([]byte(nil), pkg.Trimmed...),
					Stub:    append([]byte(nil), pkg.Stub...),
				}
				mutated.Stub[pos] ^= 0x01
				if _, err := c.Decrypt(mutated); !errors.Is(err, ErrIntegrity) {
					t.Fatalf("stub tamper at %d: err = %v, want ErrIntegrity", pos, err)
				}
			}
		})
	}
}

// TestEnhancedEvenFlipCaught reproduces the attack the paper discusses in
// Section IV-E: flipping the same bit position in an even number of
// self-XOR pieces leaves the recovered hash key h unchanged, but the
// tampered package must still fail the H(C1||K_M) == h comparison.
func TestEnhancedEvenFlipCaught(t *testing.T) {
	c := mustCodec(t, SchemeEnhanced)
	chunk := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(chunk)
	pkg, err := c.Encrypt(chunk, testKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip bit 0 of piece 0 and piece 1 within C2 (both land in the
	// trimmed package for a 4 KB chunk).
	mutated := Package{
		Trimmed: append([]byte(nil), pkg.Trimmed...),
		Stub:    append([]byte(nil), pkg.Stub...),
	}
	mutated.Trimmed[0] ^= 0x01
	mutated.Trimmed[aont.TailSize] ^= 0x01
	if _, err := c.Decrypt(mutated); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("even-flip tamper: err = %v, want ErrIntegrity", err)
	}
}

// TestBasicSchemeLeaksUnderMLEKeyCompromise demonstrates the weakness the
// enhanced scheme exists to fix: given the MLE key and only the trimmed
// package, an adversary recovers the prefix of the chunk under the basic
// scheme but not under the enhanced scheme.
func TestBasicSchemeLeaksUnderMLEKeyCompromise(t *testing.T) {
	key := testKey("compromised")
	chunk := bytes.Repeat([]byte("secret genome data "), 200)

	basic := mustCodec(t, SchemeBasic)
	pkg, err := basic.Encrypt(chunk, key)
	if err != nil {
		t.Fatal(err)
	}
	// Adversary: mask = G(K_M), XOR with trimmed package head.
	mask, err := aont.Mask(key, len(pkg.Trimmed))
	if err != nil {
		t.Fatal(err)
	}
	leaked := make([]byte, len(pkg.Trimmed))
	copy(leaked, pkg.Trimmed)
	if err := aont.XORBytes(leaked, mask); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leaked, chunk[:len(leaked)]) {
		t.Fatal("expected basic scheme to leak chunk prefix under MLE-key compromise")
	}

	enhanced := mustCodec(t, SchemeEnhanced)
	epkg, err := enhanced.Encrypt(chunk, key)
	if err != nil {
		t.Fatal(err)
	}
	// The same attack must fail: the mask key is h, not K_M.
	emask, err := aont.Mask(key, len(epkg.Trimmed))
	if err != nil {
		t.Fatal(err)
	}
	eleaked := make([]byte, len(epkg.Trimmed))
	copy(eleaked, epkg.Trimmed)
	if err := aont.XORBytes(eleaked, emask); err != nil {
		t.Fatal(err)
	}
	// eleaked is C1 XOR G(h) XOR G(K_M) — but even C1 itself would need
	// K_M to decrypt; check we did not reveal the plaintext.
	if bytes.Contains(eleaked, []byte("secret genome data")) {
		t.Fatal("enhanced scheme leaked plaintext under MLE-key compromise")
	}
}

// TestCustomStubSize round-trips both schemes at stub sizes around the
// package overhead: the tail alone (32), a tail and part of the key or
// canary (48), exactly the overhead (64), and stubs that also withhold
// chunk bytes (100 and up), where an in-place Open writes the chunk on
// past the trimmed package into the stub. Decrypt must leave its input
// as it found it.
func TestCustomStubSize(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		for _, stub := range []int{32, 48, 64, 100, 128, 256} {
			c := mustCodec(t, scheme, WithStubSize(stub))
			chunk := make([]byte, 8191)
			rand.New(rand.NewSource(int64(stub))).Read(chunk)
			pkg, err := c.Encrypt(chunk, testKey("k"))
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.Stub) != stub {
				t.Fatalf("stub size = %d, want %d", len(pkg.Stub), stub)
			}
			before := append(append([]byte(nil), pkg.Trimmed...), pkg.Stub...)
			got, err := c.Decrypt(pkg)
			if err != nil {
				t.Fatalf("%v stub %d: Decrypt: %v", scheme, stub, err)
			}
			if !bytes.Equal(got, chunk) {
				t.Fatalf("%v stub %d: Decrypt round trip mismatch", scheme, stub)
			}
			if !bytes.Equal(append(append([]byte(nil), pkg.Trimmed...), pkg.Stub...), before) {
				t.Fatalf("%v stub %d: Decrypt changed its input", scheme, stub)
			}

			got, err = c.Open(pkg.Trimmed[:0], pkg)
			if err != nil {
				t.Fatalf("%v stub %d: Open in place: %v", scheme, stub, err)
			}
			if !bytes.Equal(got, chunk) {
				t.Fatalf("%v stub %d: Open in place round trip mismatch", scheme, stub)
			}
			if &got[0] != &pkg.Trimmed[0] {
				t.Fatalf("%v stub %d: Open in place moved the chunk", scheme, stub)
			}
		}
	}
}

// TestOpenAppends checks the dst contract: the chunk is appended after
// dst's bytes, which stay as they were.
func TestOpenAppends(t *testing.T) {
	c := mustCodec(t, SchemeEnhanced)
	chunk := bytes.Repeat([]byte("append"), 700)
	pkg, err := c.Encrypt(chunk, testKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := c.Open(append([]byte(nil), prefix...), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(prefix, chunk...)) {
		t.Fatal("Open did not append the chunk after dst")
	}
}

func TestEncryptValidation(t *testing.T) {
	c := mustCodec(t, SchemeBasic)
	if _, err := c.Encrypt(nil, testKey("k")); err == nil {
		t.Fatal("Encrypt(nil chunk) expected error")
	}
	if _, err := c.Encrypt([]byte("x"), []byte("short")); err == nil {
		t.Fatal("Encrypt with short key expected error")
	}
}

func TestDecryptTruncatedPackage(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		c := mustCodec(t, scheme)
		if _, err := c.Decrypt(Package{Stub: make([]byte, 8)}); err == nil {
			t.Fatalf("%v: Decrypt of truncated package expected error", scheme)
		}
	}
}

// TestStubWithholdingPreventsRecovery checks the rekeying security story:
// without the stub, decryption is impossible even knowing everything else.
func TestStubWithholdingPreventsRecovery(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		c := mustCodec(t, scheme)
		chunk := bytes.Repeat([]byte("w"), 4096)
		pkg, err := c.Encrypt(chunk, testKey("k"))
		if err != nil {
			t.Fatal(err)
		}
		// Replace stub with zeros (what the server effectively has).
		noStub := Package{Trimmed: pkg.Trimmed, Stub: make([]byte, len(pkg.Stub))}
		got, err := c.Decrypt(noStub)
		if err == nil && bytes.Equal(got, chunk) {
			t.Fatalf("%v: recovered chunk without the stub", scheme)
		}
	}
}

func BenchmarkEncryptBasic8KB(b *testing.B)    { benchEncrypt(b, SchemeBasic, 8192) }
func BenchmarkEncryptEnhanced8KB(b *testing.B) { benchEncrypt(b, SchemeEnhanced, 8192) }
func BenchmarkDecryptBasic8KB(b *testing.B)    { benchDecrypt(b, SchemeBasic, 8192) }
func BenchmarkDecryptEnhanced8KB(b *testing.B) { benchDecrypt(b, SchemeEnhanced, 8192) }

func benchEncrypt(b *testing.B, scheme Scheme, size int) {
	c := mustCodec(b, scheme)
	chunk := make([]byte, size)
	key := testKey("bench")
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encrypt(chunk, key); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecrypt(b *testing.B, scheme Scheme, size int) {
	c := mustCodec(b, scheme)
	chunk := make([]byte, size)
	key := testKey("bench")
	pkg, err := c.Encrypt(chunk, key)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decrypt(pkg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWipe(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5}
	Wipe(key)
	for i, b := range key {
		if b != 0 {
			t.Fatalf("byte %d not zeroized: %#x", i, b)
		}
	}
	Wipe(nil) // must not panic
	Wipe([]byte{})
}
