package aont

import (
	"bytes"
	"testing"
)

// FuzzAONTRoundTrip drives the CAONT core with arbitrary messages:
// TransformWithKey then Revert must return the original message and
// key, and so must RevertParts in place over a split package; the
// recovered key must pass the convergent integrity check.
// Flipping one package byte must break that check — the all-or-nothing
// property the stub/trimmed-package split depends on.
func FuzzAONTRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("m"))
	f.Add(bytes.Repeat([]byte{0xA5}, 8<<10))
	f.Fuzz(func(t *testing.T, msg []byte) {
		key := ConvergentKey(msg)
		pkg, err := TransformWithKey(msg, key)
		if err != nil {
			t.Fatalf("transform: %v", err)
		}
		if len(pkg) != len(msg)+TailSize {
			t.Fatalf("package length %d, want %d", len(pkg), len(msg)+TailSize)
		}
		got, gotKey, err := Revert(pkg)
		if err != nil {
			t.Fatalf("revert: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("revert did not recover the message")
		}
		if !VerifyConvergent(got, gotKey) {
			t.Fatal("recovered key fails the convergent check")
		}

		// The same revert as a download runs it: the package in two
		// parts, the message written over the first and on into the
		// second, its last KeySize bytes (a canary's place) elsewhere.
		buf := append([]byte(nil), pkg...)
		cut, n := len(msg)/2, len(msg)-min(len(msg), KeySize)
		var last [KeySize]byte
		partsKey, err := RevertParts(buf[:n], last[:len(msg)-n], buf[:cut], buf[cut:])
		if err != nil {
			t.Fatalf("revert parts: %v", err)
		}
		if !bytes.Equal(append(buf[:n:n], last[:len(msg)-n]...), msg) || !bytes.Equal(partsKey[:], gotKey) {
			t.Fatalf("in-place revert of %d bytes split at %d lost message or key", len(pkg), cut)
		}

		// All-or-nothing: any single-byte corruption must be caught by
		// the convergent integrity check on the recovered key.
		if len(pkg) > 0 {
			i := len(msg) % len(pkg) // deterministic, input-dependent position
			pkg[i] ^= 0x01
			m2, k2, err := Revert(pkg)
			if err == nil && VerifyConvergent(m2, k2) {
				t.Fatalf("corrupted package at byte %d passed verification", i)
			}
		}
	})
}

// FuzzSelfXORMatchesReference: the word-wise fold must equal the
// byte-at-a-time one for every length and every slice alignment, and so
// must the two-part fold for every split point.
func FuzzSelfXORMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xFF, 0x01}, uint8(1))
	f.Add(patterned(33), uint8(3))
	f.Add(patterned(8191), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		if n := int(skip % 8); n <= len(data) {
			data = data[n:]
		}
		want := selfXORRef(data)
		if got := SelfXOR(data); got != want {
			t.Fatalf("SelfXOR of %d bytes = %x, want %x", len(data), got, want)
		}
		cut := int(skip) * 37 % (len(data) + 1)
		if got := SelfXORParts(data[:cut], data[cut:]); got != want {
			t.Fatalf("SelfXORParts of %d bytes split at %d = %x, want %x", len(data), cut, got, want)
		}
	})
}
