package core

import (
	"bytes"
	"testing"
)

// FuzzOpenMatchesDecrypt: reverting in place must agree with the copying
// revert on every package, well formed or with one byte flipped — the
// same chunk, or an error from both — at every scheme and at stub sizes
// on both sides of the package overhead. Decrypt must not change its
// input.
func FuzzOpenMatchesDecrypt(f *testing.F) {
	f.Add([]byte("c"), uint8(0), uint16(0), false)
	f.Add([]byte("a chunk of some length"), uint8(3), uint16(5), true)
	f.Add(bytes.Repeat([]byte{0x5A}, 8191), uint8(6), uint16(8000), false)
	f.Add(bytes.Repeat([]byte{0x5A}, 8191), uint8(7), uint16(8250), true)
	stubSizes := []int{32, 48, 64, 100}
	f.Fuzz(func(t *testing.T, chunk []byte, shape uint8, flip uint16, tamper bool) {
		if len(chunk) == 0 {
			chunk = []byte{0}
		}
		scheme := SchemeBasic
		if shape&1 == 1 {
			scheme = SchemeEnhanced
		}
		c := mustCodec(t, scheme, WithStubSize(stubSizes[int(shape>>1)%len(stubSizes)]))
		if len(chunk)+PackageOverhead < c.StubSize() {
			return // no package: the stub would be longer than it
		}
		pkg, err := c.Encrypt(chunk, testKey(string(chunk)))
		if err != nil {
			t.Fatal(err)
		}
		// Separate buffers, so an in-place revert that ran past the
		// trimmed package would show in the stub's bytes.
		trimmed := append([]byte(nil), pkg.Trimmed...)
		stub := append([]byte(nil), pkg.Stub...)
		if tamper {
			if i := int(flip) % (len(trimmed) + len(stub)); i < len(trimmed) {
				trimmed[i] ^= 0x01
			} else {
				stub[i-len(trimmed)] ^= 0x01
			}
		}
		before := append(append([]byte(nil), trimmed...), stub...)

		want, wantErr := c.Decrypt(Package{Trimmed: trimmed, Stub: stub})
		if !bytes.Equal(append(append([]byte(nil), trimmed...), stub...), before) {
			t.Fatal("Decrypt changed its input")
		}
		got, gotErr := c.Open(trimmed[:0], Package{Trimmed: trimmed, Stub: stub})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("Decrypt error %v, Open in place error %v", wantErr, gotErr)
		}
		if !bytes.Equal(stub, before[len(trimmed):]) {
			t.Fatal("Open in place changed the stub")
		}
		if wantErr != nil {
			if !tamper {
				t.Fatalf("untampered package failed to open: %v", wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatal("Open in place and Decrypt disagree")
		}
		if !tamper && !bytes.Equal(want, chunk) {
			t.Fatal("round trip mismatch")
		}
	})
}
