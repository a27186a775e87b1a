package abe

import "testing"

// The seed corpora are the committed format fixtures: current-format
// blobs the fuzzer mutates from, and MODP-era blobs that sit just
// outside the format.

func FuzzUnmarshalCiphertext(f *testing.F) {
	for _, fx := range fixtureCiphertexts {
		f.Add(readFixture(f, fx.file))
	}
	f.Add(readFixture(f, "modp_ciphertext.bin"))
	f.Add([]byte{0x00, 0x01})

	key, err := UnmarshalPrivateKey(readFixture(f, "accesskey.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := UnmarshalCiphertext(data)
		if err != nil {
			return
		}
		// Decryption of a decodable but corrupt ciphertext must fail
		// cleanly, never panic; only the genuine seeds may succeed.
		_, _ = Decrypt(key, decoded)
	})
}

func FuzzUnmarshalPrivateKey(f *testing.F) {
	f.Add(readFixture(f, "accesskey.bin"))
	f.Add(readFixture(f, "modp_accesskey.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = UnmarshalPrivateKey(data)
	})
}

func FuzzUnmarshalPublicKeys(f *testing.F) {
	f.Add(readFixture(f, "bundle.bin"))
	f.Add(readFixture(f, "modp_bundle.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = UnmarshalPublicKeys(data)
	})
}
