package rsacrt

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"math/big"
	"testing"
)

// TestExpMatchesFullExponent checks Garner recombination, and the
// full-width path taken by a key stripped of its CRT values, against the
// textbook x^d mod N for many inputs, including the branch where
// m1 < m2.
func TestExpMatchesFullExponent(t *testing.T) {
	priv, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	stripped := &rsa.PrivateKey{PublicKey: priv.PublicKey, D: priv.D}
	for i := 0; i < 64; i++ {
		h := sha256.Sum256([]byte{byte(i)})
		x := new(big.Int).SetBytes(h[:])
		x.Exp(x, big.NewInt(5), priv.N) // spread over [0, N)
		want := new(big.Int).Exp(x, priv.D, priv.N)
		if got := Exp(priv, x); got.Cmp(want) != 0 {
			t.Fatalf("CRT result differs from full exponentiation for input %d", i)
		}
		if got := Exp(stripped, x); got.Cmp(want) != 0 {
			t.Fatalf("full-width fallback differs from full exponentiation for input %d", i)
		}
	}
}
