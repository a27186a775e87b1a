// Package rsacrt computes the RSA private-key operation x^d mod N in
// CRT form. The key manager's OPRF evaluation (internal/oprf) and the
// key-regression wind (internal/keyreg) are both this one operation.
package rsacrt

import (
	"crypto/rsa"
	"math/big"
)

// Exp returns x^d mod N for 0 <= x < N: two half-size exponentiations
// recombined with Garner's formula, ~3-4x faster than the full-width
// exponentiation, when priv carries the standard two-prime precomputed
// values (rsa.GenerateKey and the x509 parsers always populate them).
// The full-width path is a safety net for exotic keys.
//
// math/big is not constant-time. Both callers are safe with that: the
// key manager's input is blinded by the client, and an owner winds its
// own state on its own machine.
func Exp(priv *rsa.PrivateKey, x *big.Int) *big.Int {
	pre := &priv.Precomputed
	if len(priv.Primes) != 2 || pre.Dp == nil || pre.Dq == nil || pre.Qinv == nil {
		return new(big.Int).Exp(x, priv.D, priv.N)
	}
	p, q := priv.Primes[0], priv.Primes[1]
	// m1 = x^(d mod p-1) mod p, m2 = x^(d mod q-1) mod q.
	m1 := new(big.Int).Exp(x, pre.Dp, p)
	m2 := new(big.Int).Exp(x, pre.Dq, q)
	// Garner: h = qInv * (m1 - m2) mod p; y = m2 + h*q.
	h := new(big.Int).Sub(m1, m2)
	h.Mul(h, pre.Qinv)
	h.Mod(h, p) // Euclidean Mod: in [0, p) even when m1 < m2
	y := h.Mul(h, q)
	return y.Add(y, m2)
}
