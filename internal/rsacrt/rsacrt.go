// Package rsacrt computes RSA's two operations for the paper's 1024-bit
// keys. Key computes the private-key operation x^d mod N in CRT form:
// the key manager's OPRF evaluation (internal/oprf) and the
// key-regression wind (internal/keyreg) are both this one operation.
// Public computes the public-key side, x^e mod N and x·y mod N: the
// client's OPRF blinding and verification and key regression's unwind.
//
// Each private CRT half is a 512-bit modular exponentiation, and that
// runs on a hand-written Montgomery kernel in montmul_amd64.s, emitted by
// gen.go: ammX8 when the CPU has AVX-512 IFMA, which runs eight halves,
// four evaluations, at once (lanes.go); otherwise montMul512 when it has
// BMI2 and ADX. The public side runs a batch's elements eight at a time
// on ammX8w when the CPU has AVX-512 IFMA, and single elements, or every
// element when it has only BMI2 and ADX, on montMul1024 (same file).
// Every other key, and every other CPU, takes math/big.
//
// Timing. The exponents d mod (p-1) and d mod (q-1) are the key
// manager's root secret; blinding the input hides the fingerprint from
// the key manager but does nothing for the exponent. math/big's windowed
// exponentiation lets each exponent digit choose which table entry is
// read, an address a cache-timing observer on the same machine can see.
// The kernel paths do not: they run a fixed 4-bit window over all 512
// bits, multiply on every window (digit 0 included), and read every
// table entry for every window, keeping the one each half needs with a
// mask, so their instruction stream and memory addresses are the same
// for every exponent. The lanes of one ammX8 call hold the elements of
// one ExpBatch, which the key manager fills from one request. The
// reductions x mod p and Garner's recombination stay in math/big; their
// operands are the blinded input and the result.
package rsacrt

//go:generate go run gen.go

import (
	"crypto/rsa"
	"crypto/subtle"
	"math/big"
	"math/bits"
)

// Key is an RSA private key prepared for Exp. It is as secret as the
// key it was built from.
type Key struct {
	priv  *rsa.PrivateKey
	crt   bool     // priv carries the two-prime CRT values
	lanes *laneKey // nil unless ammX8 applies
	p, q  *prime   // nil unless montMul512 applies and ammX8 does not
}

// New prepares priv for Exp. A kernel applies when priv carries the
// standard two-prime CRT values (rsa.GenerateKey and the x509 parsers
// always populate them) and both primes are exactly 512 bits: ammX8 when
// the CPU supports it, montMul512 when it supports only that.
func New(priv *rsa.PrivateKey) *Key {
	pre := &priv.Precomputed
	k := &Key{priv: priv, crt: len(priv.Primes) == 2 && pre.Dp != nil && pre.Dq != nil && pre.Qinv != nil}
	if !k.crt || priv.Primes[0].BitLen() != 512 || priv.Primes[1].BitLen() != 512 {
		return k
	}
	switch {
	case useIFMA:
		k.lanes = newLaneKey(priv.Primes[0], priv.Primes[1], pre.Dp, pre.Dq)
	case useKernel:
		k.p, k.q = newPrime(priv.Primes[0], pre.Dp), newPrime(priv.Primes[1], pre.Dq)
	}
	return k
}

// Exp returns x^d mod N for 0 <= x < N. It is ExpBatch of one.
func (k *Key) Exp(x *big.Int) *big.Int {
	return k.ExpBatch([]*big.Int{x})[0]
}

// ExpBatch returns x^d mod N for every 0 <= x < N in xs: per x, two
// half-size exponentiations recombined with Garner's formula, ~3-4x
// faster than the full-width exponentiation. On ammX8 one call runs the
// halves of perVec inputs together. The full-width path is a safety net
// for keys without CRT values.
func (k *Key) ExpBatch(xs []*big.Int) []*big.Int {
	priv := k.priv
	out := make([]*big.Int, len(xs))
	if !k.crt {
		for i, x := range xs {
			out[i] = new(big.Int).Exp(x, priv.D, priv.N)
		}
		return out
	}
	pre := &priv.Precomputed
	p, q := priv.Primes[0], priv.Primes[1]
	if k.lanes != nil {
		w := laneScratches.get()
		defer laneScratches.put(w)
		for lo := 0; lo < len(xs); lo += perVec {
			w.x = vec{} // lanes past the batch's end hold 0
			group := xs[lo:min(lo+perVec, len(xs))]
			for i, x := range group {
				setLane(&w.x, 2*i, new(big.Int).Mod(x, p))
				setLane(&w.x, 2*i+1, new(big.Int).Mod(x, q))
			}
			k.lanes.exp(w)
			for i := range group {
				out[lo+i] = k.garner(laneInt(&w.x, 2*i), laneInt(&w.x, 2*i+1))
			}
		}
		return out
	}
	for i, x := range xs {
		// m1 = x^(d mod p-1) mod p, m2 = x^(d mod q-1) mod q.
		var m1, m2 *big.Int
		if k.p != nil {
			m1, m2 = k.p.exp(x), k.q.exp(x)
		} else {
			m1, m2 = new(big.Int).Exp(x, pre.Dp, p), new(big.Int).Exp(x, pre.Dq, q)
		}
		out[i] = k.garner(m1, m2)
	}
	return out
}

// garner recombines m1 = x^d mod p and m2 = x^d mod q into x^d mod N:
// h = qInv * (m1 - m2) mod p; y = m2 + h*q.
func (k *Key) garner(m1, m2 *big.Int) *big.Int {
	h := new(big.Int).Sub(m1, m2)
	h.Mul(h, k.priv.Precomputed.Qinv)
	h.Mod(h, k.priv.Primes[0]) // Euclidean Mod: in [0, p) even when m1 < m2
	y := h.Mul(h, k.priv.Primes[1])
	return y.Add(y, m2)
}

// nat is a 512-bit residue in little-endian 64-bit limbs, the kernel's
// operand.
type nat = [8]uint64

// window is the exponent digit width; table holds x^0 ... x^15.
const (
	window = 4
	digits = 512 / window
)

// prime is one CRT half prepared for the kernel. Every field derives from
// a secret prime.
type prime struct {
	p   *big.Int //reed:secret — the prime
	m   nat      //reed:secret — p in limbs
	k0  uint64   //reed:secret — -p⁻¹ mod 2⁶⁴
	rr  nat      //reed:secret — R² mod p, R = 2⁵¹²
	one nat      //reed:secret — R mod p, 1 in Montgomery form
	d   [64]byte //reed:secret — d mod (p-1), big-endian
}

func newPrime(p, d *big.Int) *prime {
	h := &prime{p: p}
	setLimbs(h.m[:], p)
	h.k0 = negInv(h.m[0])
	r := new(big.Int).Lsh(big.NewInt(1), 512)
	setLimbs(h.one[:], new(big.Int).Mod(r, p))
	setLimbs(h.rr[:], r.Mod(r.Mul(r, r), p))
	d.FillBytes(h.d[:])
	return h
}

// exp returns x^d mod p for any x >= 0.
func (h *prime) exp(x *big.Int) *big.Int {
	var table [1 << window]nat
	table[0] = h.one
	var xm nat
	setLimbs(xm[:], new(big.Int).Mod(x, h.p))
	montMul512(&table[1], &xm, &h.rr, &h.m, h.k0) // x·R mod p
	for i := 2; i < len(table); i++ {
		montMul512(&table[i], &table[i-1], &table[1], &h.m, h.k0)
	}

	var acc, entry nat
	selectEntry(&acc, &table, digit(&h.d, 0))
	for i := 1; i < digits; i++ {
		for s := 0; s < window; s++ {
			montMul512(&acc, &acc, &acc, &h.m, h.k0)
		}
		selectEntry(&entry, &table, digit(&h.d, i))
		montMul512(&acc, &acc, &entry, &h.m, h.k0)
	}
	one := nat{1}
	montMul512(&acc, &acc, &one, &h.m, h.k0) // leave Montgomery form
	return limbsInt(acc[:])
}

// digit returns the i-th 4-bit digit of the big-endian exponent d, most
// significant first. The position is public; only the value is secret.
func digit(d *[64]byte, i int) int {
	return int(d[i/2]>>(4-window*(i%2))) & (1<<window - 1)
}

// selectEntry sets dst to table[idx] without letting idx choose which
// memory is read: every entry is loaded and masked.
func selectEntry(dst *nat, table *[1 << window]nat, idx int) {
	var r nat // a local, so the compiler keeps it in registers
	for i := range table {
		mask := -uint64(subtle.ConstantTimeEq(int32(i), int32(idx)))
		e := &table[i]
		r[0] |= e[0] & mask
		r[1] |= e[1] & mask
		r[2] |= e[2] & mask
		r[3] |= e[3] & mask
		r[4] |= e[4] & mask
		r[5] |= e[5] & mask
		r[6] |= e[6] & mask
		r[7] |= e[7] & mask
	}
	*dst = r
}

// negInv returns -m⁻¹ mod 2⁶⁴ for odd m, the Montgomery constant k0.
// Newton's iteration doubles the correct low bits of the inverse each
// step; m itself is correct to 3 bits.
func negInv(m uint64) uint64 {
	inv := m
	for i := 0; i < 5; i++ {
		inv *= 2 - m*inv
	}
	return -inv
}

// setLimbs writes v, which must be non-negative and fit, into dst as
// little-endian 64-bit limbs. It reads v's words directly: a word is one
// limb on 64-bit platforms and half of one on 32-bit ones.
func setLimbs(dst []uint64, v *big.Int) {
	clear(dst)
	for i, w := range v.Bits() {
		dst[i*bits.UintSize/64] |= uint64(w) << (i * bits.UintSize % 64)
	}
}

// limbsInt is the inverse of setLimbs.
func limbsInt(src []uint64) *big.Int {
	words := make([]big.Word, len(src)*64/bits.UintSize)
	for i := range words {
		words[i] = big.Word(src[i*bits.UintSize/64] >> (i * bits.UintSize % 64))
	}
	return new(big.Int).SetBits(words)
}
