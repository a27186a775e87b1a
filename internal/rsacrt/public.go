package rsacrt

import (
	"math/big"
	"math/bits"
)

// Public is an RSA public key (N, e) for the client's public-exponent
// arithmetic: the OPRF's blinding and verification (internal/oprf) and
// key regression's unwind (internal/keyreg). It holds nothing secret.
//
// NewPublic prepares the key for montMul1024 when the CPU has BMI2 and
// ADX, N is odd and exactly 1024 bits, and e fits a word. Every other
// key, and a Public written as a struct literal, runs math/big. A Public
// is safe for concurrent use.
type Public struct {
	N, E *big.Int
	mont *modulus // nil: math/big
}

// NewPublic prepares (n, e) for Exp and Mul.
func NewPublic(n, e *big.Int) *Public {
	p := &Public{N: n, E: e}
	if useKernel && n.Bit(0) == 1 && n.BitLen() == 1024 && e.Sign() > 0 && e.IsUint64() {
		p.mont = newModulus(n, e.Uint64())
	}
	return p
}

// Exp returns x^e mod N for x >= 0. On the kernel the sequence of
// multiplications depends on e, which is public, and not on x.
func (p *Public) Exp(x *big.Int) *big.Int {
	if p.mont == nil {
		return new(big.Int).Exp(x, p.E, p.N)
	}
	return p.mont.exp(x)
}

// Mul returns x·y mod N for x, y >= 0.
func (p *Public) Mul(x, y *big.Int) *big.Int {
	if p.mont == nil {
		z := new(big.Int).Mul(x, y)
		return z.Mod(z, p.N)
	}
	return p.mont.mul(x, y)
}

// wideLimbs is the limb count of montMul1024's operands.
const wideLimbs = 16

// wide is a 1024-bit residue in little-endian 64-bit limbs.
type wide = [wideLimbs]uint64

// modulus is a public modulus prepared for montMul1024.
type modulus struct {
	n  *big.Int
	m  wide   // N in limbs
	k0 uint64 // -N⁻¹ mod 2⁶⁴
	rr wide   // R² mod N, R = 2¹⁰²⁴
	e  uint64
}

func newModulus(n *big.Int, e uint64) *modulus {
	md := &modulus{n: n, e: e}
	setLimbs(md.m[:], n)
	md.k0 = negInv(md.m[0])
	rr := new(big.Int).Lsh(big.NewInt(1), 2*64*wideLimbs)
	setLimbs(md.rr[:], rr.Mod(rr, n))
	return md
}

// limbs converts x to limbs. The kernel needs x < N; the rare x that is
// not (no caller in this module passes one) is reduced first, so both
// paths agree on every input.
func (md *modulus) limbs(dst *wide, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(md.n) >= 0 {
		x = new(big.Int).Mod(x, md.n)
	}
	setLimbs(dst[:], x)
}

// exp is left-to-right binary exponentiation in Montgomery form: a
// squaring per bit of e below the top one, and a multiplication by x·R
// for every set bit.
func (md *modulus) exp(x *big.Int) *big.Int {
	var xr, acc wide
	md.limbs(&xr, x)
	montMul1024(&xr, &xr, &md.rr, &md.m, md.k0) // x·R mod N
	acc = xr
	for i := bits.Len64(md.e) - 2; i >= 0; i-- {
		montMul1024(&acc, &acc, &acc, &md.m, md.k0)
		if md.e>>uint(i)&1 == 1 {
			montMul1024(&acc, &acc, &xr, &md.m, md.k0)
		}
	}
	one := wide{1}
	montMul1024(&acc, &acc, &one, &md.m, md.k0) // leave Montgomery form
	return limbsInt(acc[:])
}

// mul is two Montgomery multiplications: x·y·R⁻¹, then times R².
func (md *modulus) mul(x, y *big.Int) *big.Int {
	var a, b wide
	md.limbs(&a, x)
	md.limbs(&b, y)
	montMul1024(&a, &a, &b, &md.m, md.k0)
	montMul1024(&a, &a, &md.rr, &md.m, md.k0)
	return limbsInt(a[:])
}
