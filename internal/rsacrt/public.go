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
// ADX, N is odd and exactly 1024 bits, and e fits a word; on a CPU that
// also has AVX-512 IFMA it prepares it for ammX8w too, which ExpBatch
// and MulBatch use for every eight elements they hold, or fewer down to
// minLanes. Every other key, and a Public written as a struct literal,
// runs math/big. A Public is safe for concurrent use.
type Public struct {
	N, E *big.Int
	mont *modulus // nil: math/big
}

// NewPublic prepares (n, e) for Exp, Mul, ExpBatch and MulBatch.
func NewPublic(n, e *big.Int) *Public {
	p := &Public{N: n, E: e}
	if useKernel && n.Bit(0) == 1 && n.BitLen() == 1024 && e.Sign() > 0 && e.IsUint64() {
		p.mont = newModulus(n, e.Uint64())
	}
	return p
}

// minLanes is the fewest elements an ammX8w call is given: one call
// costs about as much as montMul1024 on two elements, so a group of
// eight with fewer live lanes runs element by element.
const minLanes = 2

// ExpBatch returns x^e mod N for every x >= 0 in xs.
func (p *Public) ExpBatch(xs []*big.Int) []*big.Int {
	return p.batch(len(xs), func(i int) *big.Int { return p.Exp(xs[i]) },
		func(w *wideScratch, lo, hi int) {
			p.mont.setLanes(&w.x, &w.words, xs[lo:hi])
			p.mont.expLanes(w)
		})
}

// MulBatch returns xs[i]·ys[i] mod N for every i; xs and ys have the same
// length and hold no negative values.
func (p *Public) MulBatch(xs, ys []*big.Int) []*big.Int {
	if len(xs) != len(ys) {
		panic("rsacrt: MulBatch of unequal lengths")
	}
	return p.batch(len(xs), func(i int) *big.Int { return p.Mul(xs[i], ys[i]) },
		func(w *wideScratch, lo, hi int) {
			p.mont.setLanes(&w.x, &w.words, xs[lo:hi])
			p.mont.setLanes(&w.y, &w.words, ys[lo:hi])
			p.mont.mulLanes(w)
		})
}

// batch returns n results in groups of eight: a group of at least
// minLanes runs on ammX8w, through kernel, which leaves its results in
// w.x below 2N, and packX8w's one subtraction per lane reduces them; any
// other group, and every group without the kernel, runs one element at a
// time.
func (p *Public) batch(n int, one func(i int) *big.Int, kernel func(w *wideScratch, lo, hi int)) []*big.Int {
	out := make([]*big.Int, n)
	var w *wideScratch
	for lo := 0; lo < n; lo += lanes {
		hi := min(lo+lanes, n)
		if p.mont == nil || p.mont.x8 == nil || hi-lo < minLanes {
			for i := lo; i < hi; i++ {
				out[i] = one(i)
			}
			continue
		}
		if w == nil {
			w = wideScratches.get()
			defer wideScratches.put(w)
		}
		kernel(w, lo, hi)
		packX8w(&w.words, &w.x, &p.mont.x8.m)
		copy(out[lo:hi], w.words.ints(hi-lo))
	}
	return out
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

// modulus is a public modulus prepared for montMul1024, and for ammX8w
// where the CPU has it.
type modulus struct {
	n  *big.Int
	m  wide   // N in limbs
	k0 uint64 // -N⁻¹ mod 2⁶⁴
	rr wide   // R² mod N, R = 2¹⁰²⁴
	e  uint64
	x8 *laneModulus // nil unless ammX8w applies
}

func newModulus(n *big.Int, e uint64) *modulus {
	md := &modulus{n: n, e: e}
	setLimbs(md.m[:], n)
	md.k0 = negInv(md.m[0])
	rr := new(big.Int).Lsh(big.NewInt(1), 2*64*wideLimbs)
	setLimbs(md.rr[:], rr.Mod(rr, n))
	if useIFMA {
		md.x8 = newLaneModulus(n)
	}
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

// ammX8w, the public side's 8-lane kernel, is ammX8 widened to limbs1040
// limbs of 52 bits, R = 2¹⁰⁴⁰, with one modulus for all eight lanes:
// each lane holds one element of a batch. As 4N < R, a product of two
// values below 2N is again below 2N, so no subtraction is needed until
// the end.
const limbs1040 = 20

// wideVec holds eight residues mod N, wideVec[i][l] being limb i of lane l.
type wideVec = [limbs1040][lanes]uint64

// wideWords holds eight values below 2¹⁰²⁴ in 64-bit words, word j of
// lane l at [j][l], and a zero row; spreadX8w and packX8w convert it to
// and from a wideVec.
type wideWords [wideLimbs + 1][lanes]uint64

// set writes xs, at most eight, into the lanes; the lanes past len(xs)
// hold 0. Each x must be below 2¹⁰²⁴.
func (w *wideWords) set(xs []*big.Int) {
	*w = wideWords{}
	for l, x := range xs {
		for i, b := range x.Bits() {
			if bits.UintSize == 64 {
				w[i][l] = uint64(b)
			} else {
				w[i/2][l] |= uint64(b) << (32 * (i % 2))
			}
		}
	}
}

// ints returns lanes 0 to n-1 as big.Ints allocated together.
func (w *wideWords) ints(n int) []*big.Int {
	type buf struct {
		z big.Int
		w [1024 / bits.UintSize]big.Word
	}
	bufs := make([]buf, n)
	out := make([]*big.Int, n)
	for l := range out {
		b := &bufs[l]
		for i := range b.w {
			b.w[i] = big.Word(w[i*bits.UintSize/64][l] >> (i * bits.UintSize % 64))
		}
		out[l] = b.z.SetBits(b.w[:])
	}
	return out
}

// laneModulus is a public modulus prepared for ammX8w.
type laneModulus struct {
	m   [limbs1040]uint64 // N in limbs, the same for every lane
	k0  uint64            // -N⁻¹ mod 2⁵²
	rr  wideVec           // R² mod N in every lane
	one wideVec           // 1 in every lane
}

// wideScratch is ammX8w's working memory: x, the inputs and then the
// results; y, the second factor or x·R; the accumulator; and the inputs
// and results in words.
type wideScratch struct {
	x, y, acc wideVec
	words     wideWords
}

// wideScratches keeps wideScratch between batches: the client calls
// ExpBatch and MulBatch for every eight elements of a finalize part and
// every step of the batch inversion, and a fresh 5 KB scratch for each
// was a measurable share of their cost.
var wideScratches scratchPool[wideScratch]

func newLaneModulus(n *big.Int) *laneModulus {
	ln := aligned64[laneModulus]()
	rr := new(big.Int).Lsh(big.NewInt(1), 2*52*limbs1040)
	rr.Mod(rr, n)
	var w wideWords
	w.set([]*big.Int{rr, rr, rr, rr, rr, rr, rr, rr})
	spreadX8w(&ln.rr, &w)
	var nv wideVec
	w.set([]*big.Int{n})
	spreadX8w(&nv, &w)
	for i := range ln.m {
		ln.m[i] = nv[i][0]
	}
	ln.k0 = negInv(ln.m[0]) & mask52
	ln.one[0] = [lanes]uint64{1, 1, 1, 1, 1, 1, 1, 1}
	return ln
}

// setLanes writes xs, at most eight, into the lanes of dst through
// words, reducing any x >= N first; the lanes past len(xs) hold 0.
func (md *modulus) setLanes(dst *wideVec, words *wideWords, xs []*big.Int) {
	var reduced [lanes]*big.Int
	for l, x := range xs {
		if x.Sign() < 0 || x.Cmp(md.n) >= 0 {
			x = new(big.Int).Mod(x, md.n)
		}
		reduced[l] = x
	}
	words.set(reduced[:len(xs)])
	spreadX8w(dst, words)
}

// expLanes replaces every lane of w.x with x^e mod N, or that plus N:
// exp's square and multiply, eight lanes at a time.
func (md *modulus) expLanes(w *wideScratch) {
	ln := md.x8
	ammX8w(&w.y, &w.x, &ln.rr, &ln.m, ln.k0) // x·R mod N
	w.acc = w.y
	for i := bits.Len64(md.e) - 2; i >= 0; i-- {
		ammX8w(&w.acc, &w.acc, &w.acc, &ln.m, ln.k0)
		if md.e>>uint(i)&1 == 1 {
			ammX8w(&w.acc, &w.acc, &w.y, &ln.m, ln.k0)
		}
	}
	// Leaving Montgomery form gives a value ≤ N.
	ammX8w(&w.x, &w.acc, &ln.one, &ln.m, ln.k0)
}

// mulLanes replaces every lane of w.x with x·y mod N, or that plus N:
// x·y·R⁻¹, then times R², which is below N + 2N²/R.
func (md *modulus) mulLanes(w *wideScratch) {
	ln := md.x8
	ammX8w(&w.x, &w.x, &w.y, &ln.m, ln.k0)
	ammX8w(&w.x, &w.x, &ln.rr, &ln.m, ln.k0)
}
