package rsacrt

import (
	"math/big"
	"sync"
	"unsafe"
)

// The 8-lane kernel (ammX8) works in radix 2⁵²: a residue is limbs52
// limbs of 52 bits, R = 2⁵²⁰, and a vec holds one residue per lane,
// vec[i][l] being limb i of lane l. ExpBatch gives each evaluation two
// adjacent lanes, its half mod p in the even lane and mod q in the odd.
const (
	limbs52 = 10
	lanes   = 8
	perVec  = lanes / 2 // evaluations per ammX8 call
	mask52  = 1<<52 - 1
)

type vec = [limbs52][lanes]uint64

// laneKey is a key's two CRT halves prepared for ammX8, p in the even
// lanes and q in the odd ones. Every field derives from a secret prime.
type laneKey struct {
	m   vec                   //reed:secret — p, q, p, q, ... in limbs
	k0  [lanes]uint64         //reed:secret — -m⁻¹ mod 2⁵² per lane
	one vec                   //reed:secret — R mod m, 1 in Montgomery form
	rr  vec                   //reed:secret — R² mod m
	d   [digits][lanes]uint64 //reed:secret — each lane's exponent digits, most significant first
}

// laneScratch is ExpBatch's working memory: the window table, the
// accumulator and the selected entry, and x, the inputs and then the
// results.
type laneScratch struct {
	table         [1 << window]vec
	acc, entry, x vec
}

// laneScratches keeps laneScratch between calls: the key manager runs
// an ExpBatch for every four evaluations, and a fresh 12 KB scratch for
// each was a measurable share of its cost.
var laneScratches scratchPool[laneScratch]

// aligned64 returns a new zeroed T at a 64-byte boundary, so every row
// of a vec in it is one cache line and no kernel load straddles two. T
// must hold no pointers.
func aligned64[T any]() *T {
	buf := make([]byte, unsafe.Sizeof(*new(T))+63)
	return (*T)(unsafe.Pointer(&buf[-uintptr(unsafe.Pointer(&buf[0]))&63]))
}

// scratchPool pools aligned64 scratches. A scratch holds residues of
// the exponents and moduli it worked with, so put zeroes it before
// pooling it: nothing a call computed outlives the call.
type scratchPool[T any] struct{ p sync.Pool }

func (s *scratchPool[T]) get() *T {
	if t, ok := s.p.Get().(*T); ok {
		return t
	}
	return aligned64[T]()
}

func (s *scratchPool[T]) put(t *T) {
	*t = *new(T)
	s.p.Put(t)
}

func newLaneKey(p, q, dp, dq *big.Int) *laneKey {
	k := aligned64[laneKey]()
	r := new(big.Int).Lsh(big.NewInt(1), 52*limbs52)
	rr := new(big.Int).Mul(r, r)
	for l := 0; l < lanes; l++ {
		m, d := p, dp
		if l%2 == 1 {
			m, d = q, dq
		}
		setLane(&k.m, l, m)
		k.k0[l] = negInv(k.m[0][l]|k.m[1][l]<<52) & mask52
		setLane(&k.one, l, new(big.Int).Mod(r, m))
		setLane(&k.rr, l, new(big.Int).Mod(rr, m))
		var db [64]byte
		d.FillBytes(db[:])
		for i := range k.d {
			k.d[i][l] = uint64(digit(&db, i))
		}
	}
	return k
}

// exp replaces each lane's w.x < m with x^d mod m: a fixed 4-bit window
// over all 512 exponent bits, as prime.exp, with every lane's table
// entry picked by selectX8.
func (k *laneKey) exp(w *laneScratch) {
	table, acc, entry, x := &w.table, &w.acc, &w.entry, &w.x
	table[0] = k.one
	ammX8(&table[1], x, &k.rr, &k.m, &k.k0) // x·R mod m
	for i := 2; i < len(table); i++ {
		ammX8(&table[i], &table[i-1], &table[1], &k.m, &k.k0)
	}

	selectX8(acc, table, &k.d[0])
	for i := 1; i < digits; i++ {
		for s := 0; s < window; s++ {
			ammX8(acc, acc, acc, &k.m, &k.k0)
		}
		selectX8(entry, table, &k.d[i])
		ammX8(acc, acc, entry, &k.m, &k.k0)
	}
	// Leaving Montgomery form gives acc·R⁻¹ mod m, but only ≤ m: one
	// subtraction per lane, kept when it does not borrow, makes it < m.
	*entry = vec{0: {1, 1, 1, 1, 1, 1, 1, 1}}
	ammX8(x, acc, entry, &k.m, &k.k0)
	for l := 0; l < lanes; l++ {
		var diff [limbs52]uint64
		var borrow uint64
		for i := range diff {
			v := x[i][l] - k.m[i][l] - borrow
			diff[i], borrow = v&mask52, v>>63
		}
		keep := borrow - 1 // all ones when x ≥ m
		for i := range diff {
			x[i][l] = x[i][l]&^keep | diff[i]&keep
		}
	}
}

// setLane writes v < 2⁵¹² into lane l of dst.
func setLane(dst *vec, l int, v *big.Int) {
	var w [9]uint64 // 512 bits and a zero limb for the top limb's shift
	setLimbs(w[:8], v)
	for i := 0; i < limbs52; i++ {
		j, s := 52*i/64, 52*i%64
		dst[i][l] = (w[j]>>s | w[j+1]<<(64-s)) & mask52
	}
}

// laneInt returns lane l of src, whose limbs are below 2⁵².
func laneInt(src *vec, l int) *big.Int {
	var w [9]uint64
	for i := 0; i < limbs52; i++ {
		j, s := 52*i/64, 52*i%64
		w[j] |= src[i][l] << s
		w[j+1] |= src[i][l] >> (64 - s)
	}
	return limbsInt(w[:8])
}
