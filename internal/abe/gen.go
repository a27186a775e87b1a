//go:build ignore

// gen.go writes x25519_amd64.s, the package's X25519 kernel. Run it with
// `go generate ./internal/abe`; TestGeneratedAssemblyIsCurrent fails
// when the committed file and this generator disagree.
//
// ladderX8 runs eight RFC 7748 Montgomery ladders that share one scalar,
// one ladder per 64-bit lane of a zmm register, on AVX-512 IFMA. A field
// element is five limbs in radix 2⁵²; limb i of all eight lanes is one
// zmm, so an element is five registers or five 64-byte rows in memory.
//
// Every element that feeds a multiplication is tight: limbs 0-3 below
// 2⁵², limb 4 below 2⁴⁸. VPMADD52LUQ and VPMADD52HUQ read only the low
// 52 bits of their sources, which is exact for tight limbs.
//
// Multiplication. Twenty-five limb products, each split by IFMA into a
// low and a high 52-bit half, build ten columns c0-c9 of 2⁵² weight;
// a column collects at most nine halves, so it stays below 2⁵⁶.
// Squaring builds the ten cross products once, doubles those columns
// and adds the five diagonal products. Reduction:
//
//	c(k+5) carries its bits above 52 into c(k+6), k = 0..3
//	c(k) += lo52(608·c(k+5)); c(k+1) += hi52(608·c(k+5))   2²⁶⁰ ≡ 608
//	c4 += (19·c9) << 5                                    c9 < 2⁴⁵
//
// then every result goes through tighten: the bits of limb 4 from 47 up
// are 2²⁵⁵-multiples, so they fold into limb 0 times 19, and one carry
// chain from limb 0 to limb 4 leaves limbs 0-3 below 2⁵² and limb 4
// below 2⁴⁷ plus a small carry. Sums and differences are tightened the
// same way; a difference a - b is formed as a + 16p - b with 16p in the
// limbs {2⁵³-304, 2⁵³-2, 2⁵³-2, 2⁵³-2, 2⁵¹-2}, each of which is above
// the matching limb of any tight b, so no limb goes negative.
//
// Constant time. All lanes share the scalar, so they share every swap:
// each ladder step reads the scalar bit its public index names, forms
// one swap mask in an opmask register, and selects with VPBLENDMQ. The
// inversion z^(p-2) is a fixed chain of 254 squarings and 11
// multiplications. No branch and no address depends on the scalar or
// on any lane's value. The final reduction to the canonical encoding is
// branch-free Go (freeze in x25519.go).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
)

// The scratch layout ladderX8 works in; it must match x25519.go's
// ladder type. The clamped scalar's four words come first, then the
// fourteen field-element slots below, of five 64-byte rows each.
const (
	feBytes  = 5 * 64
	slotBase = 64
)

// Field-element slots. x1 holds u on entry and the result on return.
const (
	sX1 = iota
	sX2
	sZ2
	sX3
	sZ3
	sA
	sB
	sC
	sD
	sAA
	sBB
	sDA
	sCB
	sT
)

// Registers. a and b are the operands of a product, acc its ten
// columns; the result is acc[0:5]. tmp and tmp2 are scratch.
var (
	a   = [5]string{"Z0", "Z1", "Z2", "Z3", "Z4"}
	b   = [5]string{"Z5", "Z6", "Z7", "Z8", "Z9"}
	acc = [10]string{"Z10", "Z11", "Z12", "Z13", "Z14", "Z15", "Z16", "Z17", "Z18", "Z19"}
	res = [5]string{"Z10", "Z11", "Z12", "Z13", "Z14"}
)

const (
	tmp     = "Z20"
	tmp2    = "Z21"
	mask52  = "Z22"
	mask47  = "Z23"
	c608    = "Z24"
	c19     = "Z25"
	cA24    = "Z26"
	p16lo   = "Z27" // 2⁵³ - 304
	p16mid  = "Z28" // 2⁵³ - 2
	p16top  = "Z29" // 2⁵¹ - 2
	ptr     = "DI"
	counter = "CX"
)

// p16 names the register holding limb k of 16p.
func p16(k int) string {
	switch k {
	case 0:
		return p16lo
	case 4:
		return p16top
	}
	return p16mid
}

type emitter struct{ bytes.Buffer }

func (e *emitter) op(format string, args ...any) {
	fmt.Fprintf(e, "\t"+format+"\n", args...)
}

func (e *emitter) comment(s string) {
	fmt.Fprintf(e, "\n\t// %s\n", s)
}

// mem names limb k of slot s.
func mem(s, k int) string {
	return fmt.Sprintf("%d(%s)", slotBase+s*feBytes+64*k, ptr)
}

func (e *emitter) load(r [5]string, s int) {
	for k := range r {
		e.op("VMOVDQU64 %s, %s", mem(s, k), r[k])
	}
}

func (e *emitter) store(s int, r [5]string) {
	for k := range r {
		e.op("VMOVDQU64 %s, %s", r[k], mem(s, k))
	}
}

func (e *emitter) move(dst, src [5]string) {
	for k := range dst {
		e.op("VMOVDQA64 %s, %s", src[k], dst[k])
	}
}

// tighten takes r, whose limbs are below 2⁶³, to a tight element of the
// same value mod p: fold limb 4's bits from 47 up into limb 0 times 19,
// then carry limb 0 through limb 4.
func (e *emitter) tighten(r [5]string) {
	e.op("VPSRLQ $47, %s, %s", r[4], tmp)
	e.op("VPANDQ %s, %s, %s", mask47, r[4], r[4])
	e.op("VPMADD52LUQ %s, %s, %s", c19, tmp, r[0])
	for k := 0; k < 4; k++ {
		e.op("VPSRLQ $52, %s, %s", r[k], tmp)
		e.op("VPANDQ %s, %s, %s", mask52, r[k], r[k])
		e.op("VPADDQ %s, %s, %s", tmp, r[k+1], r[k+1])
	}
}

// add sets dst = x + y, tightened. dst may be x or y.
func (e *emitter) add(dst, x, y [5]string) {
	for k := range dst {
		e.op("VPADDQ %s, %s, %s", y[k], x[k], dst[k])
	}
	e.tighten(dst)
}

// sub sets dst = x + 16p - y, tightened. dst may be x or y.
func (e *emitter) sub(dst, x, y [5]string) {
	for k := range dst {
		e.op("VPADDQ %s, %s, %s", p16(k), x[k], tmp)
		e.op("VPSUBQ %s, %s, %s", y[k], tmp, dst[k])
	}
	e.tighten(dst)
}

func (e *emitter) clearAcc() {
	for _, r := range acc {
		e.op("VPXORQ %s, %s, %s", r, r, r)
	}
}

// madd adds x·y into columns k and k+1.
func (e *emitter) madd(x, y string, k int) {
	e.op("VPMADD52LUQ %s, %s, %s", x, y, acc[k])
	e.op("VPMADD52HUQ %s, %s, %s", x, y, acc[k+1])
}

// reduceWide folds columns 5-9 into 0-4 and tightens them, leaving the
// product in res.
func (e *emitter) reduceWide() {
	for k := 5; k < 9; k++ {
		e.op("VPSRLQ $52, %s, %s", acc[k], tmp)
		e.op("VPADDQ %s, %s, %s", tmp, acc[k+1], acc[k+1])
	}
	for k := 0; k < 4; k++ {
		e.op("VPMADD52LUQ %s, %s, %s", c608, acc[k+5], acc[k])
		e.op("VPMADD52HUQ %s, %s, %s", c608, acc[k+5], acc[k+1])
	}
	e.op("VPXORQ %s, %s, %s", tmp, tmp, tmp)
	e.op("VPMADD52LUQ %s, %s, %s", c19, acc[9], tmp)
	e.op("VPSLLQ $5, %s, %s", tmp, tmp)
	e.op("VPADDQ %s, %s, %s", tmp, acc[4], acc[4])
	e.tighten(res)
}

// mul sets res = a·b for tight a and b.
func (e *emitter) mul() {
	e.clearAcc()
	for j := 0; j < 5; j++ {
		for i := 0; i < 5; i++ {
			e.madd(a[i], b[j], i+j)
		}
	}
	e.reduceWide()
}

// sqr sets res = a² for a tight a.
func (e *emitter) sqr() {
	e.clearAcc()
	for d := 1; d < 5; d++ {
		for i := 0; i+d < 5; i++ {
			e.madd(a[i], a[i+d], 2*i+d)
		}
	}
	for k := 1; k < 9; k++ {
		e.op("VPADDQ %s, %s, %s", acc[k], acc[k], acc[k])
	}
	for i := 0; i < 5; i++ {
		e.madd(a[i], a[i], 2*i)
	}
	e.reduceWide()
}

// mulSlots sets slot dst = slot x · slot y.
func (e *emitter) mulSlots(dst, x, y int) {
	e.load(a, x)
	e.load(b, y)
	e.mul()
	e.store(dst, res)
}

// sqrSlots sets slot dst = slot x squared n times, the running value in
// registers; n > 1 runs a loop on counter.
func (e *emitter) sqrSlots(dst, x, n int, label string) {
	e.load(a, x)
	if n > 1 {
		e.op("MOVQ $%d, %s", n, counter)
		e.WriteString(label + ":\n")
	}
	e.sqr()
	if n > 1 {
		e.move(a, res)
		e.op("DECQ %s", counter)
		e.op("JNZ %s", label)
	}
	e.store(dst, res)
}

func (e *emitter) constant(r string, v uint64) {
	e.op("MOVQ $%#x, AX", v)
	e.op("VPBROADCASTQ AX, %s", r)
}

// cswap swaps slots s2 and s3 in every lane when K1 is set.
func (e *emitter) cswap(s2, s3 int) {
	for k := 0; k < 5; k++ {
		e.op("VMOVDQU64 %s, %s", mem(s2, k), tmp)
		e.op("VMOVDQU64 %s, %s", mem(s3, k), tmp2)
		e.op("VPBLENDMQ %s, %s, K1, %s", tmp2, tmp, a[0])
		e.op("VPBLENDMQ %s, %s, K1, %s", tmp, tmp2, a[1])
		e.op("VMOVDQU64 %s, %s", a[0], mem(s2, k))
		e.op("VMOVDQU64 %s, %s", a[1], mem(s3, k))
	}
}

func (e *emitter) ladder() {
	e.WriteString("// func ladderX8(l *ladder)\n")
	e.WriteString("TEXT ·ladderX8(SB), NOSPLIT, $0-8\n")
	e.op("MOVQ l+0(FP), %s", ptr)
	e.constant(mask52, 1<<52-1)
	e.constant(mask47, 1<<47-1)
	e.constant(c608, 608)
	e.constant(c19, 19)
	e.constant(cA24, 121665)
	e.constant(p16lo, 1<<53-304)
	e.constant(p16mid, 1<<53-2)
	e.constant(p16top, 1<<51-2)

	e.comment("x₂ = 1, z₂ = 0, x₃ = u, z₃ = 1.")
	one := [5]string{tmp, b[1], b[1], b[1], b[1]}
	zero := [5]string{b[1], b[1], b[1], b[1], b[1]}
	e.constant(tmp, 1)
	e.op("VPXORQ %s, %s, %s", b[1], b[1], b[1])
	e.store(sX2, one)
	e.store(sZ2, zero)
	e.store(sZ3, one)
	e.load(a, sX1)
	e.store(sX3, a)

	e.comment("Bit t of the scalar, t = 254 down to 0; DX is the pending swap.")
	e.op("MOVQ $254, %s", counter)
	e.op("XORQ DX, DX")
	e.WriteString("step:\n")
	e.op("MOVQ %s, AX", counter)
	e.op("SHRQ $6, AX")
	e.op("MOVQ (%s)(AX*8), BX", ptr)
	e.op("SHRQ CX, BX")
	e.op("ANDQ $1, BX")
	e.op("XORQ BX, DX")
	e.op("NEGQ DX")
	e.op("KMOVW DX, K1")
	e.op("MOVQ BX, DX")

	e.cswap(sX2, sX3)
	e.cswap(sZ2, sZ3)

	e.comment("A = x₂ + z₂, B = x₂ - z₂, C = x₃ + z₃, D = x₃ - z₃.")
	e.load(a, sX2)
	e.load(b, sZ2)
	e.add(res, a, b)
	e.store(sA, res)
	e.sub(res, a, b)
	e.store(sB, res)
	e.load(a, sX3)
	e.load(b, sZ3)
	e.add(res, a, b)
	e.store(sC, res)
	e.sub(res, a, b)
	e.store(sD, res)

	e.comment("AA = A², BB = B², DA = D·A, CB = C·B.")
	e.sqrSlots(sAA, sA, 1, "")
	e.sqrSlots(sBB, sB, 1, "")
	e.mulSlots(sDA, sD, sA)
	e.mulSlots(sCB, sC, sB)

	e.comment("x₃ = (DA + CB)², z₃ = x₁·(DA - CB)².")
	e.load(a, sDA)
	e.load(b, sCB)
	e.add(a, a, b)
	e.sqr()
	e.store(sX3, res)
	e.load(a, sDA)
	e.sub(a, a, b)
	e.sqr()
	e.move(b, res)
	e.load(a, sX1)
	e.mul()
	e.store(sZ3, res)

	e.comment("x₂ = AA·BB, z₂ = E·(AA + a24·E) with E = AA - BB.")
	e.mulSlots(sX2, sAA, sBB)
	e.load(a, sAA)
	e.load(b, sBB)
	e.sub(b, a, b)
	for k := 0; k < 4; k++ {
		e.op("VPMADD52LUQ %s, %s, %s", cA24, b[k], a[k])
		e.op("VPMADD52HUQ %s, %s, %s", cA24, b[k], a[k+1])
	}
	e.op("VPMADD52LUQ %s, %s, %s", cA24, b[4], a[4])
	e.op("VPXORQ %s, %s, %s", tmp2, tmp2, tmp2)
	e.op("VPMADD52HUQ %s, %s, %s", cA24, b[4], tmp2)
	e.op("VPMADD52LUQ %s, %s, %s", c608, tmp2, a[0])
	e.tighten(a)
	e.mul()
	e.store(sZ2, res)

	e.op("DECQ %s", counter)
	e.op("JGE step")

	e.comment("Undo the pending swap.")
	e.op("NEGQ DX")
	e.op("KMOVW DX, K1")
	e.cswap(sX2, sX3)
	e.cswap(sZ2, sZ3)

	e.inverse()

	e.comment("x₁ = x₂ / z₂.")
	e.mulSlots(sX1, sX2, sT)
	e.op("VZEROUPPER")
	e.op("RET")
}

// inverse sets slot sT = z₂^(p-2) = z₂⁻¹, p - 2 = 2²⁵⁵ - 21, by the
// usual chain of 254 squarings and 11 multiplications.
func (e *emitter) inverse() {
	const z, z2, z9, z11, t, z10, z20 = sZ2, sA, sB, sC, sT, sD, sAA
	e.comment("z₂⁻¹ = z₂^(2²⁵⁵ - 21).")
	e.sqrSlots(z2, z, 1, "")
	e.sqrSlots(t, z2, 2, "inv1")
	e.mulSlots(z9, t, z)
	e.mulSlots(z11, z9, z2)
	e.sqrSlots(t, z11, 1, "")
	e.mulSlots(z9, t, z9) // z9 now holds 2⁵ - 1
	e.sqrSlots(t, z9, 5, "inv2")
	e.mulSlots(z10, t, z9) // 2¹⁰ - 1
	e.sqrSlots(t, z10, 10, "inv3")
	e.mulSlots(z20, t, z10) // 2²⁰ - 1
	e.sqrSlots(t, z20, 20, "inv4")
	e.mulSlots(t, t, z20) // 2⁴⁰ - 1
	e.sqrSlots(t, t, 10, "inv5")
	e.mulSlots(z2, t, z10) // z2 now holds 2⁵⁰ - 1
	e.sqrSlots(t, z2, 50, "inv6")
	e.mulSlots(z20, t, z2) // z20 now holds 2¹⁰⁰ - 1
	e.sqrSlots(t, z20, 100, "inv7")
	e.mulSlots(t, t, z20) // 2²⁰⁰ - 1
	e.sqrSlots(t, t, 50, "inv8")
	e.mulSlots(t, t, z2) // 2²⁵⁰ - 1
	e.sqrSlots(t, t, 5, "inv9")
	e.mulSlots(t, t, z11) // 2²⁵⁵ - 21
}

func generate() []byte {
	var e emitter
	e.WriteString("// Code generated by gen.go; DO NOT EDIT.\n\n")
	e.WriteString("#include \"textflag.h\"\n\n")
	e.ladder()
	return e.Bytes()
}

func main() {
	out := flag.String("out", "x25519_amd64.s", "file to write")
	flag.Parse()
	if err := os.WriteFile(*out, generate(), 0o644); err != nil {
		log.Fatal(err)
	}
}
