//go:build ignore

// gen.go writes montmul_amd64.s, the package's Montgomery kernels.
// Run it with `go generate ./internal/rsacrt`;
// TestGeneratedAssemblyIsCurrent fails when the committed file and this
// generator disagree.
//
// montMul512 is one fully unrolled CIOS (coarsely integrated operand
// scanning) Montgomery multiplication for 8 × 64-bit limbs:
//
//	for i := 0; i < 8; i++ {
//		t += x[i] * y        // multiply row
//		q := t[0] * k0       // k0 = -m⁻¹ mod 2⁶⁴, so t + q*m ≡ 0 mod 2⁶⁴
//		t = (t + q*m) >> 64  // reduction row
//	}
//	if t >= m { t -= m }
//
// Each row is eight MULX with two independent carry chains, ADOX for the
// low halves and ADCX for the high halves. The accumulator is ten limbs
// (t < 2m < 2⁵¹³ between rows, and a row adds less than 2⁵⁷⁷), all in
// registers. The reduction row leaves t[0] zero, so instead of moving
// nine limbs down the generator renames them: the register that held
// t[0] becomes the next row's t[9]. The final subtraction is branch-free:
// t is stored, t - m computed in the registers, and the stored limbs
// restored with CMOV when it borrowed.
//
// montMul1024 is the same CIOS loop for 16 limbs, the public-key side's
// 1024-bit modulus. Its 18-limb accumulator does not fit in registers, so
// it lives in the frame, and each row streams through a two-register
// window: MULX, load t[j+1], ADOX the low half into t[j], ADCX the high
// half into t[j+1], store t[j]. A reduction row stores every limb one
// place lower, which is the shift by 2⁶⁴, so no pass moves the
// accumulator. The sixteen row pairs are one loop, not unrolled. The
// final subtraction writes t - m to z, then restores t limb by limb with
// CMOV when it borrowed.
//
// ammX8 is eight independent 520-bit Montgomery multiplications, one per
// 64-bit lane of a zmm register, on AVX-512 IFMA: Gueron and Krasnov's
// "almost Montgomery multiplication" in radix 2⁵². An operand is ten
// 52-bit limbs; limb i of all eight lanes is one zmm (vec[i] in Go), so
// each lane may carry its own modulus and k0. Per row:
//
//	t += x[i] * y        // VPMADD52LUQ into t[j], VPMADD52HUQ into t[j+1]
//	q := lo52(t[0] * k0) // k0 = -m⁻¹ mod 2⁵²
//	t += q * m           // t[0] is now 0 mod 2⁵²
//	t[1] += t[0] >> 52; t >>= 52
//
// The limbs are not normalised between rows: a 64-bit container takes
// the at most 40 52-bit halves a limb collects. IFMA reads only the low
// 52 bits of its sources, which is exact for q and for inputs with
// 52-bit limbs. The accumulator is eleven registers and the shift is a
// renaming, as in montMul512. There is no final subtraction: for inputs
// below 2m the result is below (4m² + Rm)/R < 2m because 4m < R = 2⁵²⁰,
// so outputs feed back as inputs; one carry pass at the end normalises
// every limb to 52 bits. y stays in ten registers and m is read from
// memory by the reduction row.
//
// ammX8w is the same loop widened to twenty limbs, R = 2¹⁰⁴⁰, for the
// public side's 1024-bit modulus, with one modulus for all eight lanes:
// m and k0 are read as broadcast operands, and as the 21-limb
// accumulator takes 21 registers, each row reads y from memory. One
// emitter, amm, writes both. spreadX8w and packX8w convert eight
// values between 64-bit words and ammX8w's limbs, packX8w after one
// branch-free subtraction per lane.
//
// selectX8 copies, per lane, the table entry that lane's exponent digit
// names. It loads all sixteen entries in full and keeps each lane's with
// a VPCMPEQQ mask on a register move, so neither its instructions nor
// its addresses depend on any digit.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
)

const limbs = 8

// acc holds the accumulator. DX is MULX's implicit multiplicand, AX and
// R14 take each product's low and high half, and R15 points at the row's
// multiplier (y, then m). BP and SP are left alone.
var acc = [limbs + 2]string{"BX", "CX", "SI", "DI", "R8", "R9", "R10", "R11", "R12", "R13"}

const (
	lo  = "AX"
	hi  = "R14"
	ptr = "R15"
)

type emitter struct{ bytes.Buffer }

func (e *emitter) op(format string, args ...any) {
	fmt.Fprintf(e, "\t"+format+"\n", args...)
}

// t names accumulator limb k during row i.
func t(i, k int) string { return acc[(i+k)%len(acc)] }

// row adds DX * src into the accumulator with both carry chains and
// folds the two outgoing carries into t[8] and t[9].
func (e *emitter) row(i int, src string) {
	e.op("MOVQ %s, %s", src, ptr)
	e.op("XORQ %s, %s", lo, lo) // clears CF and OF
	for j := 0; j < limbs; j++ {
		e.op("MULXQ %d(%s), %s, %s", 8*j, ptr, lo, hi)
		e.op("ADOXQ %s, %s", lo, t(i, j))
		e.op("ADCXQ %s, %s", hi, t(i, j+1))
	}
	e.op("MOVQ $0, %s", lo) // MOV leaves the flags alone
	e.op("ADOXQ %s, %s", lo, t(i, limbs))
	e.op("ADCXQ %s, %s", lo, t(i, limbs+1))
	e.op("ADOXQ %s, %s", lo, t(i, limbs+1))
}

// Registers of montMul1024: DX and AX as in montMul512, BX the high
// half, CX and SI the accumulator window, DI and R8 the pointers to y
// and m, R9 walks x, R10 holds k0 and R11 counts rows. The accumulator
// t[k] is at 8k(SP).
const (
	wideLimbs = 16
	wideHi    = "BX"
	yPtr      = "DI"
	mPtr      = "R8"
	xPtr      = "R9"
	k0Reg     = "R10"
	rowCount  = "R11"
)

var slide = [2]string{"CX", "SI"}

// wideRow adds DX * src into the frame accumulator t[0..17]. A reduction
// row (shift) stores t[j] at t[j-1], dropping t[0], which the row has
// made zero.
func (e *emitter) wideRow(src string, shift bool) {
	store := func(reg string, k int) {
		if shift {
			k--
		}
		if k >= 0 {
			e.op("MOVQ %s, %d(SP)", reg, 8*k)
		}
	}
	e.op("XORQ %s, %s", lo, lo) // clears CF and OF
	e.op("MOVQ 0(SP), %s", slide[0])
	for j := 0; j < wideLimbs; j++ {
		cur, next := slide[j%2], slide[(j+1)%2]
		e.op("MULXQ %d(%s), %s, %s", 8*j, src, lo, wideHi)
		e.op("MOVQ %d(SP), %s", 8*(j+1), next)
		e.op("ADOXQ %s, %s", lo, cur)
		e.op("ADCXQ %s, %s", wideHi, next)
		store(cur, j)
	}
	// t[16] is in slide[0]. t[17] is zero before a multiply row (t < 2m
	// between rows) and whatever the multiply row left before a reduction.
	top, carry := slide[0], slide[1]
	if shift {
		e.op("MOVQ %d(SP), %s", 8*(wideLimbs+1), carry)
	} else {
		e.op("MOVQ $0, %s", carry)
	}
	e.op("MOVQ $0, %s", lo) // MOV leaves the flags alone
	e.op("ADOXQ %s, %s", lo, top)
	e.op("ADCXQ %s, %s", lo, carry)
	e.op("ADOXQ %s, %s", lo, carry)
	store(top, wideLimbs)
	store(carry, wideLimbs+1)
}

func (e *emitter) montMul1024() {
	e.WriteString("// func montMul1024(z, x, y, m *[16]uint64, k0 uint64)\n")
	e.WriteString(fmt.Sprintf("TEXT ·montMul1024(SB), NOSPLIT, $%d-40\n", 8*(wideLimbs+2)))
	e.op("MOVQ x+8(FP), %s", xPtr)
	e.op("MOVQ y+16(FP), %s", yPtr)
	e.op("MOVQ m+24(FP), %s", mPtr)
	e.op("MOVQ k0+32(FP), %s", k0Reg)
	e.op("MOVQ $%d, %s", wideLimbs, rowCount)
	e.op("XORQ %s, %s", lo, lo)
	for k := 0; k <= wideLimbs; k++ {
		e.op("MOVQ %s, %d(SP)", lo, 8*k)
	}

	e.WriteString("\nrow:\n")
	e.WriteString("\t// t += x[i] * y\n")
	e.op("MOVQ 0(%s), DX", xPtr)
	e.wideRow(yPtr, false)
	e.WriteString("\n\t// t = (t + q*m) / 2⁶⁴\n")
	e.op("MOVQ 0(SP), DX")
	e.op("IMULQ %s, DX", k0Reg)
	e.wideRow(mPtr, true)
	e.op("ADDQ $8, %s", xPtr)
	e.op("DECQ %s", rowCount)
	e.op("JNZ row")

	// t < 2m: t[16] is 0 or 1.
	e.WriteString("\n\t// z = t - m, then z = t where that borrowed.\n")
	e.op("MOVQ z+0(FP), %s", yPtr)
	for k := 0; k < wideLimbs; k++ {
		e.op("MOVQ %d(SP), %s", 8*k, lo)
		if k == 0 {
			e.op("SUBQ 0(%s), %s", mPtr, lo)
		} else {
			e.op("SBBQ %d(%s), %s", 8*k, mPtr, lo)
		}
		e.op("MOVQ %s, %d(%s)", lo, 8*k, yPtr)
	}
	e.op("MOVQ %d(SP), %s", 8*wideLimbs, lo)
	e.op("SBBQ $0, %s", lo)
	for k := 0; k < wideLimbs; k++ {
		e.op("MOVQ %d(%s), %s", 8*k, yPtr, lo)
		e.op("CMOVQCS %d(SP), %s", 8*k, lo)
		e.op("MOVQ %s, %d(%s)", lo, 8*k, yPtr)
	}
	e.op("RET")
}

// Registers of the 8-lane kernels. Z10-Z15 are left alone: X15 is the
// Go ABI's zero register.
const (
	zPtr   = "DI"
	x8XPtr = "SI"
	x8YPtr = "AX"
	x8MPtr = "CX"
	zK0    = "Z27"
	zX     = "Z28"
	zQ     = "Z29"
	zTmp   = "Z30"
	zMask  = "Z31"
)

// zy holds ammX8's y, limb by limb, and selectX8's result.
var zy = [10]string{"Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9"}

// amm describes one almost-Montgomery kernel over eight lanes of n
// 52-bit limbs.
type amm struct {
	name, signature string
	n               int
	// acc is the n+1-limb accumulator.
	acc []string
	// y holds y in registers, loaded once; nil reads each limb of y from
	// memory in every row.
	y []string
	// shared: m and k0 are one modulus for every lane, n words and a
	// word, read as broadcast operands; otherwise each lane has its own,
	// a vec of limbs and *[8]uint64.
	shared bool
}

// ammX8 is the private side's kernel: the CRT halves of four
// evaluations, each lane with its own 512-bit prime. ammX8w is the
// public side's: eight elements under one 1024-bit modulus. Twenty limbs
// of y do not fit beside a 21-limb accumulator, so ammX8w reads y from
// memory; the modulus and k0 are broadcast from one copy.
var (
	ammX8 = amm{
		name:      "ammX8",
		signature: "z, x, y, m *[10][8]uint64, k0 *[8]uint64",
		n:         10,
		acc:       []string{"Z16", "Z17", "Z18", "Z19", "Z20", "Z21", "Z22", "Z23", "Z24", "Z25", "Z26"},
		y:         zy[:],
	}
	ammX8w = amm{
		name:      "ammX8w",
		signature: "z, x, y *[20][8]uint64, m *[20]uint64, k0 uint64",
		n:         20,
		acc: []string{"Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9",
			"Z16", "Z17", "Z18", "Z19", "Z20", "Z21", "Z22", "Z23", "Z24", "Z25", "Z26"},
		shared: true,
	}
)

// t names accumulator limb k during row i.
func (a amm) t(i, k int) string { return a.acc[(i+k)%len(a.acc)] }

// madd52 adds the 104-bit products src(j)·mul into the accumulator: the
// low 52 bits of each into t[j], the high 52 into t[j+1]. suffix marks a
// broadcast memory operand.
func (e *emitter) madd52(a amm, i int, src func(j int) string, suffix, mul string) {
	for j := 0; j < a.n; j++ {
		e.op("VPMADD52LUQ%s %s, %s, %s", suffix, src(j), mul, a.t(i, j))
		e.op("VPMADD52HUQ%s %s, %s, %s", suffix, src(j), mul, a.t(i, j+1))
	}
}

func (e *emitter) amm(a amm) {
	e.WriteString(fmt.Sprintf("// func %s(%s)\n", a.name, a.signature))
	e.WriteString(fmt.Sprintf("TEXT ·%s(SB), NOSPLIT, $0-40\n", a.name))
	e.op("MOVQ x+8(FP), %s", x8XPtr)
	e.op("MOVQ y+16(FP), %s", x8YPtr)
	e.op("MOVQ m+24(FP), %s", x8MPtr)
	y := func(j int) string { return fmt.Sprintf("%d(%s)", 64*j, x8YPtr) }
	m := func(j int) string { return fmt.Sprintf("%d(%s)", 64*j, x8MPtr) }
	mSuffix := ""
	if a.shared {
		m = func(j int) string { return fmt.Sprintf("%d(%s)", 8*j, x8MPtr) }
		mSuffix = ".BCST"
		e.op("VPBROADCASTQ k0+32(FP), %s", zK0)
	} else {
		e.op("MOVQ k0+32(FP), BX")
	}
	if a.y != nil {
		for j, r := range a.y {
			e.op("VMOVDQU64 %s, %s", y(j), r)
		}
		y = func(j int) string { return a.y[j] }
	}
	if !a.shared {
		e.op("VMOVDQU64 (BX), %s", zK0)
	}
	for _, r := range a.acc {
		e.op("VPXORQ %s, %s, %s", r, r, r)
	}
	for i := 0; i < a.n; i++ {
		e.WriteString(fmt.Sprintf("\n\t// Row %d: t += x[%d] * y; t = (t + q*m) / 2⁵².\n", i, i))
		e.op("VMOVDQU64 %d(%s), %s", 64*i, x8XPtr, zX)
		e.madd52(a, i, y, "", zX)
		e.op("VPXORQ %s, %s, %s", zQ, zQ, zQ)
		e.op("VPMADD52LUQ %s, %s, %s", zK0, a.t(i, 0), zQ)
		e.madd52(a, i, m, mSuffix, zQ)
		e.op("VPSRLQ $52, %s, %s", a.t(i, 0), zTmp)
		e.op("VPADDQ %s, %s, %s", zTmp, a.t(i, 1), a.t(i, 1))
		e.op("VPXORQ %s, %s, %s", a.t(i, 0), a.t(i, 0), a.t(i, 0)) // the next row's t[n]
	}

	// The result is t(n, 0..n-1) and below 2m, which leaves limb n-1
	// room for the last carry without overflowing 52 bits.
	e.WriteString("\n\t// Carry every limb into the next; z = t.\n")
	e.op("MOVQ z+0(FP), %s", zPtr)
	e.op("MOVQ $0xfffffffffffff, AX")
	e.op("VPBROADCASTQ AX, %s", zMask)
	for k := 0; k < a.n-1; k++ {
		e.op("VPSRLQ $52, %s, %s", a.t(a.n, k), zTmp)
		e.op("VPADDQ %s, %s, %s", zTmp, a.t(a.n, k+1), a.t(a.n, k+1))
		e.op("VPANDQ %s, %s, %s", zMask, a.t(a.n, k), a.t(a.n, k))
		e.op("VMOVDQU64 %s, %d(%s)", a.t(a.n, k), 64*k, zPtr)
	}
	e.op("VMOVDQU64 %s, %d(%s)", a.t(a.n, a.n-1), 64*(a.n-1), zPtr)
	e.op("VZEROUPPER")
	e.op("RET")
}

// selectX8 keeps the result in zy, the digits in zX and the entry
// number under comparison in zQ; zMask holds 1 in every lane.
func (e *emitter) selectX8() {
	const entries = 16
	e.WriteString("// func selectX8(dst *[10][8]uint64, table *[16][10][8]uint64, idx *[8]uint64)\n")
	e.WriteString("TEXT ·selectX8(SB), NOSPLIT, $0-24\n")
	e.op("MOVQ table+8(FP), %s", x8XPtr)
	e.op("MOVQ idx+16(FP), AX")
	e.op("VMOVDQU64 (AX), %s", zX)
	e.op("MOVQ $1, AX")
	e.op("VPBROADCASTQ AX, %s", zMask)
	e.op("VPXORQ %s, %s, %s", zQ, zQ, zQ)
	for _, r := range zy {
		e.op("VPXORQ %s, %s, %s", r, r, r)
	}
	e.op("MOVQ $%d, BX", entries)
	e.WriteString("\nentry:\n")
	e.op("VPCMPEQQ %s, %s, K1", zQ, zX)
	for l, r := range zy {
		e.op("VMOVDQU64 %d(%s), %s", 64*l, x8XPtr, zTmp)
		e.op("VMOVDQU64 %s, K1, %s", zTmp, r)
	}
	e.op("VPADDQ %s, %s, %s", zMask, zQ, zQ)
	e.op("ADDQ $%d, %s", 64*len(zy), x8XPtr)
	e.op("DECQ BX")
	e.op("JNZ entry")

	e.op("MOVQ dst+0(FP), %s", zPtr)
	for l, r := range zy {
		e.op("VMOVDQU64 %s, %d(%s)", r, 64*l, zPtr)
	}
	e.op("VZEROUPPER")
	e.op("RET")
}

// words1024 is the number of 64-bit words in a 1024-bit value.
// spreadX8w and packX8w keep the destination in DI, the source in SI and
// the modulus in CX; Z0 and Z1 hold a limb or word in the making, Z2 the
// borrow.
const words1024 = 16

// spreadX8w cuts eight 1024-bit values, src[j][l] word j of lane l, into
// ammX8w's twenty 52-bit limbs. Limb i is bits 52i to 52i+51: the top of
// word 52i/64 and, unless it fits there, the bottom of the next. src has
// a seventeenth row, zero, for limb 19's next word.
func (e *emitter) spreadX8w() {
	e.WriteString("// func spreadX8w(dst *[20][8]uint64, src *[17][8]uint64)\n")
	e.WriteString("TEXT ·spreadX8w(SB), NOSPLIT, $0-16\n")
	e.op("MOVQ dst+0(FP), %s", zPtr)
	e.op("MOVQ src+8(FP), %s", x8XPtr)
	e.op("MOVQ $0xfffffffffffff, AX")
	e.op("VPBROADCASTQ AX, %s", zMask)
	for i := 0; i < ammX8w.n; i++ {
		j, s := 52*i/64, 52*i%64
		e.op("VPSRLQ $%d, %d(%s), Z0", s, 64*j, x8XPtr)
		if s > 64-52 {
			e.op("VPSLLQ $%d, %d(%s), Z1", 64-s, 64*(j+1), x8XPtr)
			e.op("VPORQ Z1, Z0, Z0")
		}
		e.op("VPANDQ %s, Z0, Z0", zMask)
		e.op("VMOVDQU64 Z0, %d(%s)", 64*i, zPtr)
	}
	e.op("VZEROUPPER")
	e.op("RET")
}

// packX8w is spreadX8w's inverse for results below 2m: it first takes
// every lane of src to src mod m, computing src - m with a borrow chain
// and, in the lanes where that does not borrow, writing it over src, then
// joins the limbs into sixteen words. Word k is bits 64k to 64k+63:
// limb 64k/52 shifted down and the next one or two shifted up.
func (e *emitter) packX8w() {
	n := ammX8w.n
	e.WriteString("// func packX8w(dst *[17][8]uint64, src *[20][8]uint64, m *[20]uint64)\n")
	e.WriteString("TEXT ·packX8w(SB), NOSPLIT, $0-24\n")
	e.op("MOVQ dst+0(FP), %s", zPtr)
	e.op("MOVQ src+8(FP), %s", x8XPtr)
	e.op("MOVQ m+16(FP), %s", x8MPtr)
	e.op("MOVQ $0xfffffffffffff, AX")
	e.op("VPBROADCASTQ AX, %s", zMask)
	// diff leaves limb i of src - m in Z0 and its borrow in Z2.
	diff := func(i int) {
		e.op("VMOVDQU64 %d(%s), Z0", 64*i, x8XPtr)
		e.op("VPSUBQ.BCST %d(%s), Z0, Z0", 8*i, x8MPtr)
		e.op("VPSUBQ Z2, Z0, Z0")
		e.op("VPSRLQ $63, Z0, Z2")
	}
	e.WriteString("\n\t// K1 = the lanes where src - m does not borrow.\n")
	e.op("VPXORQ Z2, Z2, Z2")
	for i := 0; i < n; i++ {
		diff(i)
	}
	e.op("VPTESTNMQ Z2, Z2, K1")
	e.WriteString("\n\t// src = src - m in those lanes.\n")
	e.op("VPXORQ Z2, Z2, Z2")
	for i := 0; i < n; i++ {
		diff(i)
		e.op("VPANDQ %s, Z0, Z0", zMask)
		e.op("VMOVDQU64 Z0, K1, %d(%s)", 64*i, x8XPtr)
	}
	e.WriteString("\n\t// dst = the limbs joined into words.\n")
	for k := 0; k < words1024; k++ {
		i, o := 64*k/52, 64*k%52
		e.op("VPSRLQ $%d, %d(%s), Z0", o, 64*i, x8XPtr)
		for next := i + 1; 52*(next-i)-o < 64 && next < n; next++ {
			e.op("VPSLLQ $%d, %d(%s), Z1", 52*(next-i)-o, 64*next, x8XPtr)
			e.op("VPORQ Z1, Z0, Z0")
		}
		e.op("VMOVDQU64 Z0, %d(%s)", 64*k, zPtr)
	}
	e.op("VZEROUPPER")
	e.op("RET")
}

func generate() []byte {
	var e emitter
	e.WriteString("// Code generated by gen.go; DO NOT EDIT.\n\n")
	e.WriteString("#include \"textflag.h\"\n\n")

	e.WriteString("// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)\n")
	e.WriteString("TEXT ·cpuid(SB), NOSPLIT, $0-24\n")
	e.op("MOVL eaxArg+0(FP), AX")
	e.op("MOVL ecxArg+4(FP), CX")
	e.op("CPUID")
	e.op("MOVL AX, eax+8(FP)")
	e.op("MOVL BX, ebx+12(FP)")
	e.op("MOVL CX, ecx+16(FP)")
	e.op("MOVL DX, edx+20(FP)")
	e.op("RET")
	e.WriteString("\n")

	e.WriteString("// func xgetbv() (eax, edx uint32)\n")
	e.WriteString("TEXT ·xgetbv(SB), NOSPLIT, $0-8\n")
	e.op("MOVL $0, CX")
	e.op("XGETBV")
	e.op("MOVL AX, eax+0(FP)")
	e.op("MOVL DX, edx+4(FP)")
	e.op("RET")
	e.WriteString("\n")

	e.WriteString("// func montMul512(z, x, y, m *[8]uint64, k0 uint64)\n")
	e.WriteString("TEXT ·montMul512(SB), NOSPLIT, $0-40\n")
	for _, r := range acc {
		e.op("XORQ %s, %s", r, r)
	}
	for i := 0; i < limbs; i++ {
		e.WriteString(fmt.Sprintf("\n\t// Row %d: t += x[%d] * y; t = (t + q*m) / 2⁶⁴.\n", i, i))
		e.op("MOVQ x+8(FP), %s", lo)
		e.op("MOVQ %d(%s), DX", 8*i, lo)
		e.row(i, "y+16(FP)")
		e.op("MOVQ %s, DX", t(i, 0))
		e.op("IMULQ k0+32(FP), DX")
		e.row(i, "m+24(FP)")
	}

	// After eight rows t[k] sits in t(8, k); t[9] is zero and ptr still
	// points at m.
	e.WriteString("\n\t// z = t, then z = t - m unless that borrows.\n")
	e.op("MOVQ z+0(FP), %s", lo)
	for k := 0; k < limbs; k++ {
		e.op("MOVQ %s, %d(%s)", t(limbs, k), 8*k, lo)
	}
	e.op("SUBQ 0(%s), %s", ptr, t(limbs, 0))
	for k := 1; k < limbs; k++ {
		e.op("SBBQ %d(%s), %s", 8*k, ptr, t(limbs, k))
	}
	e.op("SBBQ $0, %s", t(limbs, limbs))
	for k := 0; k < limbs; k++ {
		e.op("CMOVQCS %d(%s), %s", 8*k, lo, t(limbs, k))
	}
	for k := 0; k < limbs; k++ {
		e.op("MOVQ %s, %d(%s)", t(limbs, k), 8*k, lo)
	}
	e.op("RET")
	e.WriteString("\n")
	e.montMul1024()
	e.WriteString("\n")
	e.amm(ammX8)
	e.WriteString("\n")
	e.amm(ammX8w)
	e.WriteString("\n")
	e.selectX8()
	e.WriteString("\n")
	e.spreadX8w()
	e.WriteString("\n")
	e.packX8w()
	return e.Bytes()
}

func main() {
	out := flag.String("out", "montmul_amd64.s", "file to write")
	flag.Parse()
	if err := os.WriteFile(*out, generate(), 0o644); err != nil {
		log.Fatal(err)
	}
}
