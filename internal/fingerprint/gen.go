//go:build ignore

// gen.go writes sha256x16_amd64.s, the package's SHA-256 kernel. Run it
// with `go generate ./internal/fingerprint`; TestGeneratedAssemblyIsCurrent
// fails when the committed file and this generator disagree.
//
// blocksX16 runs sixteen independent SHA-256 computations, one per
// 32-bit lane of a zmm register, on AVX-512 F and BW. A lane's state
// word j is lane i of row j of lanes.h, so the eight state words of all
// sixteen lanes are eight registers. Each call compresses n blocks per
// lane: lane i reads its blocks from lanes.ptr[i] on, 64 bytes apart,
// and every one of them must be readable (the scheduler in sum.go
// guarantees that, pointing idle lanes at a live lane's blocks).
//
// One block step loads the sixteen lanes' blocks as sixteen rows,
// byte-swaps every word (VPSHUFB), and transposes the 16×16 word matrix
// in four stages (two of VPUNPCK*, two of VSHUFI32X4), which leaves
// message word t of every lane in one register. The schedule rolls
// through those sixteen registers; the round functions use VPRORD for
// the rotations and VPTERNLOGD for the three-way XORs, Ch and Maj.
//
// Constant time. The kernel has one loop, over n, and no other branch;
// no address depends on a message byte. What a lane reads is set by the
// scheduler from message lengths alone.
//
// Hygiene. The schedule lives only in registers. The kernel clears every
// vector register it used before it returns, so no schedule word or
// intermediate state (which carries a suffix such as an MLE key) outlives
// the call there; the Go side wipes lanes.h and its staging blocks.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
)

// The layout of sum.go's lanes type: eight rows of sixteen state words,
// then sixteen block pointers.
const (
	hOffset   = 0
	ptrOffset = 8 * 64
)

// Registers. Rows are loaded into Z0-Z15 and transposed with Z16-Z17 as
// scratch, so the schedule ends up in sixteen of Z0-Z17; s holds the
// state a-h, t0-t2 are round scratch and flip is the byte-swap mask.
var s = [8]string{"Z18", "Z19", "Z20", "Z21", "Z22", "Z23", "Z24", "Z25"}

const (
	t0     = "Z26"
	t1     = "Z27"
	t2     = "Z28"
	flip   = "Z31"
	base   = "DI" // *lanes
	off    = "BX" // the current block's offset in every lane
	cnt    = "CX" // blocks left
	row    = "SI"
	kptr   = "R8" // this group of sixteen rounds' constants
	rounds = "R9" // groups of sixteen rounds left
)

// k holds SHA-256's round constants (FIPS 180-4 §4.2.2).
var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

type emitter struct{ bytes.Buffer }

func (e *emitter) op(format string, args ...any) {
	fmt.Fprintf(e, "\t"+format+"\n", args...)
}

func (e *emitter) comment(c string) {
	fmt.Fprintf(e, "\n\t// %s\n", c)
}

// data emits the round constants and the byte-swap mask.
func (e *emitter) data() {
	for i, v := range k {
		fmt.Fprintf(e, "DATA k256<>+%d(SB)/4, $%#08x\n", 4*i, v)
	}
	e.WriteString("GLOBL k256<>(SB), RODATA|NOPTR, $256\n\n")
	// Reverses the bytes of each 32-bit word; VPSHUFB indexes within
	// each 128-bit lane, so the 16-byte pattern repeats four times.
	for q := 0; q < 4; q++ {
		fmt.Fprintf(e, "DATA flip<>+%d(SB)/8, $0x0405060700010203\n", 16*q)
		fmt.Fprintf(e, "DATA flip<>+%d(SB)/8, $0x0c0d0e0f08090a0b\n", 16*q+8)
	}
	e.WriteString("GLOBL flip<>(SB), RODATA|NOPTR, $64\n\n")
}

// transpose turns rows r (row i = lane i's sixteen words) into columns
// (column t = word t of every lane) and returns the columns' registers.
// free holds two scratch registers; the function renames registers
// instead of moving them.
func (e *emitter) transpose(r [16]string, free [2]string) [16]string {
	spare := free[:]
	take := func() string {
		x := spare[0]
		spare = spare[1:]
		return x
	}
	// Stage 1: pairs of rows, dword interleave within each 128-bit lane.
	var p [16]string
	for i := 0; i < 16; i += 2 {
		lo := take()
		e.op("VPUNPCKLDQ %s, %s, %s", r[i+1], r[i], lo)
		e.op("VPUNPCKHDQ %s, %s, %s", r[i+1], r[i], r[i+1])
		p[i], p[i+1] = lo, r[i+1]
		spare = append(spare, r[i])
	}
	// Stage 2: groups of four rows; u[g][m] holds, in 128-bit lane q,
	// word 4q+m of rows 4g..4g+3.
	var u [4][4]string
	for g := 0; g < 4; g++ {
		s0, s1, s2, s3 := p[4*g], p[4*g+1], p[4*g+2], p[4*g+3]
		a, b := take(), take()
		e.op("VPUNPCKLQDQ %s, %s, %s", s2, s0, a)
		e.op("VPUNPCKHQDQ %s, %s, %s", s2, s0, b)
		e.op("VPUNPCKLQDQ %s, %s, %s", s3, s1, s0)
		e.op("VPUNPCKHQDQ %s, %s, %s", s3, s1, s2)
		u[g] = [4]string{a, b, s0, s2}
		spare = append(spare, s1, s3)
	}
	// Stages 3 and 4: a 4×4 transpose of 128-bit lanes across the
	// groups, for each m.
	var w [16]string
	for m := 0; m < 4; m++ {
		a, b, c, d := u[0][m], u[1][m], u[2][m], u[3][m]
		v0, v1 := take(), take()
		e.op("VSHUFI32X4 $0x44, %s, %s, %s", b, a, v0) // a0 a1 b0 b1
		e.op("VSHUFI32X4 $0xee, %s, %s, %s", b, a, v1) // a2 a3 b2 b3
		v2, v3 := a, b
		e.op("VSHUFI32X4 $0x44, %s, %s, %s", d, c, v2) // c0 c1 d0 d1
		e.op("VSHUFI32X4 $0xee, %s, %s, %s", d, c, v3) // c2 c3 d2 d3
		w[m], w[4+m] = c, d
		e.op("VSHUFI32X4 $0x88, %s, %s, %s", v2, v0, w[m])   // a0 b0 c0 d0
		e.op("VSHUFI32X4 $0xdd, %s, %s, %s", v2, v0, w[4+m]) // a1 b1 c1 d1
		w[8+m], w[12+m] = v0, v2
		e.op("VSHUFI32X4 $0x88, %s, %s, %s", v3, v1, w[8+m])
		e.op("VSHUFI32X4 $0xdd, %s, %s, %s", v3, v1, w[12+m])
		spare = append(spare, v1, v3)
	}
	return w
}

// xor3 sets t0 = ror(x, a) ^ ror(x, b) ^ c-op(x), where the third term
// is ror(x, c) or, for the schedule's σ functions, shr(x, c).
func (e *emitter) xor3(x string, a, b, c int, shift bool) {
	e.op("VPRORD $%d, %s, %s", a, x, t0)
	e.op("VPRORD $%d, %s, %s", b, x, t1)
	if shift {
		e.op("VPSRLD $%d, %s, %s", c, x, t2)
	} else {
		e.op("VPRORD $%d, %s, %s", c, x, t2)
	}
	e.op("VPTERNLOGD $0x96, %s, %s, %s", t2, t1, t0)
}

// schedule sets w[t%16] = σ1(w[t-2]) + w[t-7] + σ0(w[t-15]) + w[t-16].
func (e *emitter) schedule(w [16]string, t int) {
	wt := w[t%16]
	e.xor3(w[(t-15)%16], 7, 18, 3, true)
	e.op("VPADDD %s, %s, %s", t0, wt, wt)
	e.xor3(w[(t-2)%16], 17, 19, 10, true)
	e.op("VPADDD %s, %s, %s", t0, wt, wt)
	e.op("VPADDD %s, %s, %s", w[(t-7)%16], wt, wt)
}

// round runs round t on state v = a..h, with K_t at offset 4·(t mod 16)
// from kptr; h becomes the new a and d the new e, so the caller rotates
// the names.
func (e *emitter) round(v [8]string, wt string, t int) {
	a, b, c, d, f, g, h := v[0], v[1], v[2], v[3], v[5], v[6], v[7]
	ev := v[4]
	e.op("VPADDD.BCST %d(%s), %s, %s", 4*(t%16), kptr, h, h)
	e.op("VPADDD %s, %s, %s", wt, h, h)
	e.xor3(ev, 6, 11, 25, false) // Σ1(e)
	e.op("VPADDD %s, %s, %s", t0, h, h)
	e.op("VMOVDQA32 %s, %s", ev, t0)
	e.op("VPTERNLOGD $0xca, %s, %s, %s", g, f, t0) // Ch(e, f, g)
	e.op("VPADDD %s, %s, %s", t0, h, h)
	e.op("VPADDD %s, %s, %s", h, d, d) // d += T1
	e.xor3(a, 2, 13, 22, false)        // Σ0(a)
	e.op("VPADDD %s, %s, %s", t0, h, h)
	e.op("VMOVDQA32 %s, %s", a, t0)
	e.op("VPTERNLOGD $0xe8, %s, %s, %s", c, b, t0) // Maj(a, b, c)
	e.op("VPADDD %s, %s, %s", t0, h, h)            // h = T1 + T2
}

func (e *emitter) kernel() {
	e.WriteString("// func blocksX16(l *lanes, n int)\n")
	e.WriteString("TEXT ·blocksX16(SB), NOSPLIT, $0-16\n")
	e.op("MOVQ l+0(FP), %s", base)
	e.op("MOVQ n+8(FP), %s", cnt)
	e.op("VMOVDQU32 flip<>(SB), %s", flip)
	e.op("XORQ %s, %s", off, off)
	e.WriteString("block:\n")

	e.comment("Load each lane's block as a row and byte-swap its words.")
	var r [16]string
	for i := range r {
		r[i] = fmt.Sprintf("Z%d", i)
		e.op("MOVQ %d(%s), %s", ptrOffset+8*i, base, row)
		e.op("VMOVDQU32 (%s)(%s*1), %s", row, off, r[i])
		e.op("VPSHUFB %s, %s, %s", flip, r[i], r[i])
	}
	e.comment("Transpose: column t is message word t of every lane.")
	w := e.transpose(r, [2]string{"Z16", "Z17"})

	e.comment("a-h from the lanes' state.")
	for j, reg := range s {
		e.op("VMOVDQU32 %d(%s), %s", hOffset+64*j, base, reg)
	}
	// Sixteen rounds turn the state names and the schedule's registers
	// full circle, so rounds 16-63 are one loop body run three times,
	// which keeps the hot code small enough for the decoded-uop cache.
	e.op("LEAQ k256<>(SB), %s", kptr)
	v := s
	for t := 0; t < 32; t++ {
		if t == 16 {
			e.op("MOVQ $3, %s", rounds)
			e.WriteString("rounds:\n")
			e.op("ADDQ $64, %s", kptr)
		}
		e.comment(fmt.Sprintf("Round %d.", t))
		if t >= 16 {
			e.schedule(w, t)
		}
		e.round(v, w[t%16], t)
		v = [8]string{v[7], v[0], v[1], v[2], v[3], v[4], v[5], v[6]}
	}
	e.op("DECQ %s", rounds)
	e.op("JNZ rounds")
	e.comment("Add the block's result into the state.")
	for j, reg := range s {
		e.op("VPADDD %d(%s), %s, %s", hOffset+64*j, base, reg, reg)
		e.op("VMOVDQU32 %s, %d(%s)", reg, hOffset+64*j, base)
	}
	e.op("ADDQ $64, %s", off)
	e.op("DECQ %s", cnt)
	e.op("JNZ block")

	e.comment("Clear the schedule and state from the registers.")
	for i := 16; i < 32; i++ {
		e.op("VPXORD Z%d, Z%d, Z%d", i, i, i)
	}
	e.op("VZEROALL")
	e.op("RET")
}

func generate() []byte {
	var e emitter
	e.WriteString("// Code generated by gen.go; DO NOT EDIT.\n\n")
	e.WriteString("#include \"textflag.h\"\n\n")
	e.data()
	e.kernel()
	return e.Bytes()
}

func main() {
	out := flag.String("out", "sha256x16_amd64.s", "file to write")
	flag.Parse()
	if err := os.WriteFile(*out, generate(), 0o644); err != nil {
		log.Fatal(err)
	}
}
