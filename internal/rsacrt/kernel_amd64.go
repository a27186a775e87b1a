package rsacrt

// montMul512 sets z = x·y·2⁻⁵¹² mod m for x, y < m, an odd 512-bit m and
// k0 = -m⁻¹ mod 2⁶⁴. z may alias x or y. It needs BMI2 (MULX) and ADX
// (ADCX, ADOX).
//
//go:noescape
func montMul512(z, x, y, m *[8]uint64, k0 uint64)

// montMul1024 is montMul512 for a 1024-bit m: z = x·y·2⁻¹⁰²⁴ mod m for
// x, y < m, an odd m < 2¹⁰²⁴ and k0 = -m⁻¹ mod 2⁶⁴. z may alias x or y.
//
//go:noescape
func montMul1024(z, x, y, m *[16]uint64, k0 uint64)

// ammX8 sets each lane l of z to x·y·2⁻⁵²⁰ mod m, almost: for x, y < 2m
// it returns a value below 2m congruent to that, in 52-bit limbs. Lane l
// has its own odd m < 2⁵¹⁸ and k0[l] = -m⁻¹ mod 2⁵². z may alias x or y.
// It needs AVX512F and AVX512IFMA.
//
//go:noescape
func ammX8(z, x, y, m *vec, k0 *[lanes]uint64)

// ammX8w is ammX8 for twenty limbs and one modulus: each lane l of z
// becomes x·y·2⁻¹⁰⁴⁰ mod m, almost, a value below 2m for x, y < 2m, for
// an odd m < 2¹⁰³⁸ in 52-bit limbs and k0 = -m⁻¹ mod 2⁵². z may alias x
// or y. It needs AVX512F and AVX512IFMA.
//
//go:noescape
func ammX8w(z, x, y *wideVec, m *[limbs1040]uint64, k0 uint64)

// spreadX8w cuts src, eight values below 2¹⁰²⁴ with src[j][l] word j of
// lane l and row 16 zero, into ammX8w's limbs.
//
//go:noescape
func spreadX8w(dst *wideVec, src *wideWords)

// packX8w takes every lane of src, below 2m, to src mod m in place, and
// writes it to rows 0-15 of dst as words, spreadX8w's layout.
//
//go:noescape
func packX8w(dst *wideWords, src *wideVec, m *[limbs1040]uint64)

// selectX8 sets each lane l of dst to that lane of table[idx[l]], reading
// every entry in full whatever the digits are.
//
//go:noescape
func selectX8(dst *vec, table *[1 << window]vec, idx *[lanes]uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useKernel reports whether New and NewPublic may prepare keys for
// montMul512 and montMul1024: CPUID leaf 7 must report BMI2 (EBX bit 8)
// and ADX (EBX bit 19). useIFMA reports whether New and NewPublic may
// prepare them for ammX8 and ammX8w: leaf 7 must report AVX512F (EBX bit 16) and AVX512IFMA (EBX bit
// 21), and the OS must save the opmask and zmm state (OSXSAVE, leaf 1 ECX
// bit 27, and XCR0 bits 1, 2 and 5-7).
var useKernel, useIFMA = func() (mulx, ifma bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx, avx512f, avx512ifma = 1 << 8, 1 << 19, 1 << 16, 1 << 21
	mulx = ebx&bmi2 != 0 && ebx&adx != 0
	if ebx&avx512f == 0 || ebx&avx512ifma == 0 {
		return mulx, false
	}
	const osxsave, zmmState = 1 << 27, 0xe6
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return mulx, false
	}
	xcr0, _ := xgetbv()
	return mulx, xcr0&zmmState == zmmState
}()
