package rsacrt

import "repro/internal/cpufeat"

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

// useKernel reports whether New and NewPublic may prepare keys for
// montMul512 and montMul1024, which need BMI2 and ADX; useIFMA whether
// they may prepare them for ammX8 and ammX8w, which need AVX-512 IFMA.
// Both come from the one CPU probe, cpufeat.
var useKernel, useIFMA = cpufeat.MULX, cpufeat.IFMA
