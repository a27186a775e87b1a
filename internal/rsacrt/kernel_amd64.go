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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// useKernel reports whether New and NewPublic may prepare keys for the
// kernels: CPUID leaf 7 must report BMI2 (EBX bit 8) and ADX (EBX bit 19).
var useKernel = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}()
