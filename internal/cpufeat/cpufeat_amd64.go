package cpufeat

// MULX reports BMI2 (MULX) and ADX (ADCX, ADOX): CPUID leaf 7 EBX bits 8
// and 19. IFMA reports AVX512F and AVX512IFMA (leaf 7 EBX bits 16 and
// 21), and AVX512BW reports AVX512F and AVX512BW (bit 30); both also
// need the OS to save the opmask and zmm state (OSXSAVE, leaf 1 ECX bit
// 27, and XCR0 bits 1, 2 and 5-7).
var MULX, IFMA, AVX512BW = probe()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func probe() (mulx, ifma, avx512bw bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx, avx512f, avx512ifma, avx512bwBit = 1 << 8, 1 << 19, 1 << 16, 1 << 21, 1 << 30
	mulx = ebx&bmi2 != 0 && ebx&adx != 0
	if ebx&avx512f == 0 {
		return mulx, false, false
	}
	const osxsave, zmmState = 1 << 27, 0xe6
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return mulx, false, false
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return mulx, false, false
	}
	return mulx, ebx&avx512ifma != 0, ebx&avx512bwBit != 0
}
