package fingerprint

import "repro/internal/cpufeat"

//go:generate go run gen.go

// useKernel reports whether SumBatch may run blocksX16, which needs
// AVX-512 F and BW.
var useKernel = cpufeat.AVX512BW

// blocksX16 compresses n ≥ 1 blocks into each of l's sixteen lanes:
// lane i's blocks are the n·64 bytes from l.ptr[i] on, which must all
// be readable. It needs AVX512F and AVX512BW.
//
//go:noescape
func blocksX16(l *lanes, n int)
