//go:build !amd64

package rsacrt

// useKernel and useIFMA are false: the Montgomery kernels are amd64
// assembly, and New and NewPublic leave every key on math/big.
var useKernel, useIFMA = false, false

func montMul512(z, x, y, m *[8]uint64, k0 uint64) {
	panic("rsacrt: no Montgomery kernel on this architecture")
}

func montMul1024(z, x, y, m *[16]uint64, k0 uint64) {
	panic("rsacrt: no Montgomery kernel on this architecture")
}

func ammX8(z, x, y, m *vec, k0 *[lanes]uint64) {
	panic("rsacrt: no Montgomery kernel on this architecture")
}

func ammX8w(z, x, y *wideVec, m *[limbs1040]uint64, k0 uint64) {
	panic("rsacrt: no Montgomery kernel on this architecture")
}

func selectX8(dst *vec, table *[1 << window]vec, idx *[lanes]uint64) {
	panic("rsacrt: no Montgomery kernel on this architecture")
}

func spreadX8w(dst *wideVec, src *wideWords) {
	panic("rsacrt: no Montgomery kernel on this architecture")
}

func packX8w(dst *wideWords, src *wideVec, m *[limbs1040]uint64) {
	panic("rsacrt: no Montgomery kernel on this architecture")
}
