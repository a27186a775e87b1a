//go:build !amd64

package cpufeat

// MULX, IFMA and AVX512BW are false: every kernel that reads them is
// amd64 assembly.
var MULX, IFMA, AVX512BW = false, false, false
