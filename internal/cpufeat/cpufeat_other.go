//go:build !amd64

package cpufeat

// MULX and IFMA are false: every kernel that reads them is amd64
// assembly.
var MULX, IFMA = false, false
