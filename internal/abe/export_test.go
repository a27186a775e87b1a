package abe

import "testing"

// Paths names the X25519 paths this machine runs, fastest first: "ifma"
// (ladderX8 for batches of kernelMinLanes or more) and "ecdh"
// (crypto/ecdh for every agreement).
func Paths() []string {
	if useKernel {
		return []string{"ifma", "ecdh"}
	}
	return []string{"ecdh"}
}

// ForcePath makes agree run on path, one of Paths, until the test ends.
func ForcePath(t testing.TB, path string) {
	saved := useKernel
	useKernel = path == "ifma"
	t.Cleanup(func() { useKernel = saved })
}
