package fingerprint

import "testing"

// Paths names the SHA-256 paths this machine runs, fastest first:
// "lanes" (blocksX16 for batches of minLanes or more) and
// "crypto/sha256" (every message on its own).
func Paths() []string {
	if useKernel {
		return []string{"lanes", "crypto/sha256"}
	}
	return []string{"crypto/sha256"}
}

// ForcePath makes SumBatch run on path, one of Paths, until the test
// ends.
func ForcePath(t testing.TB, path string) {
	saved := useKernel
	useKernel = path == "lanes"
	t.Cleanup(func() { useKernel = saved })
}
