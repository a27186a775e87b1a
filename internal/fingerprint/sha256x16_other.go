//go:build !amd64

package fingerprint

// useKernel is false: blocksX16 is amd64 assembly, and SumBatch hashes
// every message with crypto/sha256.
var useKernel = false

func blocksX16(l *lanes, n int) {
	panic("fingerprint: no SHA-256 kernel on this architecture")
}
