package rsacrt

import "testing"

// forceFallback makes New leave keys on math/big until the test ends, so
// one test can run the same inputs through both paths.
func forceFallback(t testing.TB) {
	saved := useKernel
	useKernel = false
	t.Cleanup(func() { useKernel = saved })
}

// KernelEnabled reports whether New prepares 512-bit-prime keys for the
// Montgomery kernel on this machine.
func KernelEnabled(k *Key) bool { return k.p != nil }
