package rsacrt

import "testing"

// forceFallback makes New and NewPublic leave keys on math/big until the
// test ends, so one test can run the same inputs through both paths.
func forceFallback(t testing.TB) {
	saved := useKernel
	useKernel = false
	t.Cleanup(func() { useKernel = saved })
}

// KernelEnabled reports whether New prepares 512-bit-prime keys for the
// Montgomery kernel on this machine.
func KernelEnabled(k *Key) bool { return k.p != nil }

// PublicKernelEnabled reports whether NewPublic prepared pub for the
// 1024-bit kernel.
func PublicKernelEnabled(pub *Public) bool { return pub.mont != nil }
