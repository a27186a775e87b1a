package rsacrt

import "testing"

// forceFallback makes New and NewPublic leave keys on math/big until the
// test ends, so one test can run the same inputs through every path.
func forceFallback(t testing.TB) {
	forceMULX(t)
	saved := useKernel
	useKernel = false
	t.Cleanup(func() { useKernel = saved })
}

// forceMULX makes New prepare keys for montMul512, not ammX8, and
// NewPublic for montMul1024 alone, until the test ends.
func forceMULX(t testing.TB) {
	saved := useIFMA
	useIFMA = false
	t.Cleanup(func() { useIFMA = saved })
}

// Paths names the paths this machine runs, fastest first: "ifma" (ammX8,
// and ammX8w for public batches), "mulx" (montMul512 and montMul1024)
// and "fallback" (math/big).
func Paths() []string {
	var out []string
	if useIFMA {
		out = append(out, "ifma")
	}
	if useKernel {
		out = append(out, "mulx")
	}
	return append(out, "fallback")
}

// ForcePath makes New and NewPublic prepare keys for path, one of Paths,
// until the test ends.
func ForcePath(t testing.TB, path string) {
	switch path {
	case "mulx":
		forceMULX(t)
	case "fallback":
		forceFallback(t)
	}
}

// KernelEnabled reports whether New prepared k for a Montgomery kernel,
// ammX8 or montMul512.
func KernelEnabled(k *Key) bool { return k.lanes != nil || k.p != nil }

// IFMAEnabled reports whether New prepared k for ammX8.
func IFMAEnabled(k *Key) bool { return k.lanes != nil }

// PublicKernelEnabled reports whether NewPublic prepared pub for the
// 1024-bit kernel.
func PublicKernelEnabled(pub *Public) bool { return pub.mont != nil }

// PublicPath names the path NewPublic prepared pub for, as Paths does.
func PublicPath(pub *Public) string {
	switch {
	case pub.mont == nil:
		return "fallback"
	case pub.mont.x8 == nil:
		return "mulx"
	}
	return "ifma"
}
