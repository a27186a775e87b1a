package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestProbeMatchesProcCPUInfo holds the probe against the CPU flags the
// Linux kernel reports, which it derives from the same CPUID leaves and
// clears when the OS does not save the zmm state.
func TestProbeMatchesProcCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the probe reads CPUID on amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	t.Logf("MULX %v, IFMA %v, AVX512BW %v", MULX, IFMA, AVX512BW)
	if want := flags["bmi2"] && flags["adx"]; MULX != want {
		t.Errorf("MULX = %v, /proc/cpuinfo says %v", MULX, want)
	}
	if want := flags["avx512f"] && flags["avx512ifma"]; IFMA != want {
		t.Errorf("IFMA = %v, /proc/cpuinfo says %v", IFMA, want)
	}
	if want := flags["avx512f"] && flags["avx512bw"]; AVX512BW != want {
		t.Errorf("AVX512BW = %v, /proc/cpuinfo says %v", AVX512BW, want)
	}
}
