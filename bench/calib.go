package main

import (
	"crypto/sha256"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// calibration is what the machine itself can do, so that a change of
// runner stops looking like a change of the code: every traced result
// carries it beside the per-layer numbers.
type calibration struct {
	sha256MBps     float64
	modexp1024PerS float64
	memcpyGBps     float64
	fsync4kMS      float64
	fsyncSamples   int
}

func (c calibration) metrics() []metric {
	return []metric{
		{"machine.sha256_MBps", c.sha256MBps, "MB/s", 0},
		{"machine.modexp1024_per_s", c.modexp1024PerS, "1/s", 0},
		{"machine.memcpy_GBps", c.memcpyGBps, "GB/s", 0},
		{"machine.fsync_4k_ms", c.fsync4kMS, "ms", c.fsyncSamples},
		{"machine.nproc", float64(runtime.NumCPU()), "count", 0},
		{"machine.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", 0},
	}
}

// calibrate measures the machine; the fsync is made in dir, where the
// stores live.
func calibrate(dir string) (calibration, error) {
	var c calibration
	buf := gen(0, "calibration", 64<<20)

	start := time.Now()
	sha256.Sum256(buf)
	c.sha256MBps = float64(len(buf)) / mib / time.Since(start).Seconds()

	// 1024-bit modular exponentiation with a full-size exponent and an
	// odd modulus: the shape of the key manager's RSA private operation.
	mod := new(big.Int).SetBytes(buf[256:384])
	mod.SetBit(mod, 0, 1).SetBit(mod, 1023, 1)
	base := new(big.Int).SetBytes(buf[:127])
	exp := new(big.Int).SetBytes(buf[128:255])
	const exps = 200
	start = time.Now()
	for i := 0; i < exps; i++ {
		new(big.Int).Exp(base, exp, mod)
	}
	c.modexp1024PerS = exps / time.Since(start).Seconds()

	dst := make([]byte, len(buf))
	const copies = 8
	start = time.Now()
	for i := 0; i < copies; i++ {
		copy(dst, buf)
	}
	c.memcpyGBps = float64(copies*len(buf)) / gib / time.Since(start).Seconds()

	// A 4 KB write made durable.
	f, err := os.Create(filepath.Join(dir, "calibration.tmp"))
	if err != nil {
		return c, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var syncs []time.Duration
	for i := 0; i < 32; i++ {
		start = time.Now()
		if _, err := f.WriteAt(buf[:4096], int64(i)*4096); err != nil {
			return c, err
		}
		if err := f.Sync(); err != nil {
			return c, err
		}
		syncs = append(syncs, time.Since(start))
	}

	c.fsync4kMS, c.fsyncSamples = ms(quantile(syncs, 0.5)), len(syncs)
	return c, nil
}
