// Package cpufeat reports the x86-64 instruction-set extensions the
// repository's assembly kernels need, read once from CPUID at start-up.
// It is the one CPU probe: internal/rsacrt's Montgomery kernels,
// internal/abe's X25519 ladder and internal/fingerprint's SHA-256 lanes
// all choose their paths from it, and from nothing else (no option,
// flag or environment variable).
package cpufeat
