package abe

import "repro/internal/cpufeat"

// useKernel reports whether agree may run ladderX8, which needs AVX-512
// IFMA.
var useKernel = cpufeat.IFMA

// ladderX8 replaces slot 0 of l, eight u-coordinates, with X25519 of the
// scalar in l's first 32 bytes (clamped) and each u, as five limbs of 52
// bits per lane that are below 2⁵² (limb 4 below 2⁴⁸) and congruent to
// the agreement mod 2²⁵⁵ - 19. It needs AVX512F and AVX512IFMA.
//
//go:noescape
func ladderX8(l *ladder)
