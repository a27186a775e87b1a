//go:build !linux

package store

import "os"

// datasync falls back to a full fsync where fdatasync is unavailable.
func datasync(f *os.File) error { return f.Sync() }
