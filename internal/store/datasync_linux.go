package store

import (
	"os"
	"syscall"
)

// datasync flushes f's data and the metadata needed to read it back
// (its size), skipping the rest of the inode.
func datasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }
