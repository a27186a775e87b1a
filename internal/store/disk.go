package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// diskStripes is the number of lock stripes in a Disk backend. Power
// of two so the stripe index is a mask.
const diskStripes = 64

// Disk is a Backend storing each blob as a file under root/ns/name.
// Names are percent-escaped to stay within a single directory level.
//
// Durability: Put writes to a temp file, fsyncs it, renames it into
// place, and fsyncs the parent directory, so a published blob survives
// both process kill and power loss — the dedup WAL's crash-recovery
// guarantee rests on exactly this. WriteAt, the in-place exception for
// single-writer blobs, fdatasyncs the file instead. Delete fsyncs the
// parent directory after the unlink, so a deleted blob stays deleted
// across power loss. WithNoSync trades the per-write fsyncs for speed
// (benchmarks, throwaway runs); Close still flushes every directory so
// the name set, at least, is durable on a clean shutdown.
//
// Locking is striped per (namespace, name): operations on different
// blobs proceed in parallel (the server's concurrent handlers convoy
// otherwise), while operations on the same blob serialize through its
// stripe. List takes no lock at all — Put publishes blobs atomically
// via rename, so a directory scan never observes a torn blob, only a
// point-in-time name set, the same guarantee a global lock gave.
type Disk struct {
	root    string
	nosync  bool
	stripes [diskStripes]sync.RWMutex

	// dirMu guards dirs, the set of namespace directories already
	// created and made durable (root fsynced after mkdir), so steady-
	// state Puts skip the mkdir/fsync pair.
	dirMu sync.Mutex
	dirs  map[string]bool
}

var _ Backend = (*Disk)(nil)

// DiskOption configures a Disk backend.
type DiskOption func(*Disk)

// WithNoSync disables the fsync calls in Put and WriteAt. Blobs are still published
// atomically via rename, but survive only process crashes, not power
// loss. Intended for benchmarks and tests; durability-sensitive callers
// (the storage server's default path) must not use it.
func WithNoSync() DiskOption {
	return func(d *Disk) { d.nosync = true }
}

// NewDisk returns a disk backend rooted at dir, creating it if needed.
func NewDisk(dir string, opts ...DiskOption) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root: %w", err)
	}
	d := &Disk{root: dir, dirs: make(map[string]bool)}
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

// stripe returns the lock guarding (ns, name), via FNV-1a over the
// joined key.
func (d *Disk) stripe(ns, name string) *sync.RWMutex {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(ns); i++ {
		h = (h ^ uint64(ns[i])) * prime64
	}
	h = (h ^ '/') * prime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return &d.stripes[h&(diskStripes-1)]
}

// plain reports whether escape keeps c as it is; any other byte
// becomes three.
func plain(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_'
}

// escape makes a blob name filesystem-safe.
func escape(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		if c := name[i]; plain(c) {
			sb.WriteByte(c)
		} else {
			fmt.Fprintf(&sb, "%%%02X", c)
		}
	}
	return sb.String()
}

// maxFileName is the longest file name Disk can create: NAME_MAX on
// Linux and on the other common file systems.
const maxFileName = 255

// CheckName returns an error unless every backend can store a blob
// under name: Disk needs it non-empty, and its escaped form must fit
// in one file name. A caller that acknowledges a write before the
// backend sees it checks the name first, so the backend never refuses
// a write that was already acknowledged.
func CheckName(name string) error {
	if name == "" {
		return errors.New("store: empty blob name")
	}
	n := 0
	for i := 0; i < len(name); i++ {
		if plain(name[i]) {
			n++
		} else {
			n += 3
		}
	}
	if n > maxFileName {
		return fmt.Errorf("store: blob name of %d bytes escapes to %d, over %d", len(name), n, maxFileName)
	}
	return nil
}

// unescape inverts escape.
func unescape(name string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		if i+2 >= len(name) {
			return "", fmt.Errorf("store: bad escape in %q", name)
		}
		var v int
		if _, err := fmt.Sscanf(name[i+1:i+3], "%02X", &v); err != nil {
			return "", fmt.Errorf("store: bad escape in %q: %w", name, err)
		}
		sb.WriteByte(byte(v))
		i += 2
	}
	return sb.String(), nil
}

func (d *Disk) path(ns, name string) string {
	return filepath.Join(d.root, escape(ns), escape(name))
}

// syncDir fsyncs a directory so a rename (or mkdir) inside it is
// durable, not just ordered.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}

// ensureDir creates the namespace directory on first use and fsyncs the
// root so the new directory entry is durable before any blob lands in
// it.
func (d *Disk) ensureDir(ns string) (string, error) {
	dir := filepath.Join(d.root, escape(ns))
	d.dirMu.Lock()
	defer d.dirMu.Unlock()
	if d.dirs[ns] {
		return dir, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: mkdir: %w", err)
	}
	if !d.nosync {
		if err := syncDir(d.root); err != nil {
			return "", err
		}
	}
	d.dirs[ns] = true
	return dir, nil
}

// Put implements Backend. Writes go through temp file → fsync → rename
// → parent-directory fsync, so a published blob is atomic against
// readers and durable against power loss.
func (d *Disk) Put(ctx context.Context, ns, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dir, err := d.ensureDir(ns)
	if err != nil {
		return err
	}
	mu := d.stripe(ns, name)
	mu.Lock()
	defer mu.Unlock()
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write: %w", err)
	}
	if !d.nosync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return fmt.Errorf("store: fsync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmpName, d.path(ns, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: rename: %w", err)
	}
	if !d.nosync {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	return nil
}

// Get implements Backend.
func (d *Disk) Get(ctx context.Context, ns, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mu := d.stripe(ns, name)
	mu.RLock()
	defer mu.RUnlock()
	data, err := os.ReadFile(d.path(ns, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	return data, nil
}

// GetRange implements Backend via pread, so a 48-byte packfile footer
// read does not drag a 4 MB container through memory.
func (d *Disk) GetRange(ctx context.Context, ns, name string, off, n int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mu := d.stripe(ns, name)
	mu.RLock()
	defer mu.RUnlock()
	f, err := os.Open(d.path(ns, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	}
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat: %w", err)
	}
	start, end, err := resolveRange(off, n, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", ns, name, err)
	}
	buf := make([]byte, end-start)
	if _, err := f.ReadAt(buf, start); err != nil {
		return nil, fmt.Errorf("store: read range: %w", err)
	}
	return buf, nil
}

// WriteAt implements Backend in place: pwrite, ftruncate and
// fdatasync on the blob's file, plus a directory fsync when the call
// creates it, so a commit costs the bytes it adds rather than a
// rewrite of the blob. List may name the file while a WriteAt is under
// way; WriteAt's callers own their blobs and nothing reads them by
// name meanwhile.
func (d *Disk) WriteAt(ctx context.Context, ns, name string, off int64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dir, err := d.ensureDir(ns)
	if err != nil {
		return err
	}
	mu := d.stripe(ns, name)
	mu.Lock()
	defer mu.Unlock()
	path := d.path(ns, name)
	created := false
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if errors.Is(err, os.ErrNotExist) && off == 0 {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		created = true
	}
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	}
	if err != nil {
		return fmt.Errorf("store: open: %w", err)
	}
	err = d.writeAtFile(f, ns, name, off, data)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: close: %w", cerr)
	}
	if err != nil || d.nosync || !created {
		return err
	}
	return syncDir(dir)
}

// writeAtFile is WriteAt's work on the open file: bounds check, write,
// truncate past the end, fdatasync.
func (d *Disk) writeAtFile(f *os.File, ns, name string, off int64, data []byte) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat: %w", err)
	}
	if err := checkWriteAt(ns, name, off, fi.Size(), true); err != nil {
		return err
	}
	if _, err := f.WriteAt(data, off); err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	if end := off + int64(len(data)); end < fi.Size() {
		if err := f.Truncate(end); err != nil {
			return fmt.Errorf("store: truncate: %w", err)
		}
	}
	if d.nosync {
		return nil
	}
	if err := datasync(f); err != nil {
		return fmt.Errorf("store: fdatasync: %w", err)
	}
	return nil
}

// Has implements Backend.
func (d *Disk) Has(ctx context.Context, ns, name string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	mu := d.stripe(ns, name)
	mu.RLock()
	defer mu.RUnlock()
	_, err := os.Stat(d.path(ns, name))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: stat: %w", err)
	}
	return true, nil
}

// Delete implements Backend: unlink, then fsync the parent directory
// so the unlink is durable on return, as Put's rename is.
func (d *Disk) Delete(ctx context.Context, ns, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	mu := d.stripe(ns, name)
	mu.Lock()
	defer mu.Unlock()
	err := os.Remove(d.path(ns, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: delete: %w", err)
	}
	if d.nosync {
		return nil
	}
	return syncDir(filepath.Dir(d.path(ns, name)))
}

// List implements Backend. Lock-free: rename-published blobs mean the
// scan sees a consistent name set without excluding writers.
func (d *Disk) List(ctx context.Context, ns string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(d.root, escape(ns)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		// Escaped names never start with '.'; skip temp files and
		// other dotfiles.
		if strings.HasPrefix(e.Name(), ".") {
			continue
		}
		name, err := unescape(e.Name())
		if err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Close implements Backend: it fsyncs the root and every namespace
// directory so all rename-published blobs are durable, then forgets the
// directory cache. Under WithNoSync this is the only fsync the backend
// ever issues — a clean shutdown still lands the name set on disk.
func (d *Disk) Close() error {
	d.dirMu.Lock()
	defer d.dirMu.Unlock()
	var errs []error
	for ns := range d.dirs {
		if err := syncDir(filepath.Join(d.root, escape(ns))); err != nil {
			errs = append(errs, err)
		}
	}
	if err := syncDir(d.root); err != nil {
		errs = append(errs, err)
	}
	d.dirs = make(map[string]bool)
	return errors.Join(errs...)
}
