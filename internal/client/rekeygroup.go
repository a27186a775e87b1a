package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/keyreg"
	"repro/internal/policy"
	"repro/internal/store"
)

// GroupRekeyResult summarizes a group rekey.
type GroupRekeyResult struct {
	// Files is the number of files rekeyed.
	Files int
	// NewVersion is the key-state version now protecting all of them.
	NewVersion uint64
	// StubBytes is the total stub data re-encrypted in bytes (active
	// revocation only).
	StubBytes int64
	// PolicyEncryptions counts CP-ABE encryptions performed — 1,
	// versus len(paths) for file-by-file rekeying; this amortization is
	// the point of group rekeying (the paper's Section IV-D poses it as
	// future work).
	PolicyEncryptions int
	// Elapsed is the wall-clock duration of the whole operation.
	Elapsed time.Duration
}

// RekeyGroup rekeys a set of files owned by this client to one new
// policy, winding the key-regression chain once and performing a single
// policy encryption shared by every file. Semantics per file match
// Rekey: lazy revocation replaces only the key states; active
// revocation also re-encrypts each file's stub file.
func (c *Client) RekeyGroup(ctx context.Context, paths []string, newPol *policy.Node, active bool) (*GroupRekeyResult, error) {
	res, _, err := c.rekey(ctx, paths, newPol, active)
	return res, err
}

// rekey is Rekey and RekeyGroup. It checks everything it can before the
// first write: the arguments, that no file is named twice (a repeat
// would fail only after its first occurrence was rewritten), that every
// file's key state decrypts and, under active revocation, that every
// stub file opens. Then it winds the chain once and seals the new state
// under newPol once, re-sealing the stub files meanwhile under active
// revocation. It also returns each file's key-state version before the
// rekey.
//
// Active revocation writes each file twice, in order: the key state,
// then — once every key state is acknowledged — the stub file, sealed
// under the new state with that version in its header. The recipe is not
// rewritten. A crash before a key-state put leaves the file as it was; a
// crash after it leaves a stub file under an older version than the
// stored state, which every authorized reader unwinds to, exactly as
// after a lazy revocation. So the file stays readable under the old or
// the new key state at every point, and a retried rekey completes the
// revocation.
func (c *Client) rekey(ctx context.Context, paths []string, newPol *policy.Node, active bool) (*GroupRekeyResult, []uint64, error) {
	start := time.Now()
	if c.cfg.Owner == nil {
		return nil, nil, ErrNoOwner
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("client: rekey: no paths")
	}
	if err := newPol.Validate(); err != nil {
		return nil, nil, err
	}
	names := make([]string, len(paths))
	seen := make(map[string]bool, len(paths))
	for i, p := range paths {
		names[i] = c.remoteName(p)
		if seen[names[i]] {
			return nil, nil, fmt.Errorf("client: rekey: %q named twice", p)
		}
		seen[names[i]] = true
	}

	files := make([]*fileMeta, len(names))
	oldVersions := make([]uint64, len(names))
	for i, name := range names {
		var err error
		if active {
			files[i], err = c.readFile(ctx, name, nil)
		} else {
			files[i] = new(fileMeta)
			files[i].state, _, err = c.fetchKeyState(ctx, name)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("client: rekey %q: %w", paths[i], err)
		}
		oldVersions[i] = files[i].state.Version
	}

	// The stub files are re-sealed while the key state is sealed and
	// put, and written only after.
	newState := c.cfg.Owner.Wind()
	var (
		wg        sync.WaitGroup
		stubFiles [][]byte
		sealErr   error
	)
	if active {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stubFiles = make([][]byte, len(files))
			for i, f := range files {
				if stubFiles[i], sealErr = c.sealStubs(f.stubs, newState, names[i]); sealErr != nil {
					return
				}
			}
		}()
	}
	err := c.putKeyStates(ctx, paths, names, newState, newPol)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if sealErr != nil {
		return nil, nil, sealErr
	}

	result := &GroupRekeyResult{
		Files:             len(names),
		NewVersion:        newState.Version,
		PolicyEncryptions: 1,
	}
	for i, stubFile := range stubFiles {
		if err := c.router.PutBlob(ctx, store.NSStubs, names[i], stubFile); err != nil {
			return nil, nil, fmt.Errorf("client: rekey %q: upload stub file: %w", paths[i], err)
		}
		result.StubBytes += int64(len(stubFile))
	}
	result.Elapsed = time.Since(start)
	return result, oldVersions, nil
}

// putKeyStates seals state under pol once and stores it as the key
// state of every named file.
func (c *Client) putKeyStates(ctx context.Context, paths, names []string, state keyreg.State, pol *policy.Node) error {
	blob, err := c.sealKeyState(state, pol)
	if err != nil {
		return err
	}
	for i, name := range names {
		if err := c.putBlob(ctx, c.keyConn, store.NSKeyStates, name, blob); err != nil {
			return fmt.Errorf("client: rekey %q: upload key state: %w", paths[i], err)
		}
	}
	return nil
}
