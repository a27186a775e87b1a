package client

import (
	"context"
	"fmt"
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
// would fail only after its first occurrence was rewritten), and that
// every file's key state decrypts. Then it winds the chain once, seals
// the new state under newPol once, and replaces each file's key state,
// re-sealing its stub file too under active revocation. It also returns
// each file's key-state version before the rekey.
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

	oldStates := make([]keyreg.State, len(names))
	derivPubs := make([]keyreg.Public, len(names))
	oldVersions := make([]uint64, len(names))
	for i, name := range names {
		var err error
		if oldStates[i], derivPubs[i], err = c.fetchKeyState(ctx, name); err != nil {
			return nil, nil, fmt.Errorf("client: rekey %q: %w", paths[i], err)
		}
		oldVersions[i] = oldStates[i].Version
	}

	newState := c.cfg.Owner.Wind()
	stateBlob, err := c.sealKeyState(newState, newPol)
	if err != nil {
		return nil, nil, err
	}
	result := &GroupRekeyResult{
		Files:             len(names),
		NewVersion:        newState.Version,
		PolicyEncryptions: 1,
	}
	for i, name := range names {
		if err := c.putBlob(ctx, c.keyConn, store.NSKeyStates, name, stateBlob); err != nil {
			return nil, nil, fmt.Errorf("client: rekey %q: upload key state: %w", paths[i], err)
		}
		if !active {
			continue
		}
		stubBytes, err := c.reencryptStubs(ctx, name, oldStates[i], derivPubs[i], newState)
		if err != nil {
			return nil, nil, fmt.Errorf("client: rekey %q: %w", paths[i], err)
		}
		result.StubBytes += int64(stubBytes)
	}
	result.Elapsed = time.Since(start)
	return result, oldVersions, nil
}

// reencryptStubs re-seals a file's stub file under the new state's file
// key and bumps the recipe's key version to match. It returns the
// re-encrypted stub file size.
func (c *Client) reencryptStubs(ctx context.Context, name string, oldState keyreg.State, derivPub keyreg.Public, newState keyreg.State) (int, error) {
	rec, err := c.getRecipe(ctx, name)
	if err != nil {
		return 0, err
	}
	stubs, err := c.openStubs(ctx, name, rec, oldState, derivPub)
	if err != nil {
		return 0, err
	}
	reStubFile, err := c.sealStubs(stubs, newState, name)
	if err != nil {
		return 0, err
	}
	if err := c.router.PutBlob(ctx, store.NSStubs, name, reStubFile); err != nil {
		return 0, fmt.Errorf("client: re-upload stub file: %w", err)
	}
	rec.KeyVersion = newState.Version
	if err := c.router.PutBlob(ctx, store.NSRecipes, name, rec.Marshal()); err != nil {
		return 0, fmt.Errorf("client: re-upload recipe: %w", err)
	}
	return len(reStubFile), nil
}
