package client

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/store"
)

// DeleteResult summarizes a deletion.
type DeleteResult struct {
	// Chunks is how many chunk references the file held.
	Chunks int
	// FreedChunks is how many of them were freed outright (no other
	// file references them); the rest remain for other files.
	FreedChunks int
	// Elapsed is the wall-clock duration of the whole operation.
	Elapsed time.Duration
}

// Delete removes the file at path with secure-deletion semantics (the
// AONT-based cryptographic deletion REED builds on [42]):
//
//  1. authorization: the caller must be able to decrypt the file's key
//     state — exactly the users the policy admits may delete;
//  2. cryptographic deletion: the key state and the encrypted stub file
//     are destroyed first, so the file is unrecoverable the moment the
//     call returns, even by an adversary holding every trimmed package;
//  3. space reclamation: each trimmed package loses one reference, and
//     chunks no other file references are garbage-collected
//     (reference-counted, since deduplication shares chunks across
//     files and users).
func (c *Client) Delete(ctx context.Context, path string) (*DeleteResult, error) {
	start := time.Now()
	path = c.remoteName(path)

	// Authorization: decrypting the key state requires a satisfying
	// private access key.
	if _, _, err := c.fetchKeyState(ctx, path); err != nil {
		return nil, err
	}

	rec, err := c.getRecipe(ctx, path)
	if err != nil {
		return nil, err
	}

	// Cryptographic deletion first: without the key state and stub
	// file the content is gone even if everything below fails midway.
	if err := c.deleteBlob(ctx, c.keyConn, store.NSKeyStates, path); err != nil {
		return nil, fmt.Errorf("client: delete key state: %w", err)
	}
	if err := c.router.DeleteBlob(ctx, store.NSStubs, path); err != nil {
		return nil, fmt.Errorf("client: delete stub file: %w", err)
	}
	if err := c.router.DeleteBlob(ctx, store.NSRecipes, path); err != nil {
		return nil, fmt.Errorf("client: delete recipe: %w", err)
	}

	// Space reclamation: drop one reference per chunk, fanned out to
	// the owning shards the same way uploads were.
	fps := make([]fingerprint.Fingerprint, len(rec.Chunks))
	for i, ref := range rec.Chunks {
		fps[i] = ref.Fingerprint
	}
	freed, err := c.router.DerefChunks(ctx, fps)
	if err != nil {
		return nil, fmt.Errorf("client: deref chunks: %w", err)
	}
	return &DeleteResult{
		Chunks:      len(rec.Chunks),
		FreedChunks: int(freed),
		Elapsed:     time.Since(start),
	}, nil
}
