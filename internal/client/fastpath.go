package client

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/policy"
	"repro/internal/recipe"
)

// The whole-file half of the two-phase upload protocol. Before
// chunking anything, an upload whose source can be hashed up front (a
// seekable reader, or chunks already in memory: chunkSource.fileHash)
// hashes the file linearly and asks the cluster's whole-file index whether an identical file — same SHA-256,
// same size, same protection policy — is already stored. On a hit the
// upload collapses to a recipe clone: the client fetches the source
// file's recipe and stub file, takes one fresh reference on every
// chunk, and re-publishes the metadata under the new name with a
// freshly minted file key. No chunking, no OPRF round-trips, no CAONT
// transforms, and no chunk bytes on the wire.
//
// The clone preserves REED's rekeying model because nothing protected
// by the source file's key material is shared: the stubs are decrypted
// with the source file key (which requires CP-ABE-decrypting the
// source key state — the same authorization a download needs) and
// immediately re-sealed under the clone's own key-regression state,
// bound to the clone's name. Rekeying, downloading, or deleting either
// file afterwards proceeds exactly as if both had been uploaded the
// long way.
//
// Index entries are advisory: every hit is re-verified against the
// recipe's embedded FileHash before any bytes are skipped, so a stale
// entry (source overwritten or deleted) costs a round trip and a
// fallback to the full pipeline, never a wrong file.

// wholeFileKey builds the index key for a file's content hash and size
// under pol, whose canonical encoding is hashed into the policy
// dimension. Keying the index per policy means a pre-check can only hit
// files the caller could have uploaded identically, and the CheckFile
// oracle never reveals that some *other* policy's user stored a given
// file (DESIGN.md §11).
func wholeFileKey(hash [sha256.Size]byte, size uint64, pol *policy.Node) fileindex.Key {
	return fileindex.Key{Hash: hash, Size: size, Policy: sha256.Sum256(pol.Marshal())}
}

// checkAndClone runs the whole-file pre-check and, on a hit, clones
// the stored recipe. A nil, nil return means the caller should run the
// full pipeline: the index had no entry, the entry was stale, or the
// clone lost a race with a delete — all cases the full upload handles
// by construction. Only cancellation is fatal. The hit/miss counters
// count completed clones as hits and everything else as misses, so
// upload_wholefile_hits is exactly the number of uploads that skipped
// the pipeline.
func (c *Client) checkAndClone(ctx context.Context, name string, key fileindex.Key, pol *policy.Node) (*UploadResult, error) {
	var res *UploadResult
	srcName, found, err := c.router.CheckFile(ctx, key)
	if err == nil && found {
		res, _ = c.cloneFromRecipe(ctx, name, key, srcName, pol)
	}
	if res == nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.wholeFileMisses.Inc()
		return nil, nil
	}
	c.wholeFileHits.Inc()
	c.skippedBytes.Add(key.Size)
	return res, nil
}

// cloneFromRecipe stores name as a clone of the recipe at srcName:
// the same chunk references (each with one fresh reference taken), a
// freshly minted file key, and a new policy-sealed key state. The
// index hit is verified against the recipe's embedded file hash before
// anything is skipped, and the chunk references are secured before any
// metadata becomes visible, so a concurrent delete of the source can
// abort the clone but never free chunks the clone already published.
func (c *Client) cloneFromRecipe(ctx context.Context, name string, key fileindex.Key, srcName string, pol *policy.Node) (*UploadResult, error) {
	start := time.Now()
	retryBefore := c.retrySnapshot()

	// Ground-truth check, before any ABE decryption: the recipe must
	// describe exactly the bytes we are about to not upload. A mismatch
	// means the index entry went stale (the source was overwritten since
	// registration). Then the authorization gate: recovering the source
	// file key requires CP-ABE-decrypting its key state — the same
	// capability the policy grants a downloader, so a client that cannot
	// open the source cannot clone it.
	src, err := c.readFile(ctx, srcName, func(rec *recipe.Recipe) error {
		if rec.FileHash != key.Hash || rec.Size != key.Size {
			return fmt.Errorf("index entry for %q is stale", srcName)
		}
		if rec.Scheme != uint8(c.cfg.Scheme) {
			return fmt.Errorf("source uses scheme %d, client scheme %d", rec.Scheme, c.cfg.Scheme)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("client: clone: %w", err)
	}
	rec, stubs := src.rec, src.stubs

	// Take one fresh reference on every chunk — duplicates within the
	// recipe included, each occurrence needs its own — before any
	// metadata is published, so deleting the source cannot free chunks
	// the clone relies on.
	fps := make([]fingerprint.Fingerprint, len(rec.Chunks))
	for i := range rec.Chunks {
		fps[i] = rec.Chunks[i].Fingerprint
	}
	found, err := c.router.RefChunks(ctx, fps)
	if err != nil {
		return nil, fmt.Errorf("client: clone: ref chunks: %w", err)
	}
	taken := fps[:0]
	for i, ok := range found {
		if ok {
			taken = append(taken, fps[i])
		}
	}
	if missing := len(fps) - len(taken); missing > 0 {
		// A concurrent delete freed some of the source's chunks between
		// the index hit and the ref. Compensate the references we did
		// take, best-effort: a failure here over-retains (the same
		// algebra as a re-sent PUT batch), never dangles data.
		if len(taken) > 0 {
			_, _ = c.router.DerefChunks(ctx, taken)
		}
		return nil, fmt.Errorf("client: clone: %d source chunks no longer stored", missing)
	}

	// Publish the same recipe under the clone's name and a fresh file
	// key: the clone's stubs seal under this client's current
	// key-regression state, bound to the clone's own name, so rekey and
	// delete treat the clone exactly like a fresh upload.
	rec.Path = name
	if err := c.publishFile(ctx, rec, stubs, pol); err != nil {
		return nil, err
	}
	return &UploadResult{
		Chunks:          len(rec.Chunks),
		LogicalBytes:    int64(rec.Size),
		DuplicateChunks: len(rec.Chunks),
		KeyVersion:      rec.KeyVersion,
		WholeFileHit:    true,
		SkippedChunks:   len(rec.Chunks),
		SkippedBytes:    int64(rec.Size),
		Retry:           c.retryDelta(retryBefore),
		Elapsed:         time.Since(start),
	}, nil
}
