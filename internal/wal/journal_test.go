package wal

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/store"
)

// lines is the smallest useful State: an append-only list of strings,
// one record per string.
type lines []string

func (l *lines) Apply(_ context.Context, rec []byte) error {
	if len(rec) == 0 {
		return errors.New("lines: empty record")
	}
	*l = append(*l, string(rec))
	return nil
}

func (l *lines) EncodeSnapshot(w *binenc.Writer) {
	w.Uvarint(uint64(len(*l)))
	for _, s := range *l {
		w.String(s)
	}
}

func (l *lines) DecodeSnapshot(r *binenc.Reader) error {
	n, err := r.Uvarint()
	if err != nil {
		return err
	}
	*l = nil
	for i := uint64(0); i < n; i++ {
		s, err := r.ReadString()
		if err != nil {
			return err
		}
		*l = append(*l, s)
	}
	return nil
}

var linesSpec = Spec{
	Owner: "lines", Namespace: store.NSWAL, Prefix: "w",
	Blob: "lines-snapshot", Version: 7, CheckpointEvery: 64,
}

func openLines(t *testing.T, b store.Backend) (*Journal, *lines) {
	t.Helper()
	state := new(lines)
	j, err := OpenJournal(ctx, b, linesSpec, state)
	if err != nil {
		t.Fatal(err)
	}
	return j, state
}

// add applies and journals one line, as an owner would under its lock.
func add(j *Journal, state *lines, s string) {
	*state = append(*state, s)
	j.Record([]byte(s))
}

func segments(t *testing.T, b store.Backend) []string {
	t.Helper()
	names, err := b.List(ctx, store.NSWAL)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestJournalLifecycle walks one journal through every transition and
// reopens the backend after each, as a crash at that point would.
func TestJournalLifecycle(t *testing.T) {
	b := store.NewMemory()
	j, state := openLines(t, b)

	// Recorded but not committed: a crash forgets it.
	add(j, state, "lost")
	if _, got := openLines(t, b); len(*got) != 0 {
		t.Fatalf("uncommitted record recovered: %v", *got)
	}

	// Committed below the checkpoint threshold: one segment, no snapshot.
	if err := j.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := segments(t, b); len(got) != 1 {
		t.Fatalf("segments after first commit = %v", got)
	}
	if ok, _ := b.Has(ctx, store.NSMeta, linesSpec.Blob); ok {
		t.Fatal("checkpointed below the threshold")
	}
	if _, got := openLines(t, b); len(*got) != 1 || (*got)[0] != "lost" {
		t.Fatalf("recovered %v from the WAL alone", *got)
	}

	// Sync writes a segment past the threshold but never checkpoints.
	add(j, state, strings.Repeat("x", 80))
	if err := j.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, _ := b.Has(ctx, store.NSMeta, linesSpec.Blob); ok {
		t.Fatal("Sync checkpointed")
	}

	// The next Commit does, and truncates the log to nothing.
	add(j, state, "third")
	if err := j.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := segments(t, b); len(got) != 0 {
		t.Fatalf("segments after checkpoint = %v", got)
	}
	if _, got := openLines(t, b); len(*got) != 3 {
		t.Fatalf("recovered %v from the snapshot alone", *got)
	}

	// A journal reopened over an empty log keeps numbering above the
	// snapshot's position, so its segments are visible to the next Open.
	j2, state2 := openLines(t, b)
	add(j2, state2, "fourth")
	if err := j2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := segments(t, b); len(got) != 1 || got[0] != "w0000000000000003" {
		t.Fatalf("segments after reopen + commit = %v", got)
	}
	_, got := openLines(t, b)
	if want := []string(*state2); len(*got) != 4 || (*got)[3] != want[3] {
		t.Fatalf("recovered %v, want %v", *got, want)
	}
}

func TestJournalAutoCommit(t *testing.T) {
	b := store.NewMemory()
	j, state := openLines(t, b)
	add(j, state, strings.Repeat("a", autoCommitBytes/2))
	if err := j.AutoCommit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := segments(t, b); len(got) != 0 {
		t.Fatalf("auto-committed below the bound: %v", got)
	}
	add(j, state, strings.Repeat("b", autoCommitBytes/2))
	if err := j.AutoCommit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, got := openLines(t, b); len(*got) != 2 {
		t.Fatalf("recovered %d lines after auto-commit, want 2", len(*got))
	}
}

// failingPuts fails every Put while armed.
type failingPuts struct {
	store.Backend
	armed bool
}

func (f *failingPuts) Put(ctx context.Context, ns, name string, data []byte) error {
	if f.armed {
		return errors.New("injected put failure")
	}
	return f.Backend.Put(ctx, ns, name, data)
}

// TestJournalKeepsRecordsWhenCommitFails: a failed segment write loses
// nothing; the retry writes the same records.
func TestJournalKeepsRecordsWhenCommitFails(t *testing.T) {
	b := &failingPuts{Backend: store.NewMemory(), armed: true}
	j, state := openLines(t, b)
	add(j, state, "kept")
	if err := j.Commit(ctx); err == nil {
		t.Fatal("Commit succeeded over a failing backend")
	}
	b.armed = false
	if err := j.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, got := openLines(t, b); len(*got) != 1 || (*got)[0] != "kept" {
		t.Fatalf("recovered %v", *got)
	}
}

func TestJournalRejectsBadSnapshotAndBadRecord(t *testing.T) {
	b := store.NewMemory()
	j, state := openLines(t, b)
	add(j, state, "one")
	if err := j.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	good, err := b.Get(ctx, store.NSMeta, linesSpec.Blob)
	if err != nil {
		t.Fatal(err)
	}
	otherVersion := linesSpec
	otherVersion.Version++
	if _, err := OpenJournal(ctx, b, otherVersion, new(lines)); err == nil {
		t.Error("opened a snapshot of another version")
	}
	for name, blob := range map[string][]byte{
		"short":    good[:4],
		"bit flip": append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1),
	} {
		if _, err := DecodeSnapshot(linesSpec, blob, new(lines)); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
	}

	// A record the state refuses fails Open instead of being skipped.
	j.Record(nil)
	if err := j.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(ctx, b, linesSpec, new(lines)); err == nil {
		t.Error("opened over a record Apply rejects")
	}
}
