package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

func (l *lines) DecodeSnapshot(r *binenc.Reader, _ uint8) error {
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

func (l *lines) Unstaged() int                 { return 0 }
func (l *lines) Stage(_ context.Context) error { return nil }
func (l *lines) Fold(_ context.Context) error  { return nil }

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

	// Committed below the checkpoint threshold: one batch in one
	// segment, no snapshot.
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

	// Sync appends a batch past the threshold but never checkpoints.
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
	if got := segments(t, b); len(got) != 1 || got[0] != "w0000000000000001" {
		t.Fatalf("segments after reopen + commit = %v", got)
	}
	_, got := openLines(t, b)
	if want := []string(*state2); len(*got) != 4 || (*got)[3] != want[3] {
		t.Fatalf("recovered %v, want %v", *got, want)
	}
}

// staged is lines that also keep bytes outside the log: unstaged of
// them, made durable by Stage, which fails while fail is set.
type staged struct {
	lines
	unstaged, stages int
	fail             bool
}

var errStage = errors.New("stage failed")

func (s *staged) Unstaged() int { return s.unstaged }

func (s *staged) Stage(_ context.Context) error {
	if s.fail {
		return errStage
	}
	s.stages++
	s.unstaged = 0
	return nil
}

// TestJournalStagesBeforeEverySegment: every path that writes a batch
// or a snapshot stages first, a failed stage writes nothing, and
// AutoCommit counts unstaged bytes toward its bound.
func TestJournalStagesBeforeEverySegment(t *testing.T) {
	b := store.NewMemory()
	st := new(staged)
	j, err := OpenJournal(ctx, b, linesSpec, st)
	if err != nil {
		t.Fatal(err)
	}
	j.Record([]byte("a"))
	st.fail = true
	if err := j.Commit(ctx); !errors.Is(err, errStage) {
		t.Fatalf("Commit = %v, want the stage failure", err)
	}
	if got := segments(t, b); len(got) != 0 {
		t.Fatalf("a failed stage still wrote segments %v", got)
	}
	st.fail = false
	if err := j.Sync(ctx); err != nil || st.stages != 1 || j.Census().Commits != 1 {
		t.Fatalf("Sync = %v: %d stages, census %+v", err, st.stages, j.Census())
	}

	j.Record([]byte("b"))
	st.unstaged = autoCommitBytes - 1
	if err := j.AutoCommit(ctx); err != nil || st.stages != 2 || j.Census().Commits != 2 {
		t.Fatalf("AutoCommit = %v: %d stages, census %+v; want the unstaged bytes to force a commit",
			err, st.stages, j.Census())
	}

	st.unstaged = 1 // nothing buffered, but the snapshot may name it
	if err := j.Checkpoint(ctx); err != nil || st.stages != 3 {
		t.Fatalf("Checkpoint = %v after %d stages, want 3", err, st.stages)
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

// TestJournalKeepsRecordsWhenCommitFails: a batch write that fails
// midway loses nothing; the retry writes the same records over the torn
// bytes.
func TestJournalKeepsRecordsWhenCommitFails(t *testing.T) {
	b := &tearingWrites{Backend: store.NewMemory()}
	j, state := openLines(t, b)
	add(j, state, "first")
	if err := j.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	add(j, state, "kept")
	b.armed = true
	if err := j.Commit(ctx); err == nil {
		t.Fatal("Commit succeeded over a failing backend")
	}
	b.armed = false
	if err := j.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, got := openLines(t, b); fmt.Sprint(*got) != "[first kept]" {
		t.Fatalf("recovered %v", *got)
	}
}

// folded is lines whose records also live outside the snapshot until
// Fold writes them there; the order of calls is logged.
type folded struct {
	lines
	calls []string
	fail  bool
}

func (f *folded) Stage(_ context.Context) error {
	f.calls = append(f.calls, "stage")
	return nil
}

func (f *folded) Fold(_ context.Context) error {
	if f.fail {
		return errors.New("fold failed")
	}
	f.calls = append(f.calls, "fold")
	return nil
}

func (f *folded) EncodeSnapshot(w *binenc.Writer) {
	f.calls = append(f.calls, "snapshot")
	f.lines.EncodeSnapshot(w)
}

// TestJournalFoldsBeforeTheSnapshot: a checkpoint folds after its last
// batch and before the snapshot, and a failed fold writes no snapshot
// and truncates nothing.
func TestJournalFoldsBeforeTheSnapshot(t *testing.T) {
	b := store.NewMemory()
	st := &folded{fail: true}
	j, err := OpenJournal(ctx, b, linesSpec, st)
	if err != nil {
		t.Fatal(err)
	}
	st.lines = append(st.lines, "x")
	j.Record([]byte("x"))
	if err := j.Checkpoint(ctx); err == nil {
		t.Fatal("Checkpoint succeeded with a failing fold")
	}
	if ok, _ := b.Has(ctx, store.NSMeta, linesSpec.Blob); ok || len(segments(t, b)) != 1 {
		t.Fatalf("a failed fold left snapshot %v, segments %v", ok, segments(t, b))
	}
	st.fail, st.calls = false, nil
	if err := j.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(st.calls) != "[stage fold snapshot]" {
		t.Fatalf("checkpoint calls = %v", st.calls)
	}
	if got := segments(t, b); len(got) != 0 {
		t.Fatalf("segments after checkpoint = %v", got)
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
	otherVersion.OldestVersion = linesSpec.Version
	if _, err := OpenJournal(ctx, b, otherVersion, new(lines)); err != nil {
		t.Errorf("a spec reading versions %d to %d refused a version-%d snapshot: %v",
			otherVersion.OldestVersion, otherVersion.Version, linesSpec.Version, err)
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
