package dedup

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fingerprint"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestRandomOpSequenceInvariants drives the store with random
// put/dup/deref/get/flush/commit/crash sequences and checks the core
// invariants after every step against a naive reference model (see
// runOpSequence).
func TestRandomOpSequenceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		runOpSequence(t, seed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// FuzzStoreCrash runs the same model over fuzzer-chosen seeds.
func FuzzStoreCrash(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runOpSequence(t, seed)
	})
}

// modelChunk is the reference model's view of one chunk.
type modelChunk struct {
	data []byte
	refs int
}

func cloneModel(m map[fingerprint.Fingerprint]modelChunk) map[fingerprint.Fingerprint]modelChunk {
	out := make(map[fingerprint.Fingerprint]modelChunk, len(m))
	for fp, c := range m {
		out[fp] = c
	}
	return out
}

// runOpSequence is the store's crash model. It checks, after every
// step:
//
//   - Get returns exactly what Put stored, for every live chunk;
//   - a chunk is live iff its model refcount is positive;
//   - PhysicalBytes equals the summed size of live chunks.
//
// The model also keeps the durable state: a copy taken at every Commit
// and Flush, and at every Deref whose compaction committed the log
// itself (a Put that compacts commits before it journals the put). A
// crash cuts the power to the store's backend, half the time while a
// commit writes the open container's tail (if it has one to write):
// that write lands torn, as storetest.Faulty.Cut leaves a write in
// flight, and the commit's log batch never does. A new store opened on
// what the cut left must match the durable copy on every Get, Refs and
// Stats field. The stream stays far below autoCommitBytes (300 steps,
// at most 1.7 KB per put), so no commit happens that the model does not
// see.
func runOpSequence(t *testing.T, seed int64) {
	t.Helper()
	const containerSize = 4096 // small containers: plenty of sealing/compaction
	rng := rand.New(rand.NewSource(seed))
	faults := storetest.New()
	s, err := Open(ctx, faults.View("server"), containerSize)
	if err != nil {
		t.Fatal(err)
	}

	model := make(map[fingerprint.Fingerprint]modelChunk)
	durable, durableStats := cloneModel(model), s.Stats()
	var pool []fingerprint.Fingerprint // insertion order, may contain dead entries
	commit := func() {
		durable, durableStats = cloneModel(model), s.Stats()
	}

	liveFPs := func() []fingerprint.Fingerprint {
		var out []fingerprint.Fingerprint
		for _, fp := range pool {
			if m, ok := model[fp]; ok && m.refs > 0 {
				out = append(out, fp)
			}
		}
		return out
	}
	newChunk := func() ([]byte, fingerprint.Fingerprint) {
		data := make([]byte, 200+rng.Intn(1500))
		rng.Read(data)
		return data, fingerprint.New(data)
	}
	checkAll := func(step int) {
		t.Helper()
		var wantPhysical uint64
		for fp, m := range model {
			if m.refs <= 0 {
				if s.Has(fp) {
					t.Fatalf("seed %d step %d: dead chunk still present", seed, step)
				}
				continue
			}
			wantPhysical += uint64(len(m.data))
			if got := s.Refs(fp); int(got) != m.refs {
				t.Fatalf("seed %d step %d: refs = %d, model %d", seed, step, got, m.refs)
			}
			got, err := s.Get(ctx, fp)
			if err != nil || !bytes.Equal(got, m.data) {
				t.Fatalf("seed %d step %d: Get mismatch: %v", seed, step, err)
			}
		}
		for _, fp := range pool {
			if _, ok := model[fp]; !ok && s.Has(fp) {
				t.Fatalf("seed %d step %d: uncommitted chunk survived the crash", seed, step)
			}
		}
		if got := s.Stats().PhysicalBytes; got != wantPhysical {
			t.Fatalf("seed %d step %d: PhysicalBytes = %d, model %d", seed, step, got, wantPhysical)
		}
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(12); {
		case op < 4: // put a new or existing chunk
			var data []byte
			var fp fingerprint.Fingerprint
			if len(pool) > 0 && rng.Intn(2) == 0 {
				fp = pool[rng.Intn(len(pool))]
				if m, ok := model[fp]; ok && m.refs > 0 {
					data = m.data
				} else {
					data, fp = newChunk()
				}
			} else {
				data, fp = newChunk()
			}
			before, beforeStats := cloneModel(model), s.Stats()
			if _, err := s.Put(ctx, fp, data); err != nil {
				t.Fatalf("seed %d step %d: Put: %v", seed, step, err)
			}
			if m, ok := model[fp]; ok && m.refs > 0 {
				m.refs++
				model[fp] = m
			} else {
				model[fp] = modelChunk{data: data, refs: 1}
				pool = append(pool, fp)
			}
			if compacted := s.Stats().CompactedContainers; compacted != beforeStats.CompactedContainers {
				// Making room sealed a container that compaction then
				// reclaimed, committing the log before this put was
				// journaled: the durable state is the one before the
				// put, plus the compaction, which moves no counter but
				// its own.
				durable, durableStats = before, beforeStats
				durableStats.CompactedContainers = compacted
			}

		case op < 7: // deref a random live chunk
			live := liveFPs()
			if len(live) == 0 {
				continue
			}
			fp := live[rng.Intn(len(live))]
			compacted := s.Stats().CompactedContainers
			if _, err := s.Deref(ctx, fp); err != nil {
				t.Fatalf("seed %d step %d: Deref: %v", seed, step, err)
			}
			m := model[fp]
			m.refs--
			model[fp] = m
			if s.Stats().CompactedContainers != compacted {
				commit()
			}

		case op < 9: // get a random live chunk
			live := liveFPs()
			if len(live) == 0 {
				continue
			}
			fp := live[rng.Intn(len(live))]
			got, err := s.Get(ctx, fp)
			if err != nil {
				t.Fatalf("seed %d step %d: Get: %v", seed, step, err)
			}
			if !bytes.Equal(got, model[fp].data) {
				t.Fatalf("seed %d step %d: Get returned wrong bytes", seed, step)
			}

		case op < 10: // commit
			if err := s.Commit(ctx); err != nil {
				t.Fatalf("seed %d step %d: Commit: %v", seed, step, err)
			}
			commit()

		case op < 11: // flush (seal + persist)
			if err := s.Flush(ctx); err != nil {
				t.Fatalf("seed %d step %d: Flush: %v", seed, step, err)
			}
			commit()

		default: // crash: cut the power, recover from what it left
			if rng.Intn(2) == 0 {
				at := &storetest.Rule{Ops: storetest.WriteAt, NS: []string{store.NSContainers}}
				if lost, _ := faults.CutAt(rng, at, func() error { return s.Commit(ctx) }, "server"); lost < 0 {
					commit() // there was no tail to write, and the commit landed
				}
			}
			faults.Cut(rng, "server")
			if s, err = Open(ctx, faults.View("server"), containerSize); err != nil {
				t.Fatalf("seed %d step %d: recovery: %v", seed, step, err)
			}
			model = cloneModel(durable)
			if got := s.Stats(); got != durableStats {
				t.Fatalf("seed %d step %d: stats after recovery = %+v, want %+v", seed, step, got, durableStats)
			}
			checkAll(step)
		}
	}
	checkAll(300)
}
