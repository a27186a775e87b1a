package keycache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fingerprint"
)

func fp(s string) fingerprint.Fingerprint { return fingerprint.New([]byte(s)) }

func TestPutGet(t *testing.T) {
	c, err := New(DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("0123456789abcdef0123456789abcdef")
	c.Put(fp("a"), key)
	got, ok := c.Get(fp("a"))
	if !ok || !bytes.Equal(got, key) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := c.Get(fp("missing")); ok {
		t.Fatal("Get on missing fingerprint returned ok")
	}
}

func TestNewInvalidCapacity(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) expected error")
	}
	if _, err := New(-5); err == nil {
		t.Fatal("New(-5) expected error")
	}
}

func TestPutCopiesKey(t *testing.T) {
	c, _ := New(DefaultCapacity)
	key := []byte("mutable-key-bytes-mutable-key-by")
	c.Put(fp("a"), key)
	key[0] ^= 0xFF
	got, _ := c.Get(fp("a"))
	if got[0] == key[0] {
		t.Fatal("cache stored a reference to the caller's slice")
	}
}

func TestLRUEviction(t *testing.T) {
	// Each entry costs 32 (fp) + 32 (key) + 64 overhead = 128 bytes.
	c, _ := New(128 * 3)
	key := make([]byte, 32)
	c.Put(fp("1"), key)
	c.Put(fp("2"), key)
	c.Put(fp("3"), key)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Touch 1 so 2 becomes LRU, then insert 4.
	c.Get(fp("1"))
	c.Put(fp("4"), key)
	if c.Len() != 3 {
		t.Fatalf("Len after eviction = %d, want 3", c.Len())
	}
	if _, ok := c.Get(fp("2")); ok {
		t.Fatal("expected LRU entry 2 to be evicted")
	}
	for _, s := range []string{"1", "3", "4"} {
		if _, ok := c.Get(fp(s)); !ok {
			t.Fatalf("entry %s unexpectedly evicted", s)
		}
	}
}

func TestPutRefreshExisting(t *testing.T) {
	c, _ := New(DefaultCapacity)
	c.Put(fp("a"), []byte("old-key-old-key-old-key-old-key-"))
	c.Put(fp("a"), []byte("new-key-new-key-new-key-new-key-"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	got, _ := c.Get(fp("a"))
	if !bytes.Equal(got, []byte("new-key-new-key-new-key-new-key-")) {
		t.Fatal("refresh did not replace the key")
	}
}

func TestUsedAccounting(t *testing.T) {
	c, _ := New(DefaultCapacity)
	if c.Used() != 0 {
		t.Fatalf("initial Used = %d", c.Used())
	}
	c.Put(fp("a"), make([]byte, 32))
	want := int64(32 + 32 + 64)
	if c.Used() != want {
		t.Fatalf("Used = %d, want %d", c.Used(), want)
	}
	c.Clear()
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("Clear did not reset the cache")
	}
}

func TestStats(t *testing.T) {
	c, _ := New(DefaultCapacity)
	c.Put(fp("a"), make([]byte, 32))
	c.Get(fp("a"))
	c.Get(fp("a"))
	c.Get(fp("b"))
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses; want 2, 1", hits, misses)
	}
}

func TestOversizedEntryEvictsEverything(t *testing.T) {
	c, _ := New(100)
	c.Put(fp("big"), make([]byte, 200))
	// Entry cannot fit; the cache must not exceed capacity and must not
	// wedge.
	if c.Used() > 100 {
		t.Fatalf("Used = %d exceeds capacity", c.Used())
	}
	if c.Len() != 0 {
		t.Fatalf("oversized entry retained, Len = %d", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fp(fmt.Sprintf("%d-%d", g, i%50))
				c.Put(id, make([]byte, 32))
				c.Get(id)
				c.PutResult(id, id, make([]byte, 64))
				c.Result(id)
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > 1<<20 {
		t.Fatalf("Used = %d exceeds capacity after concurrent load", c.Used())
	}
}

func BenchmarkGetHit(b *testing.B) {
	c, _ := New(DefaultCapacity)
	id := fp("hot")
	c.Put(id, make([]byte, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(id); !ok {
			b.Fatal("miss")
		}
	}
}

// TestRandomOpsNeverExceedCapacity drives the cache with random
// put/get/result/clear sequences and checks the byte bound, the
// accounting, hit coherence and that a result is stored only beside a
// key, after every operation.
func TestRandomOpsNeverExceedCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(256 + rng.Intn(4096))
		c, err := New(capacity)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[fingerprint.Fingerprint][]byte)
		for step := 0; step < 500; step++ {
			switch rng.Intn(10) {
			case 9:
				c.Clear()
				live = make(map[fingerprint.Fingerprint][]byte)
			case 7, 8:
				id := fp(fmt.Sprintf("%d-%d", seed, rng.Intn(40)))
				_, held := c.entries[id]
				if stored := c.PutResult(id, id, make([]byte, 32+rng.Intn(64))); stored != held {
					t.Fatalf("seed %d step %d: PutResult = %v with key cached = %v", seed, step, stored, held)
				}
			default:
				id := fp(fmt.Sprintf("%d-%d", seed, rng.Intn(40)))
				key := make([]byte, 16+rng.Intn(48))
				rng.Read(key)
				c.Put(id, key)
				live[id] = append([]byte(nil), key...)
				if got, ok := c.Get(id); ok {
					if !bytes.Equal(got, live[id]) {
						t.Fatalf("seed %d step %d: stale value", seed, step)
					}
				}
			}
			if used := c.Used(); used > capacity {
				t.Fatalf("seed %d step %d: used %d exceeds capacity %d", seed, step, used, capacity)
			}
			var sum int64
			for _, el := range c.entries {
				sum += c.cost(el.Value.(*entry))
			}
			if sum != c.Used() {
				t.Fatalf("seed %d step %d: used %d, entries account %d", seed, step, c.Used(), sum)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestZeroizeOnDrop pins the scrubbing behavior: keys leaving the cache
// (eviction or Clear) are zeroized in place, and Get hands out copies so
// scrubbing can never corrupt a key a caller is still using.
func TestZeroizeOnDrop(t *testing.T) {
	c, err := New(2 * (32 + 32 + entryOverhead))
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{0xAA}, 32)
	fp := fingerprint.New([]byte("a"))
	c.Put(fp, key)

	got, ok := c.Get(fp)
	if !ok {
		t.Fatal("key missing")
	}
	if &got[0] == &c.entries[fp].Value.(*entry).key[0] {
		t.Fatal("Get returned the interior buffer, not a copy")
	}

	internal := c.entries[fp].Value.(*entry).key
	c.Clear()
	if !bytes.Equal(internal, make([]byte, 32)) {
		t.Fatal("Clear did not zeroize the dropped key")
	}
	if !bytes.Equal(got, key) {
		t.Fatal("caller's copy was clobbered by Clear")
	}

	// Refill past capacity: the evicted LRU entry must be scrubbed too.
	c.Put(fp, key)
	evictee := c.entries[fp].Value.(*entry).key
	for i := 0; i < 2; i++ {
		c.Put(fingerprint.New([]byte{byte(i)}), key)
	}
	if _, ok := c.Get(fp); ok {
		t.Fatal("expected fp to be evicted")
	}
	if !bytes.Equal(evictee, make([]byte, 32)) {
		t.Fatal("eviction did not zeroize the dropped key")
	}
}

// TestResultLivesWithItsKey: a result is refused without a key, comes
// back as a copy, survives a refresh with the same key and is dropped
// (and wiped) by a refresh with another.
func TestResultLivesWithItsKey(t *testing.T) {
	c, _ := New(DefaultCapacity)
	stub := bytes.Repeat([]byte{0xC3}, 64)
	if c.PutResult(fp("a"), fp("trim-a"), stub) {
		t.Fatal("PutResult stored a result for a fingerprint with no key")
	}
	if _, _, ok := c.Result(fp("a")); ok {
		t.Fatal("Result found something in an empty cache")
	}

	key := bytes.Repeat([]byte{0x11}, 32)
	c.Put(fp("a"), key)
	if _, _, ok := c.Result(fp("a")); ok {
		t.Fatal("Result reported one before PutResult")
	}
	if !c.PutResult(fp("a"), fp("trim-a"), stub) {
		t.Fatal("PutResult refused a result beside its key")
	}
	stub[0] = 0 // the cache copied it
	gotTrim, gotStub, ok := c.Result(fp("a"))
	if !ok || gotTrim != fp("trim-a") || !bytes.Equal(gotStub, bytes.Repeat([]byte{0xC3}, 64)) {
		t.Fatalf("Result = %x, %d stub bytes, %v", gotTrim, len(gotStub), ok)
	}
	interior := c.entries[fp("a")].Value.(*entry).stub
	if &gotStub[0] == &interior[0] {
		t.Fatal("Result returned the interior buffer, not a copy")
	}

	c.Put(fp("a"), key)
	if _, _, ok := c.Result(fp("a")); !ok {
		t.Fatal("refreshing with the same key dropped the result")
	}
	c.Put(fp("a"), bytes.Repeat([]byte{0x22}, 32))
	if _, _, ok := c.Result(fp("a")); ok {
		t.Fatal("a result outlived the key it was computed under")
	}
	if !bytes.Equal(interior, make([]byte, 64)) {
		t.Fatal("replacing the key did not zeroize the stub")
	}
	if want := int64(32 + 32 + entryOverhead); c.Used() != want {
		t.Fatalf("Used = %d after the result was dropped, want %d", c.Used(), want)
	}
}

// TestResultAccounting: the result's bytes count against the capacity,
// and Result moves neither the hit/miss counters nor the LRU order.
func TestResultAccounting(t *testing.T) {
	const withResult = 32 + 32 + entryOverhead + 32 + 64
	c, _ := New(2 * withResult)
	key := make([]byte, 32)
	c.Put(fp("a"), key)
	c.Put(fp("b"), key)
	c.PutResult(fp("a"), fp("trim-a"), make([]byte, 64))
	c.PutResult(fp("b"), fp("trim-b"), make([]byte, 64))
	if c.Used() != 2*withResult {
		t.Fatalf("Used = %d, want %d", c.Used(), 2*withResult)
	}

	hits, misses := c.Stats()
	c.Result(fp("a")) // oldest entry: a lookup must not promote it
	c.Result(fp("missing"))
	if h, m := c.Stats(); h != hits || m != misses {
		t.Fatalf("Result moved Stats from %d/%d to %d/%d", hits, misses, h, m)
	}
	c.Put(fp("c"), key)
	if _, ok := c.Get(fp("a")); ok {
		t.Fatal("Result promoted its entry: the oldest one was not the one evicted")
	}
	if _, ok := c.Get(fp("b")); !ok {
		t.Fatal("the newer entry was evicted")
	}
}

// TestZeroizeResultOnDrop: stubs leaving the cache by eviction or Clear
// are zeroized in place, like keys.
func TestZeroizeResultOnDrop(t *testing.T) {
	const withResult = 32 + 32 + entryOverhead + 32 + 64
	c, _ := New(withResult)
	key := bytes.Repeat([]byte{0xAA}, 32)
	stub := bytes.Repeat([]byte{0xBB}, 64)
	for _, drop := range []func(){
		c.Clear,
		func() { c.Put(fp("other"), key) }, // evicts: capacity is one entry
	} {
		c.Put(fp("a"), key)
		c.PutResult(fp("a"), fp("trim-a"), stub)
		interior := c.entries[fp("a")].Value.(*entry).stub
		drop()
		if _, _, ok := c.Result(fp("a")); ok {
			t.Fatal("result still cached after its entry was dropped")
		}
		if !bytes.Equal(interior, make([]byte, 64)) {
			t.Fatal("dropping the entry did not zeroize the stub")
		}
	}
}
