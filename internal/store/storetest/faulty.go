// Package storetest provides Faulty, the one fault-injecting
// store.Backend that tests run storage code on. Only tests import it.
//
// A Faulty is a set of named in-memory disks, one per storage server,
// and one rule set they share, so a test can count or fail an
// operation across a whole cluster. A View is a server's handle on its
// disk and implements store.Backend. Rules match calls by view,
// operation, namespace and name, and by how many matching calls came
// before; a rule fails a write, tears it, holds a call at a gate,
// delays it, or corrupts what a range read returns, and every rule
// counts the calls it matches.
//
// Cut models a power cut. Each disk it names keeps only what the
// store.Backend contract makes durable: every write that has returned,
// plus each write still in flight landed as a crash may leave it (see
// Cut). Writes, Get and GetRange through handles opened before the cut
// fail, as the process that held them is gone (Has and List still read
// the disk as it was); a restarted server opens a new View on the same
// disk.
//
// Copy and Load build the other stores storage tests start from: a
// copy of a disk to tear by hand, and the store a package's committed
// at-rest format fixtures describe.
package storetest

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// ErrInjected is the error a rule's Fail or Tear makes a write return.
var ErrInjected = errors.New("storetest: injected fault")

// ErrPowerCut is returned by every Put, WriteAt, Delete, Get and
// GetRange on a View opened before the last Cut of its disk, a call in
// flight at the cut included.
var ErrPowerCut = errors.New("storetest: power cut")

// Op is a set of the Backend operations rules match.
type Op uint8

const (
	Put Op = 1 << iota
	Get
	GetRange
	WriteAt
	Delete
)

// Rule picks calls and says what happens to them. A rule matches a
// call when every field set among View, Ops, NS and Name agrees with
// it. Of the calls it matches, the first Skip pass untouched and every
// later one gets the rule's actions.
type Rule struct {
	View string   // the view's name; "" matches every view
	Ops  Op       // the operations matched; 0 matches every one
	NS   []string // the namespaces matched; nil matches every one
	Name string   // the blob name; "" matches every one
	Skip int

	Delay   time.Duration // sleep before the call runs
	Gate    *Gate         // hold the call until the gate opens
	Fail    bool          // a write returns ErrInjected, writing nothing
	Tear    bool          // a WriteAt lands half its bytes, then fails
	Corrupt bool          // flip the first byte a GetRange returns

	hits atomic.Int64
}

// Hits returns the number of calls the rule has matched.
func (r *Rule) Hits() int { return int(r.hits.Load()) }

// fires counts a call the rule matches and reports whether it acts on
// it.
func (r *Rule) fires(view string, op Op, ns, name string) bool {
	if r.View != "" && r.View != view || r.Ops != 0 && r.Ops&op == 0 ||
		r.NS != nil && !slices.Contains(r.NS, ns) || r.Name != "" && r.Name != name {
		return false
	}
	return int(r.hits.Add(1)) > r.Skip
}

// A Gate holds the calls of the rules that name it until it opens.
type Gate struct {
	arrived, open chan struct{}
	once          sync.Once
}

// NewGate returns a closed gate.
func NewGate() *Gate { return &Gate{arrived: make(chan struct{}), open: make(chan struct{})} }

// Arrived is closed once a call reaches the gate.
func (g *Gate) Arrived() <-chan struct{} { return g.arrived }

// Open lets the held calls and every later one through. Call it once.
func (g *Gate) Open() { close(g.open) }

// Faulty holds the disks of a set of views and the rules they share.
type Faulty struct {
	mu    sync.Mutex
	rules []*Rule
	disks map[string]*disk
}

// disk is one view's storage: the blobs every returned write left, and
// the writes in flight.
type disk struct {
	mem      *store.Memory
	nss      []string // every namespace written, for Cut to copy
	inflight []*write
}

// write is a Put, WriteAt or Delete.
type write struct {
	op       Op
	ns, name string
	off      int64
	data     []byte
}

func (w *write) apply(ctx context.Context, mem *store.Memory) error {
	switch w.op {
	case Put:
		return mem.Put(ctx, w.ns, w.name, w.data)
	case WriteAt:
		return mem.WriteAt(ctx, w.ns, w.name, w.off, w.data)
	}
	return mem.Delete(ctx, w.ns, w.name)
}

// New returns a Faulty with no disks and no rules.
func New() *Faulty { return &Faulty{disks: make(map[string]*disk)} }

// Add arms r and returns it.
func (f *Faulty) Add(r *Rule) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
	return r
}

// Remove disarms r; its hit count stays readable.
func (f *Faulty) Remove(r *Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = slices.DeleteFunc(f.rules, func(x *Rule) bool { return x == r })
}

// View returns a handle on the named disk, creating an empty disk on
// first use.
func (f *Faulty) View(name string) *View {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.disks[name] == nil {
		f.disks[name] = &disk{mem: store.NewMemory()}
	}
	return &View{Memory: f.disks[name].mem, f: f, name: name, d: f.disks[name]}
}

// Cut cuts the power to the named disks at once. Each keeps the blobs
// every returned Put, WriteAt and Delete left, and each write in flight
// lands as a crash may leave it: a Put or Delete is applied or not; a
// WriteAt keeps the blob's bytes before its offset and a prefix of its
// data of random length, followed either by the old blob's bytes past
// that prefix or by zeros to the end of the write (a file that grew
// before its bytes landed). The in-flight calls then fail with
// ErrPowerCut, as do later ones on a View opened before the cut. Cut
// returns how many in-flight writes did not land whole.
func (f *Faulty) Cut(rng *rand.Rand, views ...string) (lost int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range views {
		d := f.disks[name]
		image := Copy(d.mem, d.nss...)
		for _, w := range d.inflight {
			if !w.land(image, rng) {
				lost++
			}
		}
		d.mem, d.inflight = image, nil
	}
	return lost
}

// CutAt runs call and cuts the power to views (see Cut) when call
// reaches at: at's matches past its Skip are held at a gate, which
// CutAt sets, until the cut is made. With no views it only holds the
// first, and at's other actions then apply to it. CutAt returns Cut's
// count of lost writes, or -1 if call returned without reaching at,
// and call's error.
func (f *Faulty) CutAt(rng *rand.Rand, at *Rule, call func() error, views ...string) (lost int, err error) {
	at.Gate = NewGate()
	f.Add(at)
	defer f.Remove(at)
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return -1, err
	case <-at.Gate.Arrived():
		lost = f.Cut(rng, views...)
		at.Gate.Open()
		return lost, <-done
	}
}

// Copy returns a new Memory holding m's blobs in the namespaces nss:
// a disk image a test can tear by hand while m stays its reference.
func Copy(m *store.Memory, nss ...string) *store.Memory {
	ctx := context.Background()
	image := store.NewMemory()
	for _, ns := range nss {
		names, _ := m.List(ctx, ns)
		for _, name := range names {
			data, _ := m.Get(ctx, ns, name)
			_ = image.Put(ctx, ns, name, data)
		}
	}
	return image
}

// land applies w to image as a power cut in its middle may leave it,
// and reports whether it landed whole.
func (w *write) land(image *store.Memory, rng *rand.Rand) bool {
	ctx := context.Background()
	coin := rng.Intn(2) == 0
	if w.op != WriteAt {
		if coin {
			_ = w.apply(ctx, image)
		}
		return coin
	}
	old, _ := image.Get(ctx, w.ns, w.name)
	if w.off < 0 || w.off > int64(len(old)) {
		return true // the call would have failed without writing
	}
	k := rng.Intn(len(w.data) + 1)
	tail := make([]byte, len(w.data)-k) // zeros to the end of the write
	if coin {
		tail = old[min(int(w.off)+k, len(old)):] // the old bytes past the prefix
	}
	torn := slices.Concat(old[:w.off], w.data[:k], tail)
	_ = image.Put(ctx, w.ns, w.name, torn)
	return bytes.Equal(torn, slices.Concat(old[:w.off], w.data)) // as when the lost end was zeros
}

// View is one server's handle on its disk; it implements store.Backend.
// Has, List and Close go straight to the disk it opened.
type View struct {
	*store.Memory
	f    *Faulty
	name string
	d    *disk
}

// call checks the power, counts the call on every rule that matches
// it, puts a write that no rule fails in flight, and then delays and
// gates the call. It returns the rules that act on the call.
func (v *View) call(ctx context.Context, op Op, ns, name string, w *write) ([]*Rule, error) {
	v.f.mu.Lock()
	if v.Memory != v.d.mem {
		v.f.mu.Unlock()
		return nil, ErrPowerCut
	}
	var acting []*Rule
	for _, r := range v.f.rules {
		if r.fires(v.name, op, ns, name) {
			acting = append(acting, r)
		}
	}
	if w != nil && !slices.Contains(v.d.nss, ns) {
		v.d.nss = append(v.d.nss, ns)
	}
	if w != nil && !slices.ContainsFunc(acting, func(r *Rule) bool { return r.Fail || r.Tear }) {
		v.d.inflight = append(v.d.inflight, w)
	}
	v.f.mu.Unlock()

	for _, r := range acting {
		time.Sleep(r.Delay)
		if g := r.Gate; g != nil {
			g.once.Do(func() { close(g.arrived) })
			select {
			case <-g.open:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	return acting, nil
}

// write runs w through the rules and, unless one fails it or the power
// was cut meanwhile, applies it to the disk.
func (v *View) write(ctx context.Context, w *write) error {
	acting, err := v.call(ctx, w.op, w.ns, w.name, w)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	v.d.inflight = slices.DeleteFunc(v.d.inflight, func(x *write) bool { return x == w })
	switch {
	case v.Memory != v.d.mem:
		return ErrPowerCut
	case err != nil:
		return err
	case slices.ContainsFunc(acting, func(r *Rule) bool { return r.Fail }):
		return ErrInjected
	case slices.ContainsFunc(acting, func(r *Rule) bool { return r.Tear }):
		w.data, err = w.data[:len(w.data)/2], ErrInjected
	}
	return cmp.Or(w.apply(ctx, v.Memory), err) // the write's own error, else the tear's
}

// Put implements store.Backend.
func (v *View) Put(ctx context.Context, ns, name string, data []byte) error {
	return v.write(ctx, &write{op: Put, ns: ns, name: name, data: data})
}

// WriteAt implements store.Backend.
func (v *View) WriteAt(ctx context.Context, ns, name string, off int64, data []byte) error {
	return v.write(ctx, &write{op: WriteAt, ns: ns, name: name, off: off, data: data})
}

// Delete implements store.Backend.
func (v *View) Delete(ctx context.Context, ns, name string) error {
	return v.write(ctx, &write{op: Delete, ns: ns, name: name})
}

// Get implements store.Backend.
func (v *View) Get(ctx context.Context, ns, name string) ([]byte, error) {
	if _, err := v.call(ctx, Get, ns, name, nil); err != nil {
		return nil, err
	}
	return v.Memory.Get(ctx, ns, name)
}

// GetRange implements store.Backend.
func (v *View) GetRange(ctx context.Context, ns, name string, off, n int64) ([]byte, error) {
	acting, err := v.call(ctx, GetRange, ns, name, nil)
	if err != nil {
		return nil, err
	}
	data, err := v.Memory.GetRange(ctx, ns, name, off, n)
	if err == nil && len(data) > 0 && slices.ContainsFunc(acting, func(r *Rule) bool { return r.Corrupt }) {
		data[0] ^= 0xff
	}
	return data, err
}
