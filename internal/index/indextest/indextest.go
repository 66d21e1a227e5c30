// Package indextest is a conformance suite for index structures. Every
// index package runs its implementation through RunOrdered or RunHashed,
// which check behaviour against a reference model under deterministic and
// randomized workloads, across the node sizes the paper's graphs sweep.
//
// Entries carry a Key and an ID, mimicking the MM-DBMS arrangement where
// an index holds tuple pointers: many entries may share a key (duplicate
// attribute values) while remaining distinct entries, and deletion must
// remove one specific entry among key-equal duplicates.
package indextest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
)

// Entry is the test entry type: Key is the indexed attribute, ID the
// entry's identity (the "tuple pointer").
type Entry struct {
	Key int64
	ID  int64
}

// Cmp orders entries by key.
func Cmp(a, b Entry) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	default:
		return 0
	}
}

// Hash hashes the key with a strong mixer.
func Hash(e Entry) uint64 { return HashKey(e.Key) }

// HashKey hashes a key value.
func HashKey(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Eq is key equality.
func Eq(a, b Entry) bool { return a.Key == b.Key }

// Same is entry identity.
func Same(a, b Entry) bool { return a.Key == b.Key && a.ID == b.ID }

// Config returns the standard test configuration.
func Config(unique bool, nodeSize int) index.Config[Entry] {
	return index.Config[Entry]{
		Cmp:      Cmp,
		Hash:     Hash,
		Eq:       Eq,
		Same:     Same,
		Unique:   unique,
		NodeSize: nodeSize,
	}
}

// keyPos returns the Pos function for key k.
func keyPos(k int64) index.Pos[Entry] {
	return func(e Entry) int {
		switch {
		case e.Key < k:
			return -1
		case e.Key > k:
			return 1
		default:
			return 0
		}
	}
}

// model is the reference implementation: a sorted slice.
type model struct {
	entries []Entry // sorted by Key, ties by insertion order
	unique  bool
}

func (m *model) insert(e Entry) bool {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].Key >= e.Key })
	if m.unique && i < len(m.entries) && m.entries[i].Key == e.Key {
		return false
	}
	// Insert after existing duplicates so ties keep insertion order.
	for i < len(m.entries) && m.entries[i].Key == e.Key {
		i++
	}
	m.entries = append(m.entries, Entry{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
	return true
}

func (m *model) delete(e Entry) bool {
	for i, x := range m.entries {
		if Same(x, e) {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return true
		}
	}
	return false
}

func (m *model) search(k int64) []Entry {
	var out []Entry
	for _, x := range m.entries {
		if x.Key == k {
			out = append(out, x)
		}
	}
	return out
}

func (m *model) rng(lo, hi int64) []Entry {
	var out []Entry
	for _, x := range m.entries {
		if x.Key >= lo && x.Key <= hi {
			out = append(out, x)
		}
	}
	return out
}

// OrderedFactory builds the implementation under test.
type OrderedFactory func(cfg index.Config[Entry]) index.Ordered[Entry]

// Options tunes the conformance run.
type Options struct {
	// NodeSizes to sweep; nil means the default set.
	NodeSizes []int
	// Validate, when non-nil, checks structure-specific invariants; it is
	// called repeatedly during the randomized soak.
	Validate func(impl index.Ordered[Entry]) error
	// SoakOps is the number of randomized operations (default 4000).
	SoakOps int
	// UpdateHeavyQuadratic marks structures (the array) whose updates are
	// O(n); the soak shrinks to keep test time sane.
	UpdateHeavyQuadratic bool
	// ProbeAllocs is the most objects one SearchAllAppend into a presized
	// slice may allocate, the harness's key closure (one) included.
	ProbeAllocs float64
}

func (o Options) nodeSizes() []int {
	if len(o.NodeSizes) > 0 {
		return o.NodeSizes
	}
	return []int{2, 3, 5, 8, 30, 100}
}

// RunOrdered exercises an order-preserving index.
func RunOrdered(t *testing.T, factory OrderedFactory, opts Options) {
	t.Helper()
	t.Run("Empty", func(t *testing.T) {
		ix := factory(Config(false, 8))
		if _, ok := ix.Search(keyPos(1)); ok {
			t.Error("search on empty index succeeded")
		}
		if ix.Delete(Entry{1, 1}) {
			t.Error("delete on empty index succeeded")
		}
		ix.ScanBatches(nil, func([]Entry) bool { t.Error("scan on empty visited"); return false })
		if got := ix.SearchAllAppend(keyPos(1), nil); len(got) != 0 {
			t.Errorf("SearchAllAppend on empty index found %d entries", len(got))
		}
		if ix.Len() != 0 {
			t.Error("empty index has nonzero Len")
		}
	})

	t.Run("DeterministicShapes", func(t *testing.T) {
		for _, ns := range opts.nodeSizes() {
			for name, keys := range deterministicShapes() {
				ix := factory(Config(false, ns))
				for i, k := range keys {
					if !ix.Insert(Entry{k, int64(i)}) {
						t.Fatalf("ns=%d %s: insert %d rejected", ns, name, k)
					}
				}
				if ix.Len() != len(keys) {
					t.Fatalf("ns=%d %s: Len=%d want %d", ns, name, ix.Len(), len(keys))
				}
				if opts.Validate != nil {
					if err := opts.Validate(ix); err != nil {
						t.Fatalf("ns=%d %s: %v", ns, name, err)
					}
				}
				sorted := append([]int64(nil), keys...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
				checkScan(t, fmt.Sprintf("ns=%d %s", ns, name), ix, sorted)
				for _, k := range keys {
					if _, ok := ix.Search(keyPos(k)); !ok {
						t.Fatalf("ns=%d %s: key %d not found", ns, name, k)
					}
				}
				if _, ok := ix.Search(keyPos(-12345)); ok {
					t.Fatalf("ns=%d %s: absent key found", ns, name)
				}
			}
		}
	})

	t.Run("Unique", func(t *testing.T) {
		ix := factory(Config(true, 8))
		if !ix.Insert(Entry{5, 1}) {
			t.Fatal("first insert rejected")
		}
		if ix.Insert(Entry{5, 2}) {
			t.Fatal("duplicate key accepted by unique index")
		}
		if ix.Len() != 1 {
			t.Fatalf("Len=%d", ix.Len())
		}
	})

	t.Run("DuplicatesAndIdentityDelete", func(t *testing.T) {
		for _, ns := range opts.nodeSizes() {
			ix := factory(Config(false, ns))
			// 20 duplicates of key 7 among other keys.
			for i := int64(0); i < 20; i++ {
				ix.Insert(Entry{7, i})
				ix.Insert(Entry{i * 100, 1000 + i})
			}
			if got := ix.SearchAllAppend(keyPos(7), nil); len(got) != 20 {
				t.Fatalf("ns=%d: SearchAllAppend found %d of 20 duplicates", ns, len(got))
			}
			// Delete a specific one; the others survive.
			if !ix.Delete(Entry{7, 13}) {
				t.Fatalf("ns=%d: identity delete failed", ns)
			}
			if ix.Delete(Entry{7, 13}) {
				t.Fatalf("ns=%d: identity delete repeated", ns)
			}
			// The matches extend, and do not clobber, the caller's slice.
			sentinel := Entry{-1, -1}
			got := ix.SearchAllAppend(keyPos(7), []Entry{sentinel})
			if got[0] != sentinel {
				t.Fatalf("ns=%d: SearchAllAppend clobbered the existing prefix", ns)
			}
			for _, e := range got[1:] {
				if e.Key != 7 || e.ID == 13 {
					t.Fatalf("ns=%d: SearchAllAppend(7) returned %v after the delete", ns, e)
				}
			}
			if n := len(got) - 1; n != 19 {
				t.Fatalf("ns=%d: %d duplicates after delete", ns, n)
			}
		}
	})

	t.Run("Range", func(t *testing.T) {
		ix := factory(Config(false, 5))
		m := &model{}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 500; i++ {
			e := Entry{int64(rng.Intn(200)), int64(i)}
			ix.Insert(e)
			m.insert(e)
		}
		for trial := 0; trial < 100; trial++ {
			lo := int64(rng.Intn(220) - 10)
			hi := lo + int64(rng.Intn(50))
			var got []Entry
			ix.Range(keyPos(lo), keyPos(hi), func(e Entry) bool { got = append(got, e); return true })
			want := m.rng(lo, hi)
			if !sameEntrySet(got, want) {
				t.Fatalf("Range(%d,%d): got %d entries, want %d", lo, hi, len(got), len(want))
			}
			if !keysAscending(got) {
				t.Fatalf("Range(%d,%d) not ascending", lo, hi)
			}
		}
		// Empty and inverted ranges.
		ix.Range(keyPos(1000), keyPos(2000), func(Entry) bool { t.Error("empty range visited"); return false })
		ix.Range(keyPos(50), keyPos(40), func(Entry) bool { t.Error("inverted range visited"); return false })
	})

	t.Run("RandomSoak", func(t *testing.T) {
		ops := opts.SoakOps
		if ops == 0 {
			ops = 4000
		}
		if opts.UpdateHeavyQuadratic && ops > 1500 {
			ops = 1500
		}
		for _, ns := range opts.nodeSizes() {
			for _, unique := range []bool{false, true} {
				soakOrdered(t, factory, opts, ns, unique, ops)
			}
		}
	})

	t.Run("Blocks", func(t *testing.T) {
		mk := func(n int) index.Ordered[Entry] {
			ix := factory(Config(false, 4))
			fill(t, ix.Insert, n)
			return ix
		}
		checkBlocks(t, mk, true, opts.ProbeAllocs, func(ix index.Ordered[Entry], k int64, out []Entry) []Entry {
			return ix.SearchAllAppend(keyPos(k), out)
		})
	})

	t.Run("StatsSane", func(t *testing.T) {
		ix := factory(Config(false, 8))
		for i := int64(0); i < 1000; i++ {
			ix.Insert(Entry{i * 3 % 997, i})
		}
		s := ix.Stats()
		if s.Entries != ix.Len() {
			t.Fatalf("Stats.Entries=%d, Len=%d", s.Entries, ix.Len())
		}
		if s.EntrySlots < s.Entries {
			t.Fatalf("EntrySlots %d < Entries %d", s.EntrySlots, s.Entries)
		}
		if b := index.PaperModel.Bytes(s); b <= 0 {
			t.Fatalf("non-positive storage bytes %d", b)
		}
	})
}

func soakOrdered(t *testing.T, factory OrderedFactory, opts Options, ns int, unique bool, ops int) {
	t.Helper()
	ix := factory(Config(unique, ns))
	m := &model{unique: unique}
	rng := rand.New(rand.NewSource(int64(ns)*31 + 7))
	keyRange := int64(ops / 4) // plenty of duplicates and misses
	var nextID int64
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert
			e := Entry{rng.Int63n(keyRange), nextID}
			nextID++
			if got, want := ix.Insert(e), m.insert(e); got != want {
				t.Fatalf("ns=%d unique=%v op %d: Insert(%v)=%v want %v", ns, unique, op, e, got, want)
			}
		case r < 8: // delete (usually something present)
			var e Entry
			if len(m.entries) > 0 && rng.Intn(10) < 8 {
				e = m.entries[rng.Intn(len(m.entries))]
			} else {
				e = Entry{rng.Int63n(keyRange), -1}
			}
			if got, want := ix.Delete(e), m.delete(e); got != want {
				t.Fatalf("ns=%d unique=%v op %d: Delete(%v)=%v want %v", ns, unique, op, e, got, want)
			}
		default: // search
			k := rng.Int63n(keyRange)
			want := m.search(k)
			got := ix.SearchAllAppend(keyPos(k), nil)
			if !sameEntrySet(got, want) {
				t.Fatalf("ns=%d unique=%v op %d: SearchAllAppend(%d) got %d want %d entries", ns, unique, op, k, len(got), len(want))
			}
			_, ok := ix.Search(keyPos(k))
			if ok != (len(want) > 0) {
				t.Fatalf("ns=%d unique=%v op %d: Search(%d)=%v want %v", ns, unique, op, k, ok, len(want) > 0)
			}
		}
		if ix.Len() != len(m.entries) {
			t.Fatalf("ns=%d unique=%v op %d: Len=%d want %d", ns, unique, op, ix.Len(), len(m.entries))
		}
		if opts.Validate != nil && op%97 == 0 {
			if err := opts.Validate(ix); err != nil {
				t.Fatalf("ns=%d unique=%v op %d: invariant: %v", ns, unique, op, err)
			}
		}
	}
	if opts.Validate != nil {
		if err := opts.Validate(ix); err != nil {
			t.Fatalf("ns=%d unique=%v final invariant: %v", ns, unique, err)
		}
	}
	// Final full-content comparison.
	wantKeys := make([]int64, len(m.entries))
	for i, e := range m.entries {
		wantKeys[i] = e.Key
	}
	checkScan(t, fmt.Sprintf("ns=%d unique=%v final", ns, unique), ix, wantKeys)
}

// scanAll drains ix.ScanBatches into one slice.
func scanAll(ix blockIndex) []Entry {
	var got []Entry
	ix.ScanBatches(nil, func(block []Entry) bool { got = append(got, block...); return true })
	return got
}

func checkScan(t *testing.T, label string, ix index.Ordered[Entry], wantSortedKeys []int64) {
	t.Helper()
	var asc []int64
	for _, e := range scanAll(ix) {
		asc = append(asc, e.Key)
	}
	if !int64SlicesEqual(asc, wantSortedKeys) {
		t.Fatalf("%s: ScanBatches keys mismatch: got %d keys, want %d", label, len(asc), len(wantSortedKeys))
	}
}

func deterministicShapes() map[string][]int64 {
	const n = 300
	shapes := map[string][]int64{}
	asc := make([]int64, n)
	desc := make([]int64, n)
	zig := make([]int64, n)
	for i := 0; i < n; i++ {
		asc[i] = int64(i)
		desc[i] = int64(n - i)
		if i%2 == 0 {
			zig[i] = int64(i)
		} else {
			zig[i] = int64(n - i)
		}
	}
	shapes["ascending"] = asc
	shapes["descending"] = desc
	shapes["zigzag"] = zig
	shapes["tiny"] = []int64{5}
	shapes["pair"] = []int64{9, 3}
	return shapes
}

// HashedFactory builds the hashed implementation under test.
type HashedFactory func(cfg index.Config[Entry]) index.Hashed[Entry]

// HashedOptions tunes the hashed conformance run.
type HashedOptions struct {
	NodeSizes []int
	Validate  func(impl index.Hashed[Entry]) error
	SoakOps   int
	// Static marks structures (Chained Bucket Hashing) sized once at
	// creation; the harness passes a capacity hint.
	Static bool
	// ProbeAllocs is the most objects one SearchKeyAppend into a presized
	// slice may allocate, the harness's match closure (one) included.
	ProbeAllocs float64
}

func (o HashedOptions) nodeSizes() []int {
	if len(o.NodeSizes) > 0 {
		return o.NodeSizes
	}
	return []int{1, 2, 4, 8, 20, 50}
}

// RunHashed exercises a hash index.
func RunHashed(t *testing.T, factory HashedFactory, opts HashedOptions) {
	t.Helper()
	mk := func(unique bool, ns int) index.Hashed[Entry] {
		cfg := Config(unique, ns)
		cfg.CapacityHint = 4096
		return factory(cfg)
	}
	t.Run("Empty", func(t *testing.T) {
		ix := mk(false, 4)
		if _, ok := ix.SearchKey(HashKey(1), func(e Entry) bool { return e.Key == 1 }); ok {
			t.Error("search on empty succeeded")
		}
		if ix.Delete(Entry{1, 1}) {
			t.Error("delete on empty succeeded")
		}
		if ix.Len() != 0 {
			t.Error("empty Len != 0")
		}
	})

	t.Run("InsertSearchDelete", func(t *testing.T) {
		for _, ns := range opts.nodeSizes() {
			ix := mk(false, ns)
			const n = 1000
			for i := int64(0); i < n; i++ {
				if !ix.Insert(Entry{i, i}) {
					t.Fatalf("ns=%d: insert %d rejected", ns, i)
				}
			}
			if ix.Len() != n {
				t.Fatalf("ns=%d: Len=%d", ns, ix.Len())
			}
			for i := int64(0); i < n; i++ {
				e, ok := ix.SearchKey(HashKey(i), func(e Entry) bool { return e.Key == i })
				if !ok || e.Key != i {
					t.Fatalf("ns=%d: key %d not found", ns, i)
				}
			}
			if _, ok := ix.SearchKey(HashKey(-5), func(e Entry) bool { return e.Key == -5 }); ok {
				t.Fatalf("ns=%d: absent key found", ns)
			}
			// A scan sees every entry exactly once.
			seen := map[int64]int{}
			for _, e := range scanAll(ix) {
				seen[e.Key]++
			}
			if len(seen) != n {
				t.Fatalf("ns=%d: scan saw %d keys", ns, len(seen))
			}
			for k, c := range seen {
				if c != 1 {
					t.Fatalf("ns=%d: key %d seen %d times", ns, k, c)
				}
			}
			for i := int64(0); i < n; i += 2 {
				if !ix.Delete(Entry{i, i}) {
					t.Fatalf("ns=%d: delete %d failed", ns, i)
				}
			}
			if ix.Len() != n/2 {
				t.Fatalf("ns=%d: Len after deletes = %d", ns, ix.Len())
			}
			for i := int64(0); i < n; i++ {
				_, ok := ix.SearchKey(HashKey(i), func(e Entry) bool { return e.Key == i })
				if ok != (i%2 == 1) {
					t.Fatalf("ns=%d: key %d presence = %v", ns, i, ok)
				}
			}
		}
	})

	t.Run("Unique", func(t *testing.T) {
		ix := mk(true, 4)
		if !ix.Insert(Entry{5, 1}) || ix.Insert(Entry{5, 2}) {
			t.Fatal("unique constraint broken")
		}
	})

	t.Run("DuplicatesAndIdentityDelete", func(t *testing.T) {
		ix := mk(false, 4)
		for i := int64(0); i < 20; i++ {
			ix.Insert(Entry{7, i})
		}
		match := func(e Entry) bool { return e.Key == 7 }
		if got := ix.SearchKeyAppend(HashKey(7), match, nil); len(got) != 20 {
			t.Fatalf("SearchKeyAppend found %d of 20", len(got))
		}
		if !ix.Delete(Entry{7, 13}) || ix.Delete(Entry{7, 13}) {
			t.Fatal("identity delete misbehaved")
		}
		// The matches extend, and do not clobber, the caller's slice.
		sentinel := Entry{-1, -1}
		got := ix.SearchKeyAppend(HashKey(7), match, []Entry{sentinel})
		if got[0] != sentinel {
			t.Fatal("SearchKeyAppend clobbered the existing prefix")
		}
		for _, e := range got[1:] {
			if e.Key != 7 || e.ID == 13 {
				t.Fatalf("SearchKeyAppend(7) returned %v after the delete", e)
			}
		}
		if n := len(got) - 1; n != 19 {
			t.Fatalf("%d duplicates after delete", n)
		}
	})

	t.Run("Blocks", func(t *testing.T) {
		mk := func(n int) index.Hashed[Entry] {
			ix := mk(false, 4)
			fill(t, ix.Insert, n)
			return ix
		}
		checkBlocks(t, mk, false, opts.ProbeAllocs, func(ix index.Hashed[Entry], k int64, out []Entry) []Entry {
			return ix.SearchKeyAppend(HashKey(k), func(e Entry) bool { return e.Key == k }, out)
		})
	})

	t.Run("RandomSoak", func(t *testing.T) {
		ops := opts.SoakOps
		if ops == 0 {
			ops = 4000
		}
		for _, ns := range opts.nodeSizes() {
			soakHashed(t, mk, opts, ns, ops)
		}
	})

	t.Run("StatsSane", func(t *testing.T) {
		ix := mk(false, 4)
		for i := int64(0); i < 1000; i++ {
			ix.Insert(Entry{i, i})
		}
		s := ix.Stats()
		if s.Entries != ix.Len() {
			t.Fatalf("Stats.Entries=%d, Len=%d", s.Entries, ix.Len())
		}
		if b := index.PaperModel.Bytes(s); b <= 0 {
			t.Fatalf("non-positive storage bytes %d", b)
		}
	})
}

func soakHashed(t *testing.T, mk func(bool, int) index.Hashed[Entry], opts HashedOptions, ns, ops int) {
	t.Helper()
	ix := mk(false, ns)
	m := &model{}
	rng := rand.New(rand.NewSource(int64(ns)*17 + 3))
	keyRange := int64(ops / 4)
	var nextID int64
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			e := Entry{rng.Int63n(keyRange), nextID}
			nextID++
			if got, want := ix.Insert(e), m.insert(e); got != want {
				t.Fatalf("ns=%d op %d: Insert(%v)=%v want %v", ns, op, e, got, want)
			}
		case r < 8:
			var e Entry
			if len(m.entries) > 0 && rng.Intn(10) < 8 {
				e = m.entries[rng.Intn(len(m.entries))]
			} else {
				e = Entry{rng.Int63n(keyRange), -1}
			}
			if got, want := ix.Delete(e), m.delete(e); got != want {
				t.Fatalf("ns=%d op %d: Delete(%v)=%v want %v", ns, op, e, got, want)
			}
		default:
			k := rng.Int63n(keyRange)
			want := m.search(k)
			got := ix.SearchKeyAppend(HashKey(k), func(e Entry) bool { return e.Key == k }, nil)
			if !sameEntrySet(got, want) {
				t.Fatalf("ns=%d op %d: SearchKeyAppend(%d) got %d want %d", ns, op, k, len(got), len(want))
			}
		}
		if ix.Len() != len(m.entries) {
			t.Fatalf("ns=%d op %d: Len=%d want %d", ns, op, ix.Len(), len(m.entries))
		}
		if opts.Validate != nil && op%97 == 0 {
			if err := opts.Validate(ix); err != nil {
				t.Fatalf("ns=%d op %d: invariant: %v", ns, op, err)
			}
		}
	}
	// Final scan matches the model as a set.
	if got := scanAll(ix); !sameEntrySet(got, m.entries) {
		t.Fatalf("ns=%d: final scan has %d entries, want %d", ns, len(got), len(m.entries))
	}
}

// fill inserts n entries in a fixed shuffled order; every seventh entry
// repeats a smaller key, so key-equal runs span nodes.
func fill(t *testing.T, insert func(Entry) bool, n int) *model {
	t.Helper()
	m := &model{}
	for _, i := range rand.New(rand.NewSource(int64(n))).Perm(n) {
		e := Entry{int64(i), int64(i)}
		if i%7 == 0 {
			e.Key = int64(i / 7)
		}
		if !insert(e) {
			t.Fatalf("insert %v failed", e)
		}
		m.insert(e)
	}
	return m
}

// blockIndex is what checkBlocks reads: the block scan both contracts
// share.
type blockIndex interface {
	Len() int
	ScanBatches(buf []Entry, fn func(block []Entry) bool)
}

// checkBlocks holds an index's block methods to the contract every
// operator relies on: a scan yields the model's entry set (ascending when
// ordered) in full cap(buf) blocks except the last, stops when fn returns
// false, and allocates nothing per entry; a probe with a presized output
// slice allocates no more on a larger index, and at most maxProbeAllocs
// objects.
func checkBlocks[I blockIndex](t *testing.T, mk func(n int) I, ordered bool, maxProbeAllocs float64, probe func(ix I, k int64, out []Entry) []Entry) {
	t.Helper()
	const n = 5000
	ix := mk(n)
	buf := make([]Entry, 0, 256)
	var got []Entry
	blocks := 0
	ix.ScanBatches(buf, func(block []Entry) bool {
		blocks++
		if len(block) != cap(buf) && blocks <= n/cap(buf) {
			t.Fatalf("non-final block %d has %d entries, want %d", blocks, len(block), cap(buf))
		}
		got = append(got, block...)
		return true
	})
	want := fill(t, func(Entry) bool { return true }, n).entries
	if !sameEntrySet(got, want) {
		t.Fatalf("block scan yielded %d entries, want the model's %d", len(got), len(want))
	}
	if ordered && !keysAscending(got) {
		t.Fatal("block scan of an ordered index is not ascending")
	}
	calls := 0
	ix.ScanBatches(buf, func([]Entry) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("scan continued after fn returned false: %d calls", calls)
	}

	small, big := mk(2000), mk(8000)
	scanAllocs := func(ix I) float64 {
		return testing.AllocsPerRun(10, func() {
			ix.ScanBatches(buf, func([]Entry) bool { return true })
		})
	}
	if s, b := scanAllocs(small), scanAllocs(big); b > s {
		t.Fatalf("block scan allocates per entry: %.0f allocs at 2k entries, %.0f at 8k", s, b)
	}
	out := make([]Entry, 0, 8)
	probeAllocs := func(ix I) float64 {
		return testing.AllocsPerRun(10, func() { out = probe(ix, 123, out[:0]) })
	}
	s, b := probeAllocs(small), probeAllocs(big)
	if b > s {
		t.Fatalf("probe allocates with the index size: %.0f allocs at 2k entries, %.0f at 8k", s, b)
	}
	if b > maxProbeAllocs {
		t.Fatalf("a warm probe allocates %.0f objects, ceiling %.0f", b, maxProbeAllocs)
	}
}

func sameEntrySet(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[Entry]int{}
	for _, e := range a {
		count[e]++
	}
	for _, e := range b {
		count[e]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func keysAscending(s []Entry) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].Key > s[i].Key {
			return false
		}
	}
	return true
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
