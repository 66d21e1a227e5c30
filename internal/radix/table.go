package radix

import (
	"sync"

	"repro/internal/storage"
)

// Table is the engine's flat build table, with two users: the radix hash
// join's per-partition table and the multi-join pipeline's stage table
// (exec.BuildStageTable, one table over a whole build relation). It is a
// flat open-addressing array of (hash, tuple) slots with linear probing
// and a power-of-two mask — no per-entry allocation, and no pointer
// chasing for a key that occurs once. Sized at twice the partition's
// cardinality (load factor ≤ 0.5) a table over an L2-sized partition
// stays L2-resident for the whole build+probe of that partition, which
// is the point of partitioning in the first place.
//
// The slot array holds one slot per distinct 64-bit hash: the first
// entry inserted with that hash. Every later entry with the same hash
// (a repeated build key, or the rare full-hash collision) goes to a
// side array and is linked onto its slot's chain in insertion order, as
// the paper's §3.3 hash join chains duplicates in a bucket. A hot key
// therefore costs O(1) to insert and never lengthens the probe run of
// the keys that hash near it. The per-slot chain headers are allocated
// at a build's first duplicate, so a duplicate-free build allocates and
// touches only the slot array.
//
// Slot selection uses the LOW bits of the hash (h & mask); the radix
// kernel partitions on the HIGH bits, so within one partition the low
// bits remain uniformly distributed.
//
// The probe compares stored hashes first and only calls the caller's
// key comparison on a 64-bit hash match, so almost every non-matching
// slot is rejected without touching the tuple at all.
//
// A Table is single-goroutine during build and immutable during probe:
// the parallel join gives every partition its own table, and the
// pipeline's workers share one stage table read-only. Empty slots are
// T == nil, so inserted tuples must be non-nil.
type Table struct {
	slots  []TupleEntry
	chains []dupChain // per slot, its later entries; empty until a build's first duplicate
	dups   []dupEntry // later entries of every chain, in insertion order
	mask   uint64
	n      int   // entries inserted
	used   int   // occupied slots (distinct hashes)
	steps  int64 // slot visits and chain links Insert took
}

// dupChain locates one slot's later entries in the side array. Both
// fields are 1-based indexes into Table.dups, so the zero value is an
// empty chain and a cleared array needs no initialisation.
type dupChain struct{ head, tail int32 }

// dupEntry is one later entry; next is the 1-based index of the entry
// after it on the same chain, 0 at the chain's end.
type dupEntry struct {
	p    *storage.Tuple
	next int32
}

// Len is the number of entries inserted since the last Reset.
func (t *Table) Len() int { return t.n }

// InsertSteps is the work Insert did since the last Reset: one step per
// slot visited, plus one per entry linked onto a duplicate chain. A
// duplicate-free build at load factor ≤ 0.5 takes about 1.5 steps an
// entry, and a repeat of a key the table holds takes 2 plus its slot's
// displacement, however many copies came before it.
func (t *Table) InsertSteps() int64 { return t.steps }

// Reset prepares the table for a build of up to n entries: the slot
// array is sized to the smallest power of two ≥ 2n (min 8) and cleared.
// It reports whether a new slot array was allocated — false on a warm
// table big enough for n, which is the pooled steady state.
func (t *Table) Reset(n int) bool {
	need := 8
	for need < 2*n {
		need <<= 1
	}
	t.mask = uint64(need - 1)
	t.n, t.used, t.steps = 0, 0, 0
	t.dropChains()
	if cap(t.slots) >= need {
		t.slots = t.slots[:need]
		clear(t.slots)
		return false
	}
	t.slots = make([]TupleEntry, need)
	return true
}

// dropChains empties the side arrays, zeroing only what the last build
// used: everything past their length is already zero.
func (t *Table) dropChains() {
	clear(t.chains)
	t.chains = t.chains[:0]
	clear(t.dups)
	t.dups = t.dups[:0]
}

// Insert adds one (hash, tuple) entry. The first entry with a hash takes
// a slot; a later one is appended to that slot's chain, and ProbeAppend
// returns them all in insertion order. If an undersized Reset hint left
// the table too loaded (a degenerate capacity hint), the table doubles
// and rehashes rather than overflow — behavior stays correct, only the
// exact-fit guarantee is lost.
func (t *Table) Insert(h uint64, tp *storage.Tuple) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	t.n++
	s := h & t.mask
	for {
		t.steps++
		e := &t.slots[s]
		if e.P == nil {
			*e = TupleEntry{H: h, P: tp}
			t.used++
			return
		}
		if e.H == h {
			t.chain(s, tp)
			return
		}
		s = (s + 1) & t.mask
	}
}

// chain links tp onto the end of slot s's chain.
func (t *Table) chain(s uint64, tp *storage.Tuple) {
	t.steps++
	if len(t.chains) == 0 {
		if cap(t.chains) >= len(t.slots) {
			t.chains = t.chains[:len(t.slots)]
		} else {
			t.chains = make([]dupChain, len(t.slots))
		}
	}
	if len(t.dups) == cap(t.dups) {
		t.growDups()
	}
	t.dups = append(t.dups, dupEntry{p: tp})
	i := int32(len(t.dups))
	c := &t.chains[s]
	if c.tail == 0 {
		c.head = i
	} else {
		t.dups[c.tail-1].next = i
	}
	c.tail = i
}

// growDups doubles the side array, but not past half the slot array
// while that still leaves room: a build within its Reset hint holds at
// most slots/2 entries, hence fewer than slots/2 later ones, so
// TableBytes stays a bound on what the table holds.
func (t *Table) growDups() {
	c := max(2*cap(t.dups), 16)
	if half := len(t.slots) / 2; c > half && half > len(t.dups) {
		c = half
	}
	d := make([]dupEntry, len(t.dups), c)
	copy(d, t.dups)
	t.dups = d
}

// grow doubles the slot array and reinserts every slot, each with its
// chain: a slot's hash is distinct, so nothing merges, and the side
// array's indexes stay valid.
func (t *Table) grow() {
	old, oldChains := t.slots, t.chains
	t.slots = make([]TupleEntry, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	if len(oldChains) > 0 {
		t.chains = make([]dupChain, len(t.slots))
	}
	for i, e := range old {
		if e.P == nil {
			continue
		}
		s := e.H & t.mask
		for t.slots[s].P != nil {
			s = (s + 1) & t.mask
		}
		t.slots[s] = e
		if len(oldChains) > 0 {
			t.chains[s] = oldChains[i]
		}
	}
}

// ProbeAppend appends to out every build tuple matching the probe: the
// linear-probe run from h's home slot is walked to the one slot whose
// stored 64-bit hash equals h (or to the first empty slot), and match is
// consulted for that slot's entry and each entry on its chain, in
// insertion order. out grows only if the caller's buffer is too small.
// match must confirm true key equality (hash equality is necessary but
// not sufficient).
func (t *Table) ProbeAppend(h uint64, match func(*storage.Tuple) bool, out storage.TupleBatch) storage.TupleBatch {
	if t.n == 0 {
		return out
	}
	s := h & t.mask
	for {
		e := t.slots[s]
		if e.P == nil {
			return out
		}
		if e.H == h {
			if match(e.P) {
				out = append(out, e.P)
			}
			if len(t.chains) == 0 {
				return out
			}
			for i := t.chains[s].head; i != 0; {
				d := t.dups[i-1]
				if match(d.p) {
					out = append(out, d.p)
				}
				i = d.next
			}
			return out
		}
		s = (s + 1) & t.mask
	}
}

var tablePool = sync.Pool{New: func() any { return new(Table) }}

// GetTable returns a pooled table; Reset it before use.
func GetTable() *Table { return tablePool.Get().(*Table) }

// PutTable clears the table's tuple pointers (so the pool never pins
// dead tuples) and recycles it.
func PutTable(t *Table) {
	clear(t.slots[:cap(t.slots)])
	t.slots = t.slots[:0]
	t.dropChains()
	t.n, t.used, t.steps = 0, 0, 0
	tablePool.Put(t)
}
