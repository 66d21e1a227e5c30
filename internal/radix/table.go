package radix

import (
	"sync"

	"repro/internal/storage"
)

// Table is the engine's flat build table, with two users: the radix hash
// join's per-partition table and the multi-join pipeline's stage table
// (exec.BuildStageTable, one table over a whole build relation). It is a
// flat open-addressing array of (hash, tuple) slots with linear probing
// and a power-of-two mask — no chain nodes, no per-entry allocation, no
// pointer chasing. Sized at twice the partition's cardinality (load
// factor ≤ 0.5) a table over an L2-sized partition stays L2-resident for
// the whole build+probe of that partition, which is the point of
// partitioning in the first place.
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
	slots []TupleEntry
	mask  uint64
	n     int
}

// Len is the number of entries inserted since the last Reset.
func (t *Table) Len() int { return t.n }

// Slots is the current slot-array size (for tests and sizing checks).
func (t *Table) Slots() int { return len(t.slots) }

// Reset prepares the table for a build of up to n entries: the slot
// array is sized to the smallest power of two ≥ 2n (min 8) and cleared.
// It reports whether a new slot array was allocated — false on a warm
// table big enough for n, which is the pooled steady state.
func (t *Table) Reset(n int) bool {
	need := 8
	for need < 2*n {
		need <<= 1
	}
	if cap(t.slots) >= need {
		t.slots = t.slots[:need]
		clear(t.slots)
		t.mask = uint64(need - 1)
		t.n = 0
		return false
	}
	t.slots = make([]TupleEntry, need)
	t.mask = uint64(need - 1)
	t.n = 0
	return true
}

// Insert adds one (hash, tuple) entry. Duplicate hashes and keys are
// fine — each entry occupies its own slot and ProbeAppend returns them
// all. If an undersized Reset hint left the table too loaded (a
// degenerate capacity hint), the table doubles and rehashes rather than
// overflow — behavior stays correct, only the exact-fit guarantee is
// lost.
func (t *Table) Insert(h uint64, tp *storage.Tuple) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := h & t.mask
	for t.slots[s].P != nil {
		s = (s + 1) & t.mask
	}
	t.slots[s] = TupleEntry{H: h, P: tp}
	t.n++
}

// grow doubles the slot array and reinserts every entry.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]TupleEntry, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, e := range old {
		if e.P == nil {
			continue
		}
		s := e.H & t.mask
		for t.slots[s].P != nil {
			s = (s + 1) & t.mask
		}
		t.slots[s] = e
	}
}

// ProbeAppend appends to out every build tuple matching the probe: the
// linear-probe run from h's home slot is walked until the first empty
// slot, match is consulted only for slots whose stored 64-bit hash
// equals h, and out grows only if the caller's buffer is too small.
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
		if e.H == h && match(e.P) {
			out = append(out, e.P)
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
	t.n = 0
	tablePool.Put(t)
}
