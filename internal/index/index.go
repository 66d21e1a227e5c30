// Package index defines the common contract shared by the eight main
// memory index structures the paper studies (§3.2): sorted arrays, AVL
// Trees, B Trees, T Trees, Chained Bucket Hashing, Extendible Hashing,
// Linear Hashing, and Modified Linear Hashing.
//
// Indices are built "in a main memory style" (§3.2.2): they hold entries —
// in the engine, tuple pointers — never key values. All key access goes
// through caller-supplied comparison and hash functions that dereference
// the entry, which is exactly the arrangement §2.2 describes (a single
// tuple pointer gives the index access to both the attribute value and the
// tuple itself).
//
// Ordered and Hashed are the whole contract, and every structure
// implements all of its methods natively: a probe's match set and a full
// scan leave an index in blocks (SearchAllAppend or SearchKeyAppend, and
// ScanBatches), which callers reach directly, never by type assertion.
package index

import "repro/internal/meter"

// Pos locates a search key relative to an entry: it returns a negative
// number when the entry sorts before the key, zero when the entry matches,
// and a positive number when the entry sorts after the key. It is the
// partial application cmp(entry, key) so ordered indices can search
// without knowing the key type.
type Pos[E any] func(e E) int

// Ordered is an order-preserving index over entries of type E.
//
// Entries leave an index in blocks: a probe appends its whole match set
// to the caller's slice and a scan hands out blocks of up to cap(buf)
// entries, so an operator's inner loop runs over a cache-resident block
// instead of one indirect callback per entry. The block methods record
// the §3.1 operation counts the per-entry loops they replaced recorded:
// one AddNode per node visited and one AddCompare per comparison.
type Ordered[E any] interface {
	// Insert adds an entry. It returns false when the index is unique and
	// an equal entry is already present.
	Insert(e E) bool
	// Delete removes the entry (matched by identity among equals). It
	// returns false when no such entry exists.
	Delete(e E) bool
	// Search returns an entry matching pos, if any.
	Search(pos Pos[E]) (E, bool)
	// SearchAllAppend appends every entry matching pos to out, ascending,
	// and returns the extended slice. Matching entries are logically
	// contiguous in an ordered index, so this is a search plus a scan of
	// the equal run (§3.3.4 Test 6).
	SearchAllAppend(pos Pos[E], out []E) []E
	// Range visits, in ascending order, every entry e with
	// lo(e) >= 0 and hi(e) <= 0 — i.e. key_lo <= e <= key_hi — until fn
	// returns false.
	Range(lo, hi Pos[E], fn func(E) bool)
	// ScanBatches hands every entry, ascending, to fn in blocks until fn
	// returns false. Blocks are gathered into buf (a 256-entry block when
	// buf has no capacity) or are views of the index's own storage; fn
	// must neither retain nor mutate a block.
	ScanBatches(buf []E, fn func(block []E) bool)
	// Len returns the number of entries.
	Len() int
	// Stats reports the structure's shape for storage-cost accounting.
	Stats() Stats
}

// Hashed is a hash index over entries of type E. The key is communicated
// as its hash plus a match predicate, so the index never sees key values.
// Its block methods keep Ordered's metering contract.
type Hashed[E any] interface {
	// Insert adds an entry. It returns false when the index is unique and
	// a matching entry is already present.
	Insert(e E) bool
	// Delete removes the entry (matched by identity). It returns false
	// when no such entry exists.
	Delete(e E) bool
	// SearchKey returns an entry in hash bucket h satisfying match.
	SearchKey(h uint64, match func(E) bool) (E, bool)
	// SearchKeyAppend appends every entry in bucket h satisfying match to
	// out and returns the extended slice.
	SearchKeyAppend(h uint64, match func(E) bool, out []E) []E
	// ScanBatches is Ordered.ScanBatches in unspecified entry order.
	ScanBatches(buf []E, fn func(block []E) bool)
	// Len returns the number of entries.
	Len() int
	// Stats reports the structure's shape for storage-cost accounting.
	Stats() Stats
}

// Gather appends items to the block buf, handing buf to fn each time it
// fills, and returns the block with the leftover entries and false once
// fn stops the scan. It is the gather step of the node-structured
// indexes' ScanBatches: one block copy per node rather than one callback
// per entry.
func Gather[E any](buf, items []E, fn func(block []E) bool) ([]E, bool) {
	for len(items) > 0 {
		take := min(cap(buf)-len(buf), len(items))
		buf = append(buf, items[:take]...)
		items = items[take:]
		if len(buf) == cap(buf) {
			if !fn(buf) {
				return buf, false
			}
			buf = buf[:0]
		}
	}
	return buf, true
}

// Stats describes an index structure's allocated shape, in units (slots,
// pointers, words) rather than bytes, so a SizeModel can price it under
// the paper's 4-byte layout or a modern 8-byte layout.
type Stats struct {
	Entries      int // live entries
	EntrySlots   int // allocated entry slots (incl. unused capacity)
	Nodes        int // allocated nodes/buckets
	ChildPtrs    int // allocated child/next/parent pointer fields
	DirSlots     int // hash directory slots
	ControlWords int // per-node control words (counts, balance factors, ...)
}

// SizeModel prices a Stats shape in bytes.
type SizeModel struct {
	Ptr     int // bytes per pointer
	Data    int // bytes per entry slot (a tuple pointer in the MM-DBMS)
	Control int // bytes per control word
}

// PaperModel is the 1986 VAX layout (4-byte pointers and data items) the
// paper's storage factors assume. ModernModel is a 64-bit layout.
var (
	PaperModel  = SizeModel{Ptr: 4, Data: 4, Control: 4}
	ModernModel = SizeModel{Ptr: 8, Data: 8, Control: 8}
)

// Bytes prices the shape in bytes under the model.
func (m SizeModel) Bytes(s Stats) int {
	return s.EntrySlots*m.Data + (s.ChildPtrs+s.DirSlots)*m.Ptr + s.ControlWords*m.Control
}

// Factor returns the storage factor the paper reports: structure bytes
// divided by the bytes of the raw entries (the sorted-array minimum).
func (m SizeModel) Factor(s Stats) float64 {
	if s.Entries == 0 {
		return 0
	}
	return float64(m.Bytes(s)) / float64(s.Entries*m.Data)
}

// Kind names one of the studied index structures.
type Kind int

// The eight structures of §3.2, in the paper's listing order.
const (
	KindArray Kind = iota
	KindAVL
	KindBTree
	KindTTree
	KindChainedHash
	KindExtendible
	KindLinearHash
	KindModLinearHash
)

// String returns the paper's name for the structure.
func (k Kind) String() string {
	switch k {
	case KindArray:
		return "Array"
	case KindAVL:
		return "AVL Tree"
	case KindBTree:
		return "B Tree"
	case KindTTree:
		return "T Tree"
	case KindChainedHash:
		return "Chained Bucket Hash"
	case KindExtendible:
		return "Extendible Hash"
	case KindLinearHash:
		return "Linear Hash"
	case KindModLinearHash:
		return "Mod Linear Hash"
	default:
		return "unknown"
	}
}

// OrderPreserving reports whether the structure supports range queries.
func (k Kind) OrderPreserving() bool {
	switch k {
	case KindArray, KindAVL, KindBTree, KindTTree:
		return true
	default:
		return false
	}
}

// Config carries the construction parameters shared by all structures.
type Config[E any] struct {
	// Cmp is the total order for ordered structures (required there).
	Cmp func(a, b E) int
	// Hash and Eq serve hash structures (required there). Eq is key
	// equality: Eq(a,b) iff the entries' keys are equal.
	Hash func(e E) uint64
	Eq   func(a, b E) bool
	// Same is entry identity, used by Delete to remove one specific entry
	// among key-equal duplicates. Defaults to Eq (ordered structures:
	// Cmp == 0) when nil.
	Same func(a, b E) bool
	// Unique rejects key-equal duplicate inserts.
	Unique bool
	// NodeSize is the structure's tunable size knob — the x-axis of
	// Graphs 1 and 2. Items per node for T/B Trees and hash buckets;
	// target average chain length for Modified Linear Hashing; ignored by
	// arrays and AVL trees. Implementations substitute their default when
	// it is zero or negative.
	NodeSize int
	// CapacityHint sizes static structures (Chained Bucket Hashing's
	// table) and presizes dynamic ones.
	CapacityHint int
	// Meter, when non-nil, accumulates the operation counts the paper
	// used to validate its implementations (§3.1).
	Meter *meter.Counters
}

// SameOrEq returns the identity predicate, defaulting to Eq and then to
// Cmp == 0.
func (c Config[E]) SameOrEq() func(a, b E) bool {
	if c.Same != nil {
		return c.Same
	}
	if c.Eq != nil {
		return c.Eq
	}
	cmp := c.Cmp
	return func(a, b E) bool { return cmp(a, b) == 0 }
}
