package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// IDGen issues database-unique tuple identifiers.
type IDGen struct{ next uint64 }

// NewIDGen returns a generator whose first ID is 1.
func NewIDGen() *IDGen { return &IDGen{next: 0} }

// Next returns the next unique ID.
func (g *IDGen) Next() uint64 { return atomic.AddUint64(&g.next, 1) }

// Reserve advances the generator so it never reissues IDs at or below id;
// the recovery loader calls this after reloading tuples with saved IDs.
func (g *IDGen) Reserve(id uint64) {
	for {
		cur := atomic.LoadUint64(&g.next)
		if cur >= id {
			return
		}
		if atomic.CompareAndSwapUint64(&g.next, cur, id) {
			return
		}
	}
}

// Observer is notified of tuple-level changes; the engine registers index
// maintainers and the recovery log writer through this interface.
type Observer interface {
	TupleInserted(t *Tuple)
	// TupleDeleted fires before the slot is reclaimed; t is still readable.
	TupleDeleted(t *Tuple)
	// TupleUpdating fires before field f changes to v, while the tuple
	// still carries its old values — the window in which an index can
	// locate the entry by its current key.
	TupleUpdating(t *Tuple, f int, v Value)
	// TupleUpdated fires after the change; old is the field array the
	// tuple carried before, which snapshots may still share.
	TupleUpdated(t *Tuple, old Version)
}

// Relation is a memory-resident relation: a schema plus a set of
// partitions. Relations are not directly traversable by queries — all
// query access is through an index (§2.1); ScanPhysical exists for index
// construction and recovery only.
type Relation struct {
	name       string
	schema     *Schema
	cfg        Config
	parts      []*Partition
	count      int
	ids        *IDGen
	observers  []Observer
	uniqueKeys []UniqueKey

	// Tuple headers and field arrays are carved from chunked slabs rather
	// than allocated one heap object apiece. Consecutively inserted tuples
	// land adjacent in memory, so a scan or column gather in row order
	// touches sequential cache lines instead of chasing two dependent
	// pointer misses per value — the in-memory analogue of the paper's
	// per-partition heap space (§2.1). Chunks are fixed once handed out
	// (append never grows a full chunk), so &chunk[i] stays stable for the
	// tuple's lifetime, preserving the tuple-pointer contract. The field
	// array is only the tuple's first version: Update installs a heap
	// array of its own and leaves the slab's to whoever still reads it.
	// A transaction stages its inserts here (Stage); an abort rewinds the
	// cursor to where its first staged row went (Rewind).
	slab SlabMark
	// cells is set when every field is Int, Float or Bool: the field
	// arrays are then cell arrays (cells.go).
	cells bool

	// stats caches the sampled statistics snapshot (see stats.go).
	stats relStats

	// Epoch-based snapshot publication (see snapshot.go): the published
	// image, the DML sequence number stamping its freshness, and the
	// mutex serializing the readers that publish.
	snap    atomic.Pointer[Snapshot]
	snapSeq atomic.Uint64
	snapMu  sync.Mutex
}

// UniqueKey is a unique index as a writer sees it: the field it covers,
// and a lookup of the live tuple holding a key. Name labels errors.
type UniqueKey struct {
	Name   string
	Field  int
	Lookup func(key Value) (*Tuple, bool)
}

// AddUniqueKey registers a unique index over one field. The relation
// does not enforce it: Insert and Update apply what they are given, and
// the transaction layer checks every key its buffered writes claim before
// it applies the first of them, so a commit that collides applies nothing.
func (r *Relation) AddUniqueKey(k UniqueKey) { r.uniqueKeys = append(r.uniqueKeys, k) }

// UniqueKeys returns the registered unique indices. Callers must not
// modify the slice.
func (r *Relation) UniqueKeys() []UniqueKey { return r.uniqueKeys }

// NewRelation creates an empty relation. ids may be shared across
// relations so tuple IDs are database-unique (required for Ref values).
func NewRelation(name string, schema *Schema, cfg Config, ids *IDGen) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: relation name must be non-empty")
	}
	if schema == nil {
		return nil, fmt.Errorf("storage: relation %q needs a schema", name)
	}
	if ids == nil {
		ids = NewIDGen()
	}
	cells := true
	for _, f := range schema.fields {
		cells = cells && isScalar(f.Type)
	}
	return &Relation{name: name, schema: schema, cfg: cfg.withDefaults(), ids: ids, cells: cells}, nil
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Cardinality returns the number of live tuples.
func (r *Relation) Cardinality() int { return r.count }

// Partitions returns the relation's partitions; the lock manager and
// recovery manager operate at this granularity.
func (r *Relation) Partitions() []*Partition { return r.parts }

// storedBytes estimates the memory the relation's rows occupy, from counters
// alone: every live tuple's header and field array (cells or Values), the
// unused tail of the open slab chunk, each partition's slot array, free
// list and heap space in use (the string payloads, counted once however
// many values share them), and the clone headers and pointers of the
// published snapshot, if there is one. Left out: slab space deleted or
// updated rows leave behind, the indices, which index.Stats prices, and
// rows a transaction has staged but not committed (an abort gives their
// slab space back to the tail). Callers hold at least a shared lock on the
// relation.
func (r *Relation) storedBytes() int64 {
	const ptrBytes, slotNoBytes = 8, 4
	row := tupleHeaderBytes + int64(r.schema.Arity())*valueBytes
	if r.cells {
		row = tupleHeaderBytes + int64(cellWords(r.schema.Arity()))*cellBytes
	}
	n := int64(r.count+cap(r.slab.tslab)-len(r.slab.tslab)) * row
	for _, p := range r.parts {
		n += int64(cap(p.slots))*ptrBytes + int64(cap(p.free))*slotNoBytes + int64(p.heapUsed)
	}
	if s := r.snap.Load(); s != nil {
		n += int64(s.rows) * (tupleHeaderBytes + ptrBytes)
	}
	return n
}

// Observe registers an observer for tuple changes.
func (r *Relation) Observe(o Observer) { r.observers = append(r.observers, o) }

// Slab chunk sizing: small relations shouldn't pay for bulk chunks, so
// chunks start at slabMinRows tuples and double per chunk up to
// slabMaxRows.
const (
	slabMinRows = 16
	slabMaxRows = 4096
)

// SlabMark is a position of a relation's slab cursor: the open chunks of
// tuple headers and of field arrays — Values, or cells on an all-scalar
// relation, the other chunk staying nil — cut where the next tuple goes,
// and the size of the chunk after them. Every tuple takes one header and
// one field array, so the chunks fill together.
type SlabMark struct {
	tslab  []Tuple
	varena []Value
	carena []uint64
	rows   int // chunk size in tuples, doubling up to slabMaxRows
}

// newTuple carves a tuple header and its field array out of the
// relation's slabs, copying vals. The returned pointer is stable: a chunk
// is retired (never appended to again) the moment it fills, so no append
// can ever move an element a caller holds a pointer into. Only Rewind
// hands a position out twice, and only one whose tuple was never
// installed.
func (r *Relation) newTuple(id uint64, vals []Value) *Tuple {
	s := &r.slab
	if len(s.tslab) == cap(s.tslab) {
		if s.rows < slabMaxRows {
			if s.rows == 0 {
				s.rows = slabMinRows
			} else {
				s.rows *= 2
			}
		}
		s.tslab = make([]Tuple, 0, s.rows)
		if r.cells {
			s.carena = make([]uint64, 0, s.rows*cellWords(r.schema.Arity()))
		} else {
			s.varena = make([]Value, 0, s.rows*r.schema.Arity())
		}
	}
	var f fields
	if r.cells {
		off := len(s.carena)
		s.carena = s.carena[:off+cellWords(len(vals))]
		f = putCells(s.carena[off:], vals)
	} else {
		off := len(s.varena)
		s.varena = append(s.varena, vals...)
		f = valueFields(s.varena[off:])
	}
	s.tslab = append(s.tslab, Tuple{id: id, arity: uint16(len(vals)), cells: r.cells, vals: f})
	return &s.tslab[len(s.tslab)-1]
}

// Stage copies vals into the relation's slabs and returns the tuple they
// form, not yet in the relation: it has no ID and no slot, no reader can
// reach it, and Install makes it a member. vals must have passed
// Schema.Validate — a cell array has no room for a string or a pointer —
// and the caller must hold the relation exclusively until it installs the
// tuple or rewinds past it.
func (r *Relation) Stage(vals []Value) *Tuple { return r.newTuple(0, vals) }

// Install enters a tuple Stage returned into the relation — an ID, a slot
// in a partition with room — and notifies observers. Its values are not
// copied or validated again.
func (r *Relation) Install(t *Tuple) {
	t.id = r.ids.Next()
	r.placeTuple(t)
	r.count++
	r.noteDML()
	for _, o := range r.observers {
		o.TupleInserted(t)
	}
}

// SlabMark returns the slab cursor, for a later Rewind.
func (r *Relation) SlabMark() SlabMark { return r.slab }

// Rewind moves the slab cursor back to m, giving up every tuple staged
// since and never installed; the next tuple lands where the first of them
// did. The positions given up are zeroed, so neither their headers nor
// their values keep anything reachable. m must come from SlabMark, and no
// tuple carved since may have been installed.
func (r *Relation) Rewind(m SlabMark) {
	cur := r.slab
	th, vh, ch := cap(m.tslab), cap(m.varena), cap(m.carena)
	if sameArray(m.tslab, cur.tslab) {
		th, vh, ch = len(cur.tslab), len(cur.varena), len(cur.carena)
	}
	clear(m.tslab[len(m.tslab):th])
	clear(m.varena[len(m.varena):vh])
	clear(m.carena[len(m.carena):ch])
	r.slab = m
}

// sameArray reports whether a and b are slices of one backing array (or
// both of none).
func sameArray[T any](a, b []T) bool {
	n := cap(a)
	return n == cap(b) && (n == 0 || &a[:n][n-1] == &b[:n][n-1])
}

// Insert validates vals against the schema, stores a new tuple in a
// partition with room, and notifies observers. The returned pointer is
// stable for the tuple's lifetime.
func (r *Relation) Insert(vals []Value) (*Tuple, error) {
	if err := r.schema.Validate(vals); err != nil {
		return nil, fmt.Errorf("insert into %s: %w", r.name, err)
	}
	t := r.Stage(vals)
	r.Install(t)
	return t, nil
}

// placeTuple finds (or creates) a partition with room and places t there.
func (r *Relation) placeTuple(t *Tuple) {
	need := t.heapBytes()
	for i := len(r.parts) - 1; i >= 0; i-- {
		if r.parts[i].hasRoomFor(need) {
			r.parts[i].place(t)
			return
		}
		// Only walk back a few partitions before giving up and growing;
		// scanning every partition on every insert would be quadratic.
		if len(r.parts)-i >= 4 {
			break
		}
	}
	p := r.newPartition()
	p.place(t)
}

func (r *Relation) newPartition() *Partition {
	p := &Partition{
		id:        len(r.parts),
		rel:       r,
		slots:     make([]*Tuple, 0, r.cfg.SlotsPerPartition),
		heapCap:   r.cfg.HeapPerPartition,
		snapDirty: true, // no snapshot has a clone array for it yet
	}
	r.parts = append(r.parts, p)
	return p
}

// Delete removes the tuple from the relation. Observers (index
// maintainers) are notified before the slot is reclaimed. Deleting a
// moved tuple removes its current home; deleting twice is an error.
func (r *Relation) Delete(t *Tuple) error {
	t = t.Resolve()
	if t == nil || t.dead {
		return fmt.Errorf("delete from %s: tuple already dead", r.name)
	}
	if t.part == nil || t.part.rel != r {
		return fmt.Errorf("delete from %s: tuple belongs to another relation", r.name)
	}
	for _, o := range r.observers {
		o.TupleDeleted(t)
	}
	t.dead = true
	t.part.remove(t)
	r.count--
	r.noteDML()
	return nil
}

// Update replaces field f of tuple t with v. A tuple's field array is an
// immutable version: Update installs a fresh array carrying the change and
// never writes the installed one, so whoever still holds the previous
// array — a snapshot clone sharing it, an observer's old image — keeps
// reading the version it saw (§2.4: a commit installs new values, nothing
// is undone). If a growing variable-length value overflows the partition's
// heap space, the tuple is moved to a partition with room and a forwarding
// address is left in its old position (§2.1 footnote 1); existing *Tuple
// pointers remain valid through Resolve.
func (r *Relation) Update(t *Tuple, f int, v Value) error {
	t = t.Resolve()
	if t == nil || t.dead {
		return fmt.Errorf("update %s: tuple is dead", r.name)
	}
	if t.part == nil || t.part.rel != r {
		return fmt.Errorf("update %s: tuple belongs to another relation", r.name)
	}
	if f < 0 || f >= r.schema.Arity() {
		return fmt.Errorf("update %s: field %d out of range", r.name, f)
	}
	def := r.schema.Field(f)
	if !v.IsNull() && v.Type() != def.Type {
		return fmt.Errorf("update %s: field %q wants %s, got %s", r.name, def.Name, def.Type, v.Type())
	}
	for _, o := range r.observers {
		o.TupleUpdating(t, f, v)
	}
	old := t.version()
	delta := v.HeapBytes() - old.At(f).HeapBytes()
	if delta > 0 && t.part.heapUsed+delta > t.part.heapCap {
		r.moveTuple(t, f, v)
	} else {
		t.part.heapUsed += delta
		t.part.snapDirty = true
		t.vals = nextVersion(t, f, v)
	}
	for _, o := range r.observers {
		o.TupleUpdated(t.Resolve(), old)
	}
	r.noteDML()
	return nil
}

// nextVersion returns a fresh copy of t's field array with field f set
// to v: the array Update installs.
func nextVersion(t *Tuple, f int, v Value) fields {
	n := int(t.arity)
	if t.cells {
		next := make([]uint64, cellWords(n))
		copy(next, t.vals.cells(n))
		nf := cellFields(next, n)
		nf.setCell(f, n, v)
		return nf
	}
	next := make([]Value, n)
	copy(next, t.vals.values(n))
	next[f] = v
	return valueFields(next)
}

// moveTuple relocates t (with field f set to v) to a partition with room,
// leaving a forwarding stub in the old position. The logical tuple keeps
// its ID. The moved copy's array is fresh from the slab, so setting the
// field before the tuple is placed writes nothing anyone else can reach.
// Only a growing Str value moves a tuple, so t holds Values, not cells.
func (r *Relation) moveTuple(t *Tuple, f int, v Value) {
	n := int(t.arity)
	moved := r.newTuple(t.id, t.vals.values(n))
	moved.vals.values(n)[f] = v
	// Free the old copy's heap usage but keep its slot occupied by the
	// forwarding stub, mirroring the paper's "forwarding address left in
	// its old position".
	t.part.heapUsed -= t.heapBytes()
	t.part.snapDirty, t.part.snapReshaped = true, true
	t.vals = fields{}
	t.forward = moved
	r.placeTuple(moved)
}

// ScanPhysical visits every live tuple. It exists for index construction,
// recovery checkpointing, and tests; query execution must reach tuples
// through an index (§2.1).
func (r *Relation) ScanPhysical(fn func(*Tuple) bool) {
	for _, p := range r.parts {
		if !p.scan(fn) {
			return
		}
	}
}
