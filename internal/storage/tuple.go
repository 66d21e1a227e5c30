package storage

import "fmt"

// Tuple is a row of a relation. Tuples are referred to directly by memory
// address (§2.1): once entered into the database a tuple never changes
// location, so a *Tuple held by an index or a temporary list stays valid
// until the tuple is deleted. The one exception the paper allows — a
// growing variable-length field overflowing its partition's heap space —
// moves the tuple and leaves a forwarding address in its old position
// (footnote 1); Resolve follows that chain.
//
// The header is 40 bytes: the slot number, the arity, the dead mark and
// the layout flag share one word (a partition never has 2^31 slots, see
// Config, and a schema never has 2^16 fields, see NewSchema), and the
// field array is reached through one pointer to its first word, its length
// being the arity. The array is a []Value, or a cell array (cells.go) when
// cells is set, as it is in every tuple of an all-scalar relation.
type Tuple struct {
	id      uint64
	part    *Partition
	slot    int32
	arity   uint16
	dead    bool
	cells   bool
	forward *Tuple
	vals    fields // nil in a forwarding stub
}

// Version is one installed field array of a tuple, as an opaque handle:
// Len fields, each read by At. An installed array is never written again
// (see snapshot.go), so a Version reads the same for as long as it is
// held, whatever later happens to its tuple — which is what lets a
// snapshot clone, an observer's old image and a log record keep one by
// reference instead of copying it.
type Version struct {
	vals  fields
	arity uint16
	cells bool
}

// version returns the handle of t's field array.
func (t *Tuple) version() Version { return Version{t.vals, t.arity, t.cells} }

// Len returns the number of fields: 0 for the zero Version.
func (v Version) Len() int {
	if v.vals.isNil() {
		return 0
	}
	return int(v.arity)
}

// At returns field i's value.
func (v Version) At(i int) Value {
	return v.vals.at(i, int(v.arity), v.cells)
}

// appendTo appends every field's value to dst.
func (v Version) appendTo(dst []Value) []Value {
	if !v.cells {
		return append(dst, v.vals.values(v.Len())...)
	}
	for i := range v.Len() {
		dst = append(dst, v.At(i))
	}
	return dst
}

// Canonical resolves forwarding addresses, yielding the tuple's identity;
// it is the comparison two *Tuple handles must agree on to denote the same
// logical tuple.
func (t *Tuple) Canonical() *Tuple { return t.Resolve() }

// ID returns the tuple's database-unique identifier. IDs are stable across
// save/load, which is how Ref values are swizzled by the recovery codec.
func (t *Tuple) ID() uint64 { return t.Resolve().id }

// Partition returns the partition holding the tuple.
func (t *Tuple) Partition() *Partition { return t.Resolve().part }

// Arity returns the number of fields.
func (t *Tuple) Arity() int { return t.Resolve().version().Len() }

// Field returns the value of field i. It is Resolve and Version.At
// written out, to stay small enough to inline into the operators' gather,
// probe and compare loops.
func (t *Tuple) Field(i int) Value {
	for t.forward != nil {
		t = t.forward
	}
	return t.vals.at(i, int(t.arity), t.cells)
}

// FieldArray returns the handle of the tuple's installed field array
// itself, not a copy, which the recovery log holds an insert's row by.
func (t *Tuple) FieldArray() Version { return t.Resolve().version() }

// Values returns a copy of all field values.
func (t *Tuple) Values() []Value {
	v := t.Resolve().version()
	return v.appendTo(make([]Value, 0, v.Len()))
}

// Resolve follows forwarding addresses to the tuple's current location.
// It returns the receiver when the tuple has never moved. Resolve on a nil
// tuple returns nil.
func (t *Tuple) Resolve() *Tuple {
	for t != nil && t.forward != nil {
		t = t.forward
	}
	return t
}

// Live reports whether the tuple is still part of its relation.
func (t *Tuple) Live() bool {
	r := t.Resolve()
	return r != nil && !r.dead
}

// heapBytes returns the partition heap space the tuple's values occupy.
func (t *Tuple) heapBytes() int {
	if t.cells { // no Str field
		return 0
	}
	n := 0
	for _, v := range t.vals.values(t.version().Len()) {
		n += v.HeapBytes()
	}
	return n
}

// String renders the tuple's values for display.
func (t *Tuple) String() string {
	r := t.Resolve()
	return fmt.Sprintf("tuple(%d)%v", r.id, r.version().appendTo(nil))
}
