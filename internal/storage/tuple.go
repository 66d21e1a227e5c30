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
// The header is 40 bytes: the slot number, the arity and the dead mark
// share one word (a partition never has 2^31 slots, see Config, and a
// schema never has 2^16 fields, see NewSchema), and the field array is
// reached through one pointer to its first element, its length being the
// arity.
type Tuple struct {
	id      uint64
	part    *Partition
	slot    int32
	arity   uint16
	dead    bool
	forward *Tuple
	vals    *Value // the field array's first element; nil in a forwarding stub
}

// row returns the tuple's field array, or nil for a forwarding stub (or a
// header that never had one).
func (t *Tuple) row() []Value {
	if t.vals == nil {
		return nil
	}
	return valueArray(t.vals, int(t.arity))
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
func (t *Tuple) Arity() int { return len(t.Resolve().row()) }

// Field returns the value of field i.
func (t *Tuple) Field(i int) Value { return t.Resolve().row()[i] }

// FieldArray returns the tuple's installed field array itself, not a
// copy. The caller must never write it: an installed array is immutable
// (see snapshot.go), which is what lets the recovery log hold an insert's
// row by reference instead of copying it.
func (t *Tuple) FieldArray() []Value { return t.Resolve().row() }

// Values returns a copy of all field values.
func (t *Tuple) Values() []Value {
	return append([]Value(nil), t.Resolve().row()...)
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
	n := 0
	for _, v := range t.row() {
		n += v.HeapBytes()
	}
	return n
}

// String renders the tuple's values for display.
func (t *Tuple) String() string {
	r := t.Resolve()
	return fmt.Sprintf("tuple(%d)%v", r.id, r.row())
}
