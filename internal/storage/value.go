// Package storage implements the MM-DBMS storage architecture of Lehman &
// Carey (SIGMOD 1986, §2): relations broken into partitions (the unit of
// recovery), tuples referred to by stable pointers, variable-length fields
// kept in per-partition heap space, foreign keys replaced by tuple-pointer
// fields to enable precomputed joins, and temporary lists (tuple-pointer
// rows plus a result descriptor) for intermediate query results.
package storage

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Type identifies the runtime type of a Value.
type Type uint8

// Field types supported by the MM-DBMS.
const (
	Null  Type = iota // absent value
	Int               // 64-bit signed integer
	Float             // 64-bit IEEE float
	Str               // variable-length string (partition heap space)
	Bool              // boolean
	Ref               // tuple pointer (precomputed-join foreign key)
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Bool:
		return "bool"
	case Ref:
		return "ref"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is a single attribute value. The zero Value is Null.
//
// Values are small (24 bytes) and passed by copy. A Ref value holds a tuple
// pointer; per §2.2 the MM-DBMS substitutes tuple pointers for foreign-key
// values, so joins on Ref fields compare pointers rather than data.
//
// A string, a tuple pointer and a number never live in one value together,
// so the two pointer payloads share one word. The single invariant all
// unsafe code over a Value rests on: ptr is the data pointer of a string of
// length num (nil for the empty string), or a *Tuple, or nil — as typ says
// — and no arithmetic is ever done on it. It stays an unsafe.Pointer, so
// the collector traces it like any other pointer and whatever it points
// into stays reachable through the Value alone.
//
// A relation whose fields are all Int, Float or Bool does not store
// Values at all: its field arrays are cell arrays (cells.go), an 8-byte
// cell a field holding a value's num word and a one-byte tag holding its
// typ, with no pointer word, which would always be nil there. A Value is
// rebuilt from the two as a field is read.
//
// With a data pointer in place of a string, == on two Values would compare
// string addresses, not contents; the zero-size func array makes the type
// non-comparable so that mistake does not compile. Use Equal.
type Value struct {
	_   [0]func()
	ptr unsafe.Pointer // Str: string data; Ref: *Tuple
	num uint64         // Int: int64 bits; Float: IEEE bits; Bool: 0/1; Str: length
	typ Type
}

// The sizes a stored row is made of; storedBytes estimates from them.
const (
	valueBytes       = int64(unsafe.Sizeof(Value{}))
	cellBytes        = int64(unsafe.Sizeof(uint64(0)))
	tupleHeaderBytes = int64(unsafe.Sizeof(Tuple{}))
)

// fields is a tuple's field array, held by its first element: of a
// []Value, or of the cells of a cell array (cells.go), whose type tags sit
// in the bytes before it. The tuple header carries the length and which of
// the two it is. The zero fields is no array (a forwarding stub). Two
// fields are the same version exactly when they are ==.
type fields struct{ p unsafe.Pointer }

// valueFields holds vals, which must not be empty, as a field array.
func valueFields(vals []Value) fields { return fields{unsafe.Pointer(unsafe.SliceData(vals))} }

// cellFields holds w, a cell array of n fields (cellWords(n) words).
func cellFields(w []uint64, n int) fields { return fields{unsafe.Pointer(&w[tagWords(n)])} }

// values is the field array as the n values it starts; f came from
// valueFields over at least n values.
func (f fields) values(n int) []Value { return unsafe.Slice((*Value)(f.p), n) }

// cells is the cell array of n fields f came from, tag words included.
func (f fields) cells(n int) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Add(f.p, -8*tagWords(n))), cellWords(n))
}

// tags is the type tags of the n-field cell array f: the last n bytes
// before its first cell.
func (f fields) tags(n int) []Type { return unsafe.Slice((*Type)(unsafe.Add(f.p, -n)), n) }

// at returns field i of f, an array of n fields: of cells, its tag (whose
// bounds check is the field's) and its cell, or else its Value.
func (f fields) at(i, n int, cells bool) Value {
	if cells {
		return Value{typ: f.tags(n)[i], num: *(*uint64)(unsafe.Add(f.p, 8*i))}
	}
	return f.values(n)[i]
}

// setCell stores v, an Int, Float, Bool or Null value, as field i of the
// n-field cell array f.
func (f fields) setCell(i, n int, v Value) {
	f.tags(n)[i] = v.typ
	*(*uint64)(unsafe.Add(f.p, 8*i)) = v.num
}

// isNil reports whether f is no array.
func (f fields) isNil() bool { return f.p == nil }

// NullValue is the Null constant.
var NullValue = Value{}

// IntValue returns an Int value.
func IntValue(v int64) Value { return Value{typ: Int, num: uint64(v)} }

// FloatValue returns a Float value.
func FloatValue(v float64) Value { return Value{typ: Float, num: math.Float64bits(v)} }

// StringValue returns a Str value. The empty string is stored as a nil
// pointer: unsafe.StringData("") is unspecified and is never kept.
func StringValue(v string) Value {
	if len(v) == 0 {
		return Value{typ: Str}
	}
	return Value{typ: Str, ptr: unsafe.Pointer(unsafe.StringData(v)), num: uint64(len(v))}
}

// BoolValue returns a Bool value.
func BoolValue(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{typ: Bool, num: n}
}

// scalarValue rebuilds an Int, Float or Bool value from its type and its
// 8-byte payload (the num word of the value it was read from), bit for bit.
// ptr stays nil, as the invariant requires of every scalar.
func scalarValue(t Type, num uint64) Value { return Value{typ: t, num: num} }

// isScalar reports whether a value of type t is all payload: an Int, Float
// or Bool, whose num word carries everything and whose ptr is nil.
func isScalar(t Type) bool { return t == Int || t == Float || t == Bool }

// RefValue returns a Ref (tuple pointer) value. A nil tuple yields Null.
func RefValue(t *Tuple) Value {
	if t == nil {
		return NullValue
	}
	return Value{typ: Ref, ptr: unsafe.Pointer(t)}
}

// Type returns the value's runtime type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.typ == Null }

// Int returns the integer payload. It panics if the value is not an Int.
func (v Value) Int() int64 {
	v.mustBe(Int)
	return int64(v.num)
}

// Float returns the float payload. It panics if the value is not a Float.
func (v Value) Float() float64 {
	v.mustBe(Float)
	return math.Float64frombits(v.num)
}

// Str returns the string payload. It panics if the value is not a Str.
func (v Value) Str() string {
	v.mustBe(Str)
	return v.str()
}

// str reads the string payload back; the caller has checked typ == Str.
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), int(v.num)) }

// ref reads the tuple pointer back, forwarding stubs not followed; the
// caller has checked typ == Ref.
func (v Value) ref() *Tuple { return (*Tuple)(v.ptr) }

// Bool returns the boolean payload. It panics if the value is not a Bool.
func (v Value) Bool() bool {
	v.mustBe(Bool)
	return v.num != 0
}

// Ref returns the referenced tuple, following any forwarding addresses left
// behind when a tuple overflowed its partition's heap space (§2.1 footnote
// 1). It panics if the value is not a Ref.
func (v Value) Ref() *Tuple {
	v.mustBe(Ref)
	return v.ref().Resolve()
}

// rawRef returns the referenced tuple without following forwarding
// pointers; used by the codec so forwarding structure round-trips.
func (v Value) rawRef() *Tuple {
	v.mustBe(Ref)
	return v.ref()
}

func (v Value) mustBe(t Type) {
	if v.typ != t {
		v.typeMismatch(t)
	}
}

// typeMismatch is outlined from mustBe so the typed accessors (Int, Float,
// Str, …) stay inlinable: the panic's fmt call would otherwise push mustBe
// over the inlining budget and put a real function call — with a 24-byte
// receiver copy — on every field access in every operator hot loop. The
// noinline keeps the compiler from folding the panic body back in.
//
//go:noinline
func (v Value) typeMismatch(t Type) {
	panic(fmt.Sprintf("storage: value is %s, not %s", v.typ, t))
}

// Compare orders two values. Null sorts before everything; otherwise the
// values must have the same type or Compare panics (the schema layer
// rejects mixed-type comparisons before execution). Ref values compare by
// tuple identity (equal/unequal ordered by tuple ID), which is what makes
// the pointer-based join of §2.1 Query 2 work.
func Compare(a, b Value) int {
	if a.typ == Null || b.typ == Null {
		switch {
		case a.typ == b.typ:
			return 0
		case a.typ == Null:
			return -1
		default:
			return 1
		}
	}
	if a.typ != b.typ {
		panic(fmt.Sprintf("storage: cannot compare %s with %s", a.typ, b.typ))
	}
	switch a.typ {
	case Int:
		return cmpOrdered(int64(a.num), int64(b.num))
	case Float:
		return cmpFloat(math.Float64frombits(a.num), math.Float64frombits(b.num))
	case Str:
		return cmpOrdered(a.str(), b.str())
	case Bool:
		return cmpOrdered(a.num, b.num)
	case Ref:
		ra, rb := a.ref().Resolve(), b.ref().Resolve()
		if ra == rb {
			return 0
		}
		return cmpOrdered(ra.ID(), rb.ID())
	default:
		panic(fmt.Sprintf("storage: cannot compare %s values", a.typ))
	}
}

// cmpFloat is a total order over float64: -0 equals +0, and NaN sorts
// after every other value (and equal to itself), so index invariants hold
// for any float input.
func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	default:
		return cmpOrdered(a, b)
	}
}

func cmpOrdered[T int64 | uint64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal without panicking on type
// mismatch (mismatched types are simply unequal). The Int/Int fast path is
// kept small enough to inline into probe loops — a group-by or join probe
// on integer keys pays two compares instead of a call with two 24-byte
// receiver copies per row.
func Equal(a, b Value) bool {
	if a.typ == Int && b.typ == Int {
		return a.num == b.num
	}
	return equalSlow(a, b)
}

// equalSlow handles every case the inlined fast path doesn't, including
// type mismatch. The noinline keeps it from being folded back into Equal.
//
//go:noinline
func equalSlow(a, b Value) bool {
	if a.typ != b.typ {
		return false
	}
	switch a.typ {
	case Null:
		return true
	case Ref:
		return a.ref().Resolve() == b.ref().Resolve()
	case Str:
		return a.str() == b.str()
	case Float:
		return cmpFloat(math.Float64frombits(a.num), math.Float64frombits(b.num)) == 0
	default:
		return a.num == b.num
	}
}

// Hash returns a 64-bit hash of the value, consistent with Equal.
func Hash(v Value) uint64 {
	if v.typ == Str || v.typ == Ref || v.typ == Float || v.typ == Null {
		return hashSlow(v)
	}
	return mix64(v.num) ^ uint64(v.typ)<<56
}

// HashFold folds per-value hashes into hs column-at-a-time:
// hs[i] = (hs[i] ^ Hash(vals[i])) * FNV-prime — one FNV-1a step per value,
// bit-identical to the fold in exec.KeyHash. Living inside the package
// lets the scalar hash inline into the loop body, so the common Int/Bool
// key pays no call per row.
func HashFold(vals []Value, hs []uint64) {
	if len(hs) < len(vals) {
		panic("storage: HashFold output shorter than input")
	}
	for i := range vals {
		v := vals[i]
		var hv uint64
		if v.typ == Str || v.typ == Ref || v.typ == Float || v.typ == Null {
			hv = hashSlow(v)
		} else {
			hv = mix64(v.num) ^ uint64(v.typ)<<56
		}
		hs[i] = (hs[i] ^ hv) * 1099511628211
	}
}

//go:noinline
func hashSlow(v Value) uint64 {
	switch v.typ {
	case Null:
		return 0x9e3779b97f4a7c15
	case Str:
		// Open-coded FNV-1a (identical to hash/fnv's sum): the stdlib
		// hasher costs an interface allocation-shaped call pair per value,
		// which is pure overhead at one call per row in hash loops.
		h := uint64(14695981039346656037)
		for s, i := v.str(), 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	case Ref:
		return mix64(v.ref().Resolve().ID())
	case Float:
		// Normalize -0.0 to +0.0 and all NaN payloads to one NaN so Equal
		// floats hash equally.
		bits := v.num
		f := math.Float64frombits(bits)
		if f == 0 {
			bits = 0
		} else if math.IsNaN(f) {
			bits = math.Float64bits(math.NaN())
		}
		return mix64(bits) ^ 0xa5a5a5a5
	default:
		return mix64(v.num) ^ uint64(v.typ)<<56
	}
}

// mix64 is the SplitMix64 finalizer, a strong cheap integer mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HeapBytes returns the number of bytes the value occupies in a
// partition's heap space. Fixed-width values live inline in the tuple and
// take no heap space; strings are stored in the heap (§2.1).
func (v Value) HeapBytes() int {
	if v.typ == Str {
		return int(v.num)
	}
	return 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(int64(v.num), 10)
	case Float:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case Str:
		return v.str()
	case Bool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case Ref:
		r := v.ref().Resolve()
		return fmt.Sprintf("ref(%d)", r.ID())
	default:
		return "?"
	}
}
