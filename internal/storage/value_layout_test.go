package storage

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// The storage cost of a row is header + arity × Sizeof(Value), or on an
// all-scalar relation header + the cell array: one 8-byte cell a field
// and one type tag word per 8 fields. All three sizes are part of the
// engine's measured space factor, so growing any is a decision, not an
// accident.
func TestValueAndTupleSizes(t *testing.T) {
	if valueBytes != 24 || tupleHeaderBytes != 40 || cellBytes != 8 {
		t.Errorf("Sizeof(Value) = %d, want 24; Sizeof(Tuple) = %d, want 40; a cell %d, want 8", valueBytes, tupleHeaderBytes, cellBytes)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == would compare string addresses, not contents")
	}
	for n, words := range map[int]int{1: 2, 8: 9, 9: 11, 64: 72, maxFields: maxFields + 8192} {
		if got := cellWords(n); got != words {
			t.Errorf("a cell array of %d fields is %d words, want %d", n, got, words)
		}
	}
}

// refValue is the 40-byte representation Value had before its pointer
// payloads were folded into one word, with the semantics of every function
// over it copied as they stood. The fuzz target below holds the 24-byte
// Value to it.
type refValue struct {
	typ Type
	num uint64
	str string
	ref *Tuple
}

func (v refValue) heapBytes() int {
	if v.typ == Str {
		return len(v.str)
	}
	return 0
}

func (v refValue) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(int64(v.num), 10)
	case Float:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case Str:
		return v.str
	case Bool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case Ref:
		return fmt.Sprintf("ref(%d)", v.ref.Resolve().ID())
	default:
		return "?"
	}
}

func refEqual(a, b refValue) bool {
	if a.typ != b.typ {
		return false
	}
	switch a.typ {
	case Null:
		return true
	case Ref:
		return a.ref.Resolve() == b.ref.Resolve()
	case Str:
		return a.str == b.str
	case Float:
		return cmpFloat(math.Float64frombits(a.num), math.Float64frombits(b.num)) == 0
	default:
		return a.num == b.num
	}
}

// refCompare is Compare over refValue; it panics where Compare does.
func refCompare(a, b refValue) int {
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
		panic("mixed types")
	}
	switch a.typ {
	case Int:
		return cmpOrdered(int64(a.num), int64(b.num))
	case Float:
		return cmpFloat(math.Float64frombits(a.num), math.Float64frombits(b.num))
	case Str:
		return cmpOrdered(a.str, b.str)
	case Bool:
		return cmpOrdered(a.num, b.num)
	default:
		ra, rb := a.ref.Resolve(), b.ref.Resolve()
		if ra == rb {
			return 0
		}
		return cmpOrdered(ra.ID(), rb.ID())
	}
}

func refHash(v refValue) uint64 {
	switch v.typ {
	case Null:
		return 0x9e3779b97f4a7c15
	case Str:
		h := uint64(14695981039346656037)
		for i := 0; i < len(v.str); i++ {
			h ^= uint64(v.str[i])
			h *= 1099511628211
		}
		return h
	case Ref:
		return mix64(v.ref.Resolve().ID())
	case Float:
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

// fuzzTuples are the Ref targets of the fuzz target: two plain tuples and
// one that moved, reached through its forwarding stub.
var fuzzTuples = func() []*Tuple {
	moved := looseTuple(7, IntValue(7))
	return []*Tuple{looseTuple(3, IntValue(3)), looseTuple(5, IntValue(5)), {id: 7, forward: moved}, moved}
}()

// looseTuple is a tuple header of no relation holding vals.
func looseTuple(id uint64, vals ...Value) *Tuple {
	return &Tuple{id: id, arity: uint16(len(vals)), vals: valueFields(vals)}
}

// fuzzPair builds one value both ways from a fuzz input. Strings are
// substrings of text, so several values share one backing buffer and a
// value's data pointer is usually not the start of an allocation.
func fuzzPair(kind uint8, bits uint64, text string, off, n uint16) (Value, refValue) {
	switch Type(kind % 6) {
	case Int:
		return IntValue(int64(bits)), refValue{typ: Int, num: bits}
	case Float:
		return FloatValue(math.Float64frombits(bits)), refValue{typ: Float, num: bits}
	case Str:
		lo := min(int(off), len(text))
		s := text[lo:min(lo+int(n), len(text))]
		return StringValue(s), refValue{typ: Str, str: s}
	case Bool:
		if bits&1 == 1 {
			return BoolValue(true), refValue{typ: Bool, num: 1}
		}
		return BoolValue(false), refValue{typ: Bool}
	case Ref:
		tu := fuzzTuples[bits%uint64(len(fuzzTuples))]
		return RefValue(tu), refValue{typ: Ref, ref: tu}
	default:
		return NullValue, refValue{}
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

func checkAccessors(t *testing.T, v Value, r refValue) {
	t.Helper()
	if v.Type() != r.typ || v.IsNull() != (r.typ == Null) {
		t.Fatalf("type %s, want %s", v.Type(), r.typ)
	}
	switch r.typ {
	case Int:
		if v.Int() != int64(r.num) {
			t.Fatalf("Int %d, want %d", v.Int(), int64(r.num))
		}
	case Float:
		if math.Float64bits(v.Float()) != r.num {
			t.Fatalf("Float bits %#x, want %#x", math.Float64bits(v.Float()), r.num)
		}
	case Str:
		if v.Str() != r.str {
			t.Fatalf("Str %q, want %q", v.Str(), r.str)
		}
	case Bool:
		if v.Bool() != (r.num != 0) {
			t.Fatalf("Bool %v, want %v", v.Bool(), r.num != 0)
		}
	case Ref:
		if v.Ref() != r.ref.Resolve() || v.rawRef() != r.ref {
			t.Fatalf("Ref %p raw %p, want %p raw %p", v.Ref(), v.rawRef(), r.ref.Resolve(), r.ref)
		}
	}
	// Every accessor of another type still panics.
	for ty, get := range map[Type]func(){
		Int: func() { v.Int() }, Float: func() { v.Float() }, Str: func() { v.Str() },
		Bool: func() { v.Bool() }, Ref: func() { v.Ref() },
	} {
		if panics(get) != (ty != r.typ) {
			t.Fatalf("%s accessor on a %s value: panicked = %v", ty, r.typ, ty == r.typ)
		}
	}
	if v.HeapBytes() != r.heapBytes() || v.String() != r.String() || Hash(v) != refHash(r) {
		t.Fatalf("HeapBytes/String/Hash %d %q %#x, want %d %q %#x",
			v.HeapBytes(), v.String(), Hash(v), r.heapBytes(), r.String(), refHash(r))
	}
	img := ImageOf(v)
	want := ValueImage{Type: r.typ}
	switch r.typ {
	case Null:
	case Str:
		want.Str = r.str
	case Ref:
		want.RefID = r.ref.ID()
	default:
		want.Num = r.num
	}
	if img != want {
		t.Fatalf("ImageOf = %+v, want %+v", img, want)
	}
}

func FuzzValueRoundTrip(f *testing.F) {
	// One seed per type pairing; the edge cases (NaN payloads, ±0, empty,
	// invalid UTF-8 and overlapping substrings of one 4 KiB buffer, a
	// forwarded tuple) are the named files of
	// testdata/fuzz/FuzzValueRoundTrip, which go test runs as unit cases.
	text := []byte("partition heap space")
	for kind := uint8(0); kind < 6; kind++ {
		f.Add(kind, uint64(1), kind, uint64(2), text, uint16(0), uint16(9), uint16(10), uint16(4))
		f.Add(kind, uint64(1), (kind+1)%6, uint64(1), text, uint16(0), uint16(9), uint16(0), uint16(9))
	}
	f.Fuzz(func(t *testing.T, ka uint8, ba uint64, kb uint8, bb uint64, buf []byte, oa, na, ob, nb uint16) {
		text := string(buf)
		a, ra := fuzzPair(ka, ba, text, oa, na)
		b, rb := fuzzPair(kb, bb, text, ob, nb)
		checkAccessors(t, a, ra)
		checkAccessors(t, b, rb)

		if Equal(a, b) != refEqual(ra, rb) || Equal(b, a) != refEqual(rb, ra) {
			t.Fatalf("Equal(%v, %v) = %v, reference %v", a, b, Equal(a, b), refEqual(ra, rb))
		}
		if !Equal(a, a) {
			t.Fatalf("%v is not Equal to itself", a)
		}
		if Equal(a, b) && Hash(a) != Hash(b) {
			t.Fatalf("%v Equal %v but hashes differ", a, b)
		}
		var want int
		if wantPanic := panics(func() { want = refCompare(ra, rb) }); wantPanic {
			if !panics(func() { Compare(a, b) }) {
				t.Fatalf("Compare(%v, %v) did not panic", a, b)
			}
		} else if got := Compare(a, b); got != want || Compare(b, a) != -want {
			t.Fatalf("Compare(%v, %v) = %d, reference %d", a, b, got, want)
		}

		hs, seed := []uint64{ba, bb}, []uint64{ba, bb}
		HashFold([]Value{a, b}, hs)
		for i, r := range []refValue{ra, rb} {
			if want := (seed[i] ^ refHash(r)) * 1099511628211; hs[i] != want {
				t.Fatalf("HashFold[%d] = %#x, want %#x", i, hs[i], want)
			}
		}
	})
}

// A Value is the only thing that keeps its string data or its tuple
// reachable: the collector has to see Value.ptr as a pointer, into the
// middle of an allocation as well as at its start.
func TestValuePayloadSurvivesGC(t *testing.T) {
	const n = 2000
	vals := make([]Value, 0, 2*n)
	refs := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		b := []byte(fmt.Sprintf("transient-%06d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
		s := string(b)
		vals = append(vals, StringValue(s), StringValue(s[10:16])) // whole string, interior substring
		for j := range b {
			b[j] = 0 // the string copied the bytes; scribbling here must not show
		}
		refs = append(refs, RefValue(looseTuple(uint64(i), IntValue(int64(i)), StringValue(string(b[:0])+strconv.Itoa(i)))))
	}
	churn := func() {
		runtime.GC()
		junk := make([][]byte, 0, 4096)
		for i := 0; i < 4096; i++ { // reuse whatever the collector freed
			junk = append(junk, bytes.Repeat([]byte{0xAA}, 64))
		}
		runtime.KeepAlive(junk)
		runtime.GC()
	}
	churn()
	churn()
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("transient-%06d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
		if got := vals[2*i].Str(); got != want {
			t.Fatalf("string %d after GC: %q", i, got)
		}
		if got := vals[2*i+1].Str(); got != want[10:16] {
			t.Fatalf("substring %d after GC: %q, want %q", i, got, want[10:16])
		}
		tu := refs[i].Ref()
		if tu.ID() != uint64(i) || tu.Field(0).Int() != int64(i) || tu.Field(1).Str() != strconv.Itoa(i) {
			t.Fatalf("tuple %d after GC: %v", i, tu)
		}
	}
}

// allTypesRelation holds every field type (and a Null in each column's
// place), with fixed tuple IDs so its image is reproducible.
func allTypesRelation(t *testing.T) *Relation {
	t.Helper()
	schema := MustSchema(
		FieldDef{Name: "i", Type: Int}, FieldDef{Name: "f", Type: Float}, FieldDef{Name: "s", Type: Str},
		FieldDef{Name: "b", Type: Bool}, FieldDef{Name: "r", Type: Ref},
	)
	rel, err := NewRelation("all", schema, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first *Tuple
	for i, vals := range [][]Value{
		{IntValue(-1), FloatValue(math.Copysign(0, -1)), StringValue(""), BoolValue(false), NullValue},
		{IntValue(math.MinInt64), FloatValue(math.Float64frombits(0x7ff8dead00000001)), StringValue("a\xff\x00b"), BoolValue(true), NullValue},
		{NullValue, NullValue, NullValue, NullValue, NullValue},
	} {
		if i == 1 {
			vals[4] = RefValue(first)
		}
		tu, err := rel.Insert(vals)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = tu
		}
	}
	rel.Partitions()[0].SetLSN(42)
	return rel
}

// The disk format is ValueImage's, not Value's: the image of a partition
// holding all six types is byte for byte what the 40-byte Value produced
// (testdata/partition_all_types.golden was written by the parent commit),
// and decoding and reloading it gives the same values back.
func TestCodecImageUnchanged(t *testing.T) {
	rel := allTypesRelation(t)
	img := rel.Partitions()[0].Snapshot()
	got := AppendPartition(nil, img)
	want, err := os.ReadFile("testdata/partition_all_types.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("partition image changed:\n got %x\nwant %x", got, want)
	}

	dec, err := DecodePartition(want)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewRelation("all", rel.Schema(), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(back)
	if err := ld.LoadPartition(dec); err != nil {
		t.Fatal(err)
	}
	if err := ld.Finish(); err != nil {
		t.Fatal(err)
	}
	if again := AppendPartition(nil, back.Partitions()[0].Snapshot()); !bytes.Equal(again, want) {
		t.Fatalf("image after a reload differs:\n got %x\nwant %x", again, want)
	}
	var orig []*Tuple
	rel.ScanPhysical(func(tu *Tuple) bool { orig = append(orig, tu); return true })
	i := 0
	back.ScanPhysical(func(tu *Tuple) bool {
		for f := 0; f < tu.Arity(); f++ {
			a, b := orig[i].Field(f), tu.Field(f)
			if a.Type() == Ref && b.Type() == Ref { // a pointer into another relation copy
				if a.Ref().ID() != b.Ref().ID() {
					t.Errorf("tuple %d field %d: ref(%d), want ref(%d)", tu.ID(), f, b.Ref().ID(), a.Ref().ID())
				}
				continue
			}
			same := a.Type() == b.Type() && a.String() == b.String()
			if a.Type() == Float && b.Type() == Float {
				same = math.Float64bits(a.Float()) == math.Float64bits(b.Float())
			}
			if !same {
				t.Errorf("tuple %d field %d: %v, want %v", tu.ID(), f, b, a)
			}
		}
		i++
		return true
	})
}
