package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// checkCells asserts that r, an all-scalar relation, stores every field
// array as a cell array — each live tuple's, each clone's in the published
// snapshot, the open slab chunk's, with no Value chunk beside it — and
// that every live tuple reads back want's values for it, bit for bit.
func checkCells(t *testing.T, when string, r *Relation, want map[*Tuple][]Value) {
	t.Helper()
	if !r.cells {
		t.Fatalf("%s: relation %s is not all-scalar", when, r.name)
	}
	if cap(r.slab.varena) != 0 {
		t.Fatalf("%s: the slab has a Value chunk of %d", when, cap(r.slab.varena))
	}
	n := 0
	r.ScanPhysical(func(tu *Tuple) bool {
		n++
		if !tu.cells {
			t.Fatalf("%s: tuple %d holds Values", when, tu.id)
		}
		checkRow(t, fmt.Sprintf("%s: tuple %d", when, tu.id), tu, want[tu]...)
		return true
	})
	if n != len(want) {
		t.Fatalf("%s: %d live tuples, want %d", when, n, len(want))
	}
	if s := r.snap.Load(); s != nil {
		for p := 0; p < s.NumParts(); p++ {
			for _, c := range s.Part(p) {
				if !c.cells {
					t.Fatalf("%s: snapshot clone %d holds Values", when, c.id)
				}
			}
		}
	}
}

func intSchema(t *testing.T, arity int) *Schema {
	t.Helper()
	defs := make([]FieldDef, arity)
	for c := range defs {
		defs[c] = FieldDef{Name: fmt.Sprintf("c%d", c), Type: Int}
	}
	return MustSchema(defs...)
}

// An all-Int relation keeps every field array in cells, and every row
// reads back what was written, through every way a row is written,
// versioned, cloned and reloaded: inserts, updates (in place, with a
// published snapshot holding the old version, to NULL and back), deletes
// and slot reuse, staged rows rewound, snapshot publication and refresh,
// and a checkpoint image reloaded into a fresh relation.
func TestScalarArraysStayPointerFree(t *testing.T) {
	const arity = 4
	schema := intSchema(t, arity)
	r, err := NewRelation("fact", schema, Config{SlotsPerPartition: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var live []*Tuple
	want := map[*Tuple][]Value{}
	row := func() []Value {
		vals := make([]Value, arity)
		for c := range vals {
			if rng.Intn(8) == 0 {
				continue // Null
			}
			vals[c] = IntValue(rng.Int63() - rng.Int63())
		}
		return vals
	}
	for step := 0; step < 4000; step++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(live) == 0:
			vals := row()
			tu, err := r.Insert(vals)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, tu)
			want[tu] = vals
		case k < 6:
			tu := live[rng.Intn(len(live))]
			v := IntValue(rng.Int63())
			if rng.Intn(4) == 0 {
				v = NullValue
			}
			f := rng.Intn(arity)
			if err := r.Update(tu, f, v); err != nil {
				t.Fatal(err)
			}
			want[tu] = append([]Value(nil), want[tu]...)
			want[tu][f] = v
		case k < 7:
			i := rng.Intn(len(live))
			if err := r.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			delete(want, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case k < 8:
			m := r.SlabMark()
			for n := rng.Intn(40); n > 0; n-- {
				r.Stage(row())
			}
			r.Rewind(m)
		default:
			r.PublishSnapshot()
		}
		if step%500 == 0 {
			checkCells(t, fmt.Sprintf("step %d", step), r, want)
		}
	}
	r.PublishSnapshot()
	checkCells(t, "after the mix", r, want)

	reloaded, err := NewRelation("fact", schema, Config{SlotsPerPartition: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(reloaded)
	for _, p := range r.Partitions() {
		img, err := DecodePartition(AppendPartition(nil, p.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		if err := ld.LoadPartition(img); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Finish(); err != nil {
		t.Fatal(err)
	}
	back := map[*Tuple][]Value{}
	for tu, vals := range want {
		re, ok := ld.byID[tu.ID()]
		if !ok {
			t.Fatalf("tuple %d was not reloaded", tu.ID())
		}
		back[re] = vals
	}
	checkCells(t, "after reload", reloaded, back)
}

// Every write path into a relation rejects a Str or a Ref value for an
// Int field before it copies anything — a cell would keep the payload and
// lose the type: the slab cursor does not move and the tuple keeps its
// field array.
func TestScalarWritePathsRejectPointers(t *testing.T) {
	r, err := NewRelation("fact", intSchema(t, 2), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := r.Insert([]Value{IntValue(1), IntValue(2)})
	if err != nil {
		t.Fatal(err)
	}
	other := looseTuple(99, IntValue(0))
	for _, bad := range []Value{StringValue("not an int"), RefValue(other)} {
		before, vals := r.SlabMark(), tu.vals
		sameCursor := func(path string) {
			t.Helper()
			now := r.SlabMark()
			if !sameArray(before.tslab, now.tslab) || len(before.tslab) != len(now.tslab) || len(before.carena) != len(now.carena) {
				t.Errorf("%s with a %s value moved the slab cursor", path, bad.Type())
			}
		}
		if _, err := r.Insert([]Value{IntValue(3), bad}); err == nil {
			t.Errorf("Insert accepted a %s value for an Int field", bad.Type())
		}
		sameCursor("Insert")
		if err := r.Update(tu, 1, bad); err == nil {
			t.Errorf("Update accepted a %s value for an Int field", bad.Type())
		}
		if tu.vals != vals {
			t.Errorf("a rejected Update with a %s value installed a new field array", bad.Type())
		}
	}
	checkCells(t, "after the rejected writes", r, map[*Tuple][]Value{tu: {IntValue(1), IntValue(2)}})
}

// Only an all-scalar schema gets cell arrays. A relation with a Str (or
// Ref) field keeps Value arrays, which the collector scans, so its string
// payloads survive collections through the slab and through the version
// arrays Update installs.
func TestPointerFieldsKeepScannedArrays(t *testing.T) {
	for _, c := range []struct {
		fields []FieldDef
		scalar bool
	}{
		{[]FieldDef{{Name: "i", Type: Int}, {Name: "f", Type: Float}, {Name: "b", Type: Bool}}, true},
		{[]FieldDef{{Name: "i", Type: Int}, {Name: "s", Type: Str}}, false},
		{[]FieldDef{{Name: "i", Type: Int}, {Name: "r", Type: Ref, ForeignKey: "x"}}, false},
	} {
		r, err := NewRelation("r", MustSchema(c.fields...), Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.cells != c.scalar {
			t.Errorf("schema %v: cells = %v, want %v", c.fields, r.cells, c.scalar)
		}
	}

	r, err := NewRelation("emp", MustSchema(FieldDef{Name: "id", Type: Int}, FieldDef{Name: "name", Type: Str}), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	name := func(i int) string { return fmt.Sprintf("name-%06d-%s", i, strings.Repeat("x", 40)) }
	fresh := func(i int) Value { return StringValue(string([]byte(name(i)))) } // a string only the relation holds
	tuples := make([]*Tuple, n)
	for i := range tuples {
		if tuples[i], err = r.Insert([]Value{IntValue(int64(i)), fresh(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := r.Update(tuples[i], 1, fresh(n+i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		runtime.GC()
		junk := make([][]byte, 0, 4096)
		for i := 0; i < 4096; i++ { // reuse whatever the collector freed
			junk = append(junk, bytes.Repeat([]byte{0xAA}, 64))
		}
		runtime.KeepAlive(junk)
		runtime.GC()
	}
	for i, tu := range tuples {
		want := name(i)
		if i%2 == 0 {
			want = name(n + i)
		}
		if got := tu.Field(1).Str(); got != want {
			t.Fatalf("row %d after GC: %q, want %q", i, got, want)
		}
	}
}
