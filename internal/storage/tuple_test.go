package storage

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The header keeps the arity in 16 bits, so a schema stops at 65,535
// fields, and a row that wide reads back whole.
func TestSchemaArityBound(t *testing.T) {
	defs := make([]FieldDef, maxFields+1)
	for i := range defs {
		defs[i] = FieldDef{Name: fmt.Sprintf("f%d", i), Type: Int}
	}
	if _, err := NewSchema(defs...); err == nil || !strings.Contains(err.Error(), "65536 fields") {
		t.Fatalf("a schema of 65,536 fields: err = %v, want it rejected", err)
	}
	s, err := NewSchema(defs[:maxFields]...)
	if err != nil {
		t.Fatalf("a schema of 65,535 fields rejected: %v", err)
	}
	r, err := NewRelation("wide", s, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]Value, maxFields)
	vals[maxFields-1] = IntValue(7)
	tu, err := r.Insert(vals)
	if err != nil {
		t.Fatal(err)
	}
	if tu.Arity() != maxFields || tu.Field(maxFields-1).Int() != 7 {
		t.Fatalf("a 65,535-field row reads back arity %d, last field %v", tu.Arity(), tu.Field(tu.Arity()-1))
	}
}

// checkRow fails unless Arity, Field and Values all read want through tu,
// and Values hands out a copy that writing into changes nothing.
func checkRow(t *testing.T, form string, tu *Tuple, want ...Value) {
	t.Helper()
	if tu.Arity() != len(want) {
		t.Fatalf("%s: Arity() = %d, want %d", form, tu.Arity(), len(want))
	}
	got := tu.Values()
	if len(got) != len(want) {
		t.Fatalf("%s: Values() has %d values, want %d", form, len(got), len(want))
	}
	for i, w := range want {
		if !identical(tu.Field(i), w) || !identical(got[i], w) {
			t.Fatalf("%s: field %d reads Field %v, Values %v; want %v", form, i, tu.Field(i), got[i], w)
		}
	}
	for i := range got {
		got[i] = StringValue("scribbled")
	}
	for i, w := range want {
		if !identical(tu.Field(i), w) {
			t.Fatalf("%s: writing into Values() changed field %d to %v", form, i, tu.Field(i))
		}
	}
}

// Every form a tuple takes reads the same through Field, Arity and Values:
// carved from the slabs, updated onto a heap array, moved and reached
// through its forwarding stub, cloned into a snapshot (before and after the
// live tuple changes), and recovered with a swizzled Ref. Every scalar
// value class reads back bit for bit in both layouts — cells, and Values
// beside a Str field — slab-carved, updated, set to NULL and back, in a
// snapshot clone, reloaded from a partition image, and folded from a
// logged row into an image and reloaded, as a restart does.
func TestTupleFormsReadThrough(t *testing.T) {
	t.Run("value classes", checkValueClassForms)

	r := newTestRelation(t, Config{SlotsPerPartition: 4, HeapPerPartition: 20})
	carved, err := r.Insert([]Value{IntValue(1), StringValue("abc")})
	if err != nil {
		t.Fatal(err)
	}
	checkRow(t, "slab-carved", carved, IntValue(1), StringValue("abc"))

	updated, err := r.Insert([]Value{IntValue(2), StringValue("de")})
	if err != nil {
		t.Fatal(err)
	}
	clone := func(tu *Tuple) *Tuple {
		s := r.PublishSnapshot()
		for i := 0; i < s.NumParts(); i++ {
			for _, c := range s.Part(i) {
				if c.ID() == tu.ID() {
					return c
				}
			}
		}
		t.Fatalf("tuple %d missing from the snapshot", tu.ID())
		return nil
	}
	held := clone(updated)
	checkRow(t, "snapshot clone", held, IntValue(2), StringValue("de"))
	if err := r.Update(updated, 0, IntValue(20)); err != nil {
		t.Fatal(err)
	}
	checkRow(t, "updated", updated, IntValue(20), StringValue("de"))
	checkRow(t, "snapshot clone after the update", held, IntValue(2), StringValue("de"))
	checkRow(t, "clone published after the update", clone(updated), IntValue(20), StringValue("de"))

	// 3 + 2 heap bytes are in use; growing "abc" to 20 needs 22 of the 20.
	long := strings.Repeat("x", 20)
	if err := r.Update(carved, 1, StringValue(long)); err != nil {
		t.Fatal(err)
	}
	if carved.Resolve() == carved {
		t.Fatal("the growing update did not move the tuple")
	}
	if !carved.vals.isNil() {
		t.Fatal("the forwarding stub still holds a field array")
	}
	checkRow(t, "moved, through its stub", carved, IntValue(1), StringValue(long))
	checkRow(t, "moved, at its new home", carved.Resolve(), IntValue(1), StringValue(long))

	emp, dept, _ := buildEmpDept(t)
	toy, _ := dept.Insert([]Value{StringValue("Toy"), IntValue(459)})
	dave, _ := emp.Insert([]Value{StringValue("Dave"), IntValue(23), IntValue(24), RefValue(toy)})
	emp2, dept2, _ := buildEmpDept(t)
	ld := NewLoader(emp2, dept2)
	for _, p := range []*Partition{emp.Partitions()[0], dept.Partitions()[0]} { // the Ref loads before its target
		if err := ld.LoadPartition(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Finish(); err != nil {
		t.Fatal(err)
	}
	dave2 := ld.byID[dave.ID()]
	toy2 := ld.byID[toy.ID()]
	checkRow(t, "recovered", dave2, StringValue("Dave"), IntValue(23), IntValue(24), RefValue(toy2))
}

// valueClasses is one value of every scalar class with an edge in its bits.
var valueClasses = []Value{
	IntValue(math.MinInt64), IntValue(math.MaxInt64), IntValue(-1), IntValue(0),
	FloatValue(0), FloatValue(math.Copysign(0, -1)), FloatValue(math.Inf(1)), FloatValue(math.Inf(-1)),
	FloatValue(math.NaN()), FloatValue(math.Float64frombits(0xfff8dead00000001)), FloatValue(math.SmallestNonzeroFloat64),
	BoolValue(true), BoolValue(false), NullValue,
}

func checkValueClassForms(t *testing.T) {
	for _, layout := range []string{"cells", "values"} {
		defs := make([]FieldDef, len(valueClasses))
		for f, v := range valueClasses {
			defs[f] = FieldDef{Name: fmt.Sprint("f", f), Type: v.Type()}
			if v.IsNull() {
				defs[f].Type = Float
			}
		}
		row := append([]Value(nil), valueClasses...)
		if layout == "values" {
			defs = append(defs, FieldDef{Name: "pad", Type: Str})
			row = append(row, StringValue("pad"))
		}
		schema := MustSchema(defs...)
		r, err := NewRelation("classes", schema, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.cells != (layout == "cells") {
			t.Fatalf("%s: the relation stores cells = %v", layout, r.cells)
		}
		tu, err := r.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		form := func(what string) string { return layout + ", " + what }
		checkRow(t, form("slab-carved"), tu, row...)
		var held *Tuple
		for _, c := range r.PublishSnapshot().Part(0) {
			held = c
		}
		for f := range valueClasses {
			if err := r.Update(tu, f, row[f]); err != nil {
				t.Fatal(err)
			}
			checkRow(t, form(fmt.Sprintf("updated field %d", f)), tu, row...)
			if err := r.Update(tu, f, NullValue); err != nil {
				t.Fatal(err)
			}
			nulled := append([]Value(nil), row...)
			nulled[f] = NullValue
			checkRow(t, form(fmt.Sprintf("field %d set to NULL", f)), tu, nulled...)
			if err := r.Update(tu, f, row[f]); err != nil {
				t.Fatal(err)
			}
		}
		checkRow(t, form("updated back"), tu, row...)
		checkRow(t, form("snapshot clone"), held, row...)
		for _, c := range r.PublishSnapshot().Part(0) {
			checkRow(t, form("clone published after the updates"), c, row...)
		}

		reload := func(img PartitionImage) *Tuple {
			t.Helper()
			dec, err := DecodePartition(AppendPartition(nil, img))
			if err != nil {
				t.Fatal(err)
			}
			back, err := NewRelation("classes", schema, Config{}, nil)
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
			got := ld.byID[tu.ID()]
			return got
		}
		checkRow(t, form("reloaded from a partition image"), reload(tu.Partition().Snapshot()), row...)
		logged := PartitionImage{Relation: "classes", Tuples: []TupleImage{{ID: tu.ID(), Row: tu.FieldArray()}}}
		checkRow(t, form("folded from a logged row"), reload(logged), row...)
	}
}

// A recovered tuple is carved from the relation's slabs, as an inserted one
// is: reloading 100 images of 256 eight-Int rows costs slab chunks,
// partitions and the loader's ID map, not objects a row.
func TestLoaderCarvesFromSlabs(t *testing.T) {
	const parts, perPart, arity = 100, 256, 8
	defs := make([]FieldDef, arity)
	for c := range defs {
		defs[c] = FieldDef{Name: fmt.Sprintf("c%d", c), Type: Int}
	}
	schema := MustSchema(defs...)
	imgs := make([]PartitionImage, parts)
	for p := range imgs {
		imgs[p] = PartitionImage{Relation: "fact", PartID: p, Tuples: make([]TupleImage, perPart)}
		for i := range imgs[p].Tuples {
			id := uint64(p*perPart + i + 1)
			vals := make([]ValueImage, arity)
			for c := range vals {
				vals[c] = ValueImage{Type: Int, Num: id*arity + uint64(c)}
			}
			imgs[p].Tuples[i] = TupleImage{ID: id, Vals: vals}
		}
	}
	var rel *Relation
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if rel, err = NewRelation("fact", schema, Config{}, nil); err != nil {
			t.Fatal(err)
		}
		ld := NewLoader(rel)
		for _, img := range imgs {
			if err := ld.LoadPartition(img); err != nil {
				t.Fatal(err)
			}
		}
		if err := ld.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / (parts * perPart)
	t.Logf("%.0f allocations to reload %d rows: %.4f a row", allocs, parts*perPart, perRow)
	if perRow >= 0.1 {
		t.Errorf("reloading allocates %.3f objects a row, want under 0.1", perRow)
	}
	if rel.Cardinality() != parts*perPart {
		t.Fatalf("reloaded %d rows, want %d", rel.Cardinality(), parts*perPart)
	}
	last := rel.Partitions()[parts-1].slots[perPart-1]
	checkRow(t, "last reloaded row", last, func() []Value {
		vals := make([]Value, arity)
		for c := range vals {
			vals[c] = IntValue(int64(last.ID()*arity + uint64(c)))
		}
		return vals
	}()...)
}
