package tupleindex

import (
	"testing"

	"repro/internal/index"
	"repro/internal/storage"
)

func newRel(t *testing.T) *storage.Relation {
	t.Helper()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "k", Type: storage.Int},
		storage.FieldDef{Name: "s", Type: storage.Str},
	)
	rel, err := storage.NewRelation("r", schema, storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestMaintainerKeepsTTreeInSync(t *testing.T) {
	rel := newRel(t)
	tt := NewTTree(Options{Field: 0})
	rel.Observe(&Maintainer{Field: 0, Insert: tt.Insert, Remove: tt.Delete})

	var tuples []*storage.Tuple
	for i := int64(0); i < 100; i++ {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(i), storage.StringValue("x")})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tp)
	}
	if tt.Len() != 100 {
		t.Fatalf("index len=%d", tt.Len())
	}
	// Update the indexed field: entry must move to its new position.
	if err := rel.Update(tuples[5], 0, storage.IntValue(1000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := tt.Search(PosFor(storage.IntValue(5), 0)); ok {
		t.Fatal("old key still present after update")
	}
	got, ok := tt.Search(PosFor(storage.IntValue(1000), 0))
	if !ok || got.Canonical() != tuples[5].Canonical() {
		t.Fatal("new key not found after update")
	}
	// Update a non-indexed field: no index churn, entry still found.
	if err := rel.Update(tuples[6], 1, storage.StringValue("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok := tt.Search(PosFor(storage.IntValue(6), 0)); !ok {
		t.Fatal("entry lost after non-indexed update")
	}
	// Delete removes the entry.
	if err := rel.Delete(tuples[7]); err != nil {
		t.Fatal(err)
	}
	if _, ok := tt.Search(PosFor(storage.IntValue(7), 0)); ok {
		t.Fatal("deleted tuple still indexed")
	}
	if tt.Len() != 99 {
		t.Fatalf("index len=%d after delete", tt.Len())
	}
}

func TestMaintainerHashIndex(t *testing.T) {
	rel := newRel(t)
	mh := NewMLH(Options{Field: 0})
	rel.Observe(&Maintainer{Field: 0, Insert: mh.Insert, Remove: mh.Delete})
	tp, _ := rel.Insert([]storage.Value{storage.IntValue(7), storage.StringValue("a")})
	if mh.Len() != 1 {
		t.Fatal("insert not propagated")
	}
	rel.Update(tp, 0, storage.IntValue(8))
	if _, ok := mh.SearchKey(storage.Hash(storage.IntValue(8)), func(x *storage.Tuple) bool {
		return storage.Equal(x.Field(0), storage.IntValue(8))
	}); !ok {
		t.Fatal("updated key not found")
	}
	if _, ok := mh.SearchKey(storage.Hash(storage.IntValue(7)), func(x *storage.Tuple) bool {
		return storage.Equal(x.Field(0), storage.IntValue(7))
	}); ok {
		t.Fatal("stale key found")
	}
}

func TestSelfFieldIdentityIndex(t *testing.T) {
	rel := newRel(t)
	mh := NewMLH(Options{Field: SelfField})
	rel.Observe(&Maintainer{Field: SelfField, Insert: mh.Insert, Remove: mh.Delete})
	tp, _ := rel.Insert([]storage.Value{storage.IntValue(1), storage.StringValue("a")})
	key := storage.RefValue(tp)
	if _, ok := mh.SearchKey(storage.Hash(key), func(x *storage.Tuple) bool {
		return storage.Equal(storage.RefValue(x), key)
	}); !ok {
		t.Fatal("identity lookup failed")
	}
	// Updates never reposition an identity index.
	rel.Update(tp, 0, storage.IntValue(99))
	if mh.Len() != 1 {
		t.Fatal("identity index churned on update")
	}
}

func TestKindDispatchers(t *testing.T) {
	for _, k := range []index.Kind{index.KindArray, index.KindAVL, index.KindBTree, index.KindTTree} {
		ix, err := NewOrdered(k, Options{Field: 0})
		if err != nil || ix == nil {
			t.Fatalf("%v: %v", k, err)
		}
		if _, err := NewHashed(k, Options{Field: 0}); err == nil {
			t.Fatalf("%v accepted as hash structure", k)
		}
	}
	for _, k := range []index.Kind{index.KindChainedHash, index.KindExtendible, index.KindLinearHash, index.KindModLinearHash} {
		ix, err := NewHashed(k, Options{Field: 0})
		if err != nil || ix == nil {
			t.Fatalf("%v: %v", k, err)
		}
		if _, err := NewOrdered(k, Options{Field: 0}); err == nil {
			t.Fatalf("%v accepted as ordered structure", k)
		}
	}
}

func TestForwardedTupleStaysIndexed(t *testing.T) {
	// A heap-overflow move must not break index lookups: the index holds
	// the old pointer, comparisons resolve through the forwarding address.
	schema := storage.MustSchema(
		storage.FieldDef{Name: "k", Type: storage.Int},
		storage.FieldDef{Name: "s", Type: storage.Str},
	)
	rel, _ := storage.NewRelation("r", schema, storage.Config{SlotsPerPartition: 4, HeapPerPartition: 16}, storage.NewIDGen())
	tt := NewTTree(Options{Field: 0})
	rel.Observe(&Maintainer{Field: 0, Insert: tt.Insert, Remove: tt.Delete})
	tp, _ := rel.Insert([]storage.Value{storage.IntValue(1), storage.StringValue("0123456789")})
	// Grow the string past the heap: tuple moves, forwarding left behind.
	if err := rel.Update(tp, 1, storage.StringValue("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	got, ok := tt.Search(PosFor(storage.IntValue(1), 0))
	if !ok {
		t.Fatal("tuple lost after forwarding move")
	}
	if got.Field(1).Str() != "0123456789abcdef" {
		t.Fatal("lookup returned stale data")
	}
}
