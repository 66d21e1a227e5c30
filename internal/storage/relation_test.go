package storage

import (
	"fmt"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		FieldDef{Name: "id", Type: Int},
		FieldDef{Name: "name", Type: Str},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestRelation(t *testing.T, cfg Config) *Relation {
	t.Helper()
	r, err := NewRelation("emp", testSchema(t), cfg, NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(FieldDef{Name: "", Type: Int}); err == nil {
		t.Error("empty field name accepted")
	}
	if _, err := NewSchema(FieldDef{Name: "a", Type: Int}, FieldDef{Name: "a", Type: Str}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewSchema(FieldDef{Name: "d", Type: Int, ForeignKey: "dept"}); err == nil {
		t.Error("non-ref foreign key accepted")
	}
	s, err := NewSchema(FieldDef{Name: "d", Type: Ref, ForeignKey: "dept"})
	if err != nil {
		t.Fatalf("valid FK schema rejected: %v", err)
	}
	if s.Field(0).ForeignKey != "dept" {
		t.Error("FK target lost")
	}
}

func TestSchemaFieldIndex(t *testing.T) {
	s := testSchema(t)
	if s.FieldIndex("name") != 1 || s.FieldIndex("id") != 0 {
		t.Error("FieldIndex wrong")
	}
	if s.FieldIndex("missing") != -1 {
		t.Error("missing field should be -1")
	}
	if s.Arity() != 2 {
		t.Error("arity wrong")
	}
}

func TestInsertDeleteLifecycle(t *testing.T) {
	r := newTestRelation(t, Config{})
	var tuples []*Tuple
	for i := 0; i < 100; i++ {
		tp, err := r.Insert([]Value{IntValue(int64(i)), StringValue(fmt.Sprintf("n%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tp)
	}
	if r.Cardinality() != 100 {
		t.Fatalf("cardinality = %d", r.Cardinality())
	}
	// Every tuple readable through its stable pointer.
	for i, tp := range tuples {
		if tp.Field(0).Int() != int64(i) {
			t.Fatalf("tuple %d corrupted", i)
		}
		if !tp.Live() {
			t.Fatalf("tuple %d not live", i)
		}
	}
	// IDs unique.
	seen := map[uint64]bool{}
	for _, tp := range tuples {
		if seen[tp.ID()] {
			t.Fatalf("duplicate ID %d", tp.ID())
		}
		seen[tp.ID()] = true
	}
	// Delete half.
	for i := 0; i < 50; i++ {
		if err := r.Delete(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if r.Cardinality() != 50 {
		t.Fatalf("cardinality after deletes = %d", r.Cardinality())
	}
	if tuples[0].Live() {
		t.Error("deleted tuple still live")
	}
	if err := r.Delete(tuples[0]); err == nil {
		t.Error("double delete accepted")
	}
	// Physical scan sees exactly the survivors.
	n := 0
	r.ScanPhysical(func(tp *Tuple) bool { n++; return true })
	if n != 50 {
		t.Fatalf("scan saw %d tuples, want 50", n)
	}
}

func TestInsertValidatesSchema(t *testing.T) {
	r := newTestRelation(t, Config{})
	if _, err := r.Insert([]Value{IntValue(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := r.Insert([]Value{StringValue("x"), StringValue("y")}); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := r.Insert([]Value{NullValue, NullValue}); err != nil {
		t.Errorf("nulls rejected: %v", err)
	}
}

func TestSlotReuse(t *testing.T) {
	r := newTestRelation(t, Config{SlotsPerPartition: 8})
	var ts []*Tuple
	for i := 0; i < 8; i++ {
		tp, _ := r.Insert([]Value{IntValue(int64(i)), NullValue})
		ts = append(ts, tp)
	}
	if len(r.Partitions()) != 1 {
		t.Fatalf("want 1 partition, got %d", len(r.Partitions()))
	}
	for _, tp := range ts {
		if err := r.Delete(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(100 + i)), NullValue}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.Partitions()) != 1 {
		t.Fatalf("slots not reused: %d partitions", len(r.Partitions()))
	}
}

func TestPartitionGrowth(t *testing.T) {
	r := newTestRelation(t, Config{SlotsPerPartition: 10})
	for i := 0; i < 95; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(i)), NullValue}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.Partitions()); got != 10 {
		t.Fatalf("want 10 partitions, got %d", got)
	}
	total := 0
	for _, p := range r.Partitions() {
		total += p.Live()
	}
	if total != 95 {
		t.Fatalf("partition live counts sum to %d", total)
	}
}

func TestHeapAccountingAndOverflowForwarding(t *testing.T) {
	// Tiny heap so a growing string forces a tuple move with forwarding.
	r := newTestRelation(t, Config{SlotsPerPartition: 4, HeapPerPartition: 20})
	t1, err := r.Insert([]Value{IntValue(1), StringValue("0123456789")}) // 10 heap bytes
	if err != nil {
		t.Fatal(err)
	}
	p0 := t1.Partition()
	if p0.heapUsed != 10 {
		t.Fatalf("heap used = %d", p0.heapUsed)
	}
	t2, err := r.Insert([]Value{IntValue(2), StringValue("abcdefgh")}) // 8 more
	if err != nil {
		t.Fatal(err)
	}
	if t2.Partition() != p0 {
		t.Fatal("second tuple should share the partition")
	}
	// Grow t2's string beyond the partition heap: must move + forward.
	big := strings.Repeat("x", 15)
	if err := r.Update(t2, 1, StringValue(big)); err != nil {
		t.Fatal(err)
	}
	if t2.Field(1).Str() != big {
		t.Fatal("update lost")
	}
	if t2.Resolve() == t2 {
		t.Fatal("expected tuple to be moved (forwarded)")
	}
	if t2.ID() != t2.Resolve().ID() {
		t.Fatal("move changed the tuple ID")
	}
	if p0.heapUsed != 10 {
		t.Fatalf("old partition should only hold t1's 10 bytes, has %d", p0.heapUsed)
	}
	// The old pointer still works for reads and further updates.
	if err := r.Update(t2, 0, IntValue(99)); err != nil {
		t.Fatal(err)
	}
	if t2.Field(0).Int() != 99 {
		t.Fatal("update through forwarded pointer lost")
	}
	// Scan must see the tuple exactly once.
	n := 0
	r.ScanPhysical(func(tp *Tuple) bool {
		if tp.ID() == t2.ID() {
			n++
		}
		return true
	})
	if n != 1 {
		t.Fatalf("moved tuple seen %d times in scan", n)
	}
	// Deleting via the stale pointer removes the real tuple.
	if err := r.Delete(t2); err != nil {
		t.Fatal(err)
	}
	if t2.Live() {
		t.Fatal("tuple live after delete via forwarded pointer")
	}
	if r.Cardinality() != 1 {
		t.Fatalf("cardinality = %d", r.Cardinality())
	}
}

func TestUpdateShrinkReleasesHeap(t *testing.T) {
	r := newTestRelation(t, Config{HeapPerPartition: 100})
	tp, _ := r.Insert([]Value{IntValue(1), StringValue("0123456789")})
	if err := r.Update(tp, 1, StringValue("01")); err != nil {
		t.Fatal(err)
	}
	if got := tp.Partition().heapUsed; got != 2 {
		t.Fatalf("heap used = %d, want 2", got)
	}
}

func TestUpdateErrors(t *testing.T) {
	r := newTestRelation(t, Config{})
	tp, _ := r.Insert([]Value{IntValue(1), StringValue("a")})
	if err := r.Update(tp, 5, IntValue(1)); err == nil {
		t.Error("out-of-range field accepted")
	}
	if err := r.Update(tp, 0, StringValue("x")); err == nil {
		t.Error("wrong type accepted")
	}
	r.Delete(tp)
	if err := r.Update(tp, 0, IntValue(2)); err == nil {
		t.Error("update of dead tuple accepted")
	}
}

type recordingObserver struct {
	inserted, deleted, updating, updated int
	preValue                             Value // field value observed during TupleUpdating
	lastOld                              Version
}

func (o *recordingObserver) TupleInserted(*Tuple) { o.inserted++ }
func (o *recordingObserver) TupleDeleted(*Tuple)  { o.deleted++ }

func (o *recordingObserver) TupleUpdating(t *Tuple, f int, _ Value) {
	o.updating++
	o.preValue = t.Field(f)
}

func (o *recordingObserver) TupleUpdated(_ *Tuple, old Version) {
	o.updated++
	o.lastOld = old
}

func TestObserverNotifications(t *testing.T) {
	r := newTestRelation(t, Config{})
	var obs recordingObserver
	r.Observe(&obs)
	tp, _ := r.Insert([]Value{IntValue(1), StringValue("a")})
	r.Update(tp, 1, StringValue("b"))
	r.Delete(tp)
	if obs.inserted != 1 || obs.updating != 1 || obs.updated != 1 || obs.deleted != 1 {
		t.Fatalf("observer saw %+v", obs)
	}
	if obs.lastOld.Len() != 2 || obs.lastOld.At(1).Str() != "a" {
		t.Fatalf("old values wrong: %v", obs.lastOld.appendTo(nil))
	}
	// TupleUpdating must run pre-mutation: the observed value is the old one.
	if obs.preValue.Str() != "a" {
		t.Fatalf("TupleUpdating saw post-update value %v", obs.preValue)
	}
}

func TestCrossRelationGuards(t *testing.T) {
	ids := NewIDGen()
	r1, _ := NewRelation("a", testSchema(t), Config{}, ids)
	r2, _ := NewRelation("b", testSchema(t), Config{}, ids)
	tp, _ := r1.Insert([]Value{IntValue(1), NullValue})
	if err := r2.Delete(tp); err == nil {
		t.Error("cross-relation delete accepted")
	}
	if err := r2.Update(tp, 0, IntValue(2)); err == nil {
		t.Error("cross-relation update accepted")
	}
}

func TestIDGenReserve(t *testing.T) {
	g := NewIDGen()
	g.Reserve(100)
	if id := g.Next(); id != 101 {
		t.Fatalf("Next after Reserve(100) = %d", id)
	}
	g.Reserve(50) // no-op backwards
	if id := g.Next(); id != 102 {
		t.Fatalf("Next after backwards Reserve = %d", id)
	}
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("", testSchema(t), Config{}, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewRelation("x", nil, Config{}, nil); err == nil {
		t.Error("nil schema accepted")
	}
}
