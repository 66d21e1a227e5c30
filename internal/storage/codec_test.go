package storage

import (
	"testing"
	"testing/quick"
)

func buildEmpDept(t *testing.T) (emp, dept *Relation, ids *IDGen) {
	t.Helper()
	ids = NewIDGen()
	deptSchema := MustSchema(
		FieldDef{Name: "name", Type: Str},
		FieldDef{Name: "id", Type: Int},
	)
	empSchema := MustSchema(
		FieldDef{Name: "name", Type: Str},
		FieldDef{Name: "id", Type: Int},
		FieldDef{Name: "age", Type: Int},
		FieldDef{Name: "dept", Type: Ref, ForeignKey: "dept"},
	)
	var err error
	dept, err = NewRelation("dept", deptSchema, Config{}, ids)
	if err != nil {
		t.Fatal(err)
	}
	emp, err = NewRelation("emp", empSchema, Config{}, ids)
	if err != nil {
		t.Fatal(err)
	}
	return emp, dept, ids
}

func TestPartitionImageRoundTrip(t *testing.T) {
	emp, dept, _ := buildEmpDept(t)
	toy, _ := dept.Insert([]Value{StringValue("Toy"), IntValue(459)})
	shoe, _ := dept.Insert([]Value{StringValue("Shoe"), IntValue(409)})
	emp.Insert([]Value{StringValue("Dave"), IntValue(23), IntValue(24), RefValue(toy)})
	emp.Insert([]Value{StringValue("Suzan"), IntValue(12), IntValue(27), RefValue(shoe)})
	emp.Insert([]Value{StringValue("Cindy"), IntValue(22), IntValue(22), NullValue})

	// Snapshot, encode, decode, reload into fresh relations.
	var images []PartitionImage
	for _, p := range dept.Partitions() {
		p.SetLSN(7)
		images = append(images, p.Snapshot())
	}
	for _, p := range emp.Partitions() {
		images = append(images, p.Snapshot())
	}
	var decoded []PartitionImage
	for _, img := range images {
		got, err := DecodePartition(AppendPartition(nil, img))
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, got)
	}

	emp2, dept2, ids2 := buildEmpDept(t)
	_ = ids2
	ld := NewLoader(emp2, dept2)
	for _, img := range decoded {
		if err := ld.LoadPartition(img); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Finish(); err != nil {
		t.Fatal(err)
	}
	if emp2.Cardinality() != 3 || dept2.Cardinality() != 2 {
		t.Fatalf("cardinalities %d/%d", emp2.Cardinality(), dept2.Cardinality())
	}
	if dept2.Partitions()[0].LSN() != 7 {
		t.Fatalf("LSN lost: %d", dept2.Partitions()[0].LSN())
	}
	// Ref swizzling: Dave's dept pointer must land on the reloaded Toy tuple.
	var daveDept *Tuple
	emp2.ScanPhysical(func(tp *Tuple) bool {
		if tp.Field(0).Str() == "Dave" {
			daveDept = tp.Field(3).Ref()
		}
		return true
	})
	if daveDept == nil {
		t.Fatal("Dave not reloaded")
	}
	if daveDept.Field(0).Str() != "Toy" || daveDept.Field(1).Int() != 459 {
		t.Fatalf("Dave's dept = %v", daveDept)
	}
	// The reloaded ref must be a pointer into dept2, not the old database.
	if daveDept.Partition().Relation() != dept2 {
		t.Fatal("ref resolved into the wrong database instance")
	}
	// Null field survives.
	emp2.ScanPhysical(func(tp *Tuple) bool {
		if tp.Field(0).Str() == "Cindy" && !tp.Field(3).IsNull() {
			t.Error("Cindy's null dept became non-null")
		}
		return true
	})
}

func TestLoaderRejectsUnknownRelationAndDuplicateID(t *testing.T) {
	emp, _, _ := buildEmpDept(t)
	ld := NewLoader(emp)
	if err := ld.LoadPartition(PartitionImage{Relation: "nope"}); err == nil {
		t.Error("unknown relation accepted")
	}
	img := PartitionImage{Relation: "emp", Tuples: []TupleImage{
		{ID: 5, Vals: []ValueImage{{Type: Str, Str: "a"}, {Type: Int, Num: 1}, {Type: Int, Num: 2}, {Type: Null}}},
		{ID: 5, Vals: []ValueImage{{Type: Str, Str: "b"}, {Type: Int, Num: 1}, {Type: Int, Num: 2}, {Type: Null}}},
	}}
	if err := ld.LoadPartition(img); err == nil {
		t.Error("duplicate tuple ID accepted")
	}
}

func TestLoaderDanglingRefFails(t *testing.T) {
	emp, _, _ := buildEmpDept(t)
	ld := NewLoader(emp)
	img := PartitionImage{Relation: "emp", Tuples: []TupleImage{
		{ID: 1, Vals: []ValueImage{{Type: Str, Str: "a"}, {Type: Int, Num: 1}, {Type: Int, Num: 2}, {Type: Ref, RefID: 999}}},
	}}
	if err := ld.LoadPartition(img); err != nil {
		t.Fatal(err)
	}
	if err := ld.Finish(); err == nil {
		t.Error("dangling ref accepted")
	}
}

func TestLoaderPreservesPartitionIDs(t *testing.T) {
	emp, _, _ := buildEmpDept(t)
	ld := NewLoader(emp)
	// Load partition 2 before 0 — out-of-order, like a working set.
	img := PartitionImage{Relation: "emp", PartID: 2, LSN: 42, Tuples: []TupleImage{
		{ID: 9, Vals: []ValueImage{{Type: Str, Str: "z"}, {Type: Int, Num: 1}, {Type: Int, Num: 2}, {Type: Null}}},
	}}
	if err := ld.LoadPartition(img); err != nil {
		t.Fatal(err)
	}
	if len(emp.Partitions()) != 3 {
		t.Fatalf("want 3 partitions, got %d", len(emp.Partitions()))
	}
	if emp.Partitions()[2].LSN() != 42 || emp.Partitions()[2].Live() != 1 {
		t.Fatal("partition 2 not populated")
	}
	// Next normal insert must not collide with the reserved ID.
	tp, err := emp.Insert([]Value{StringValue("n"), IntValue(1), IntValue(2), NullValue})
	if err != nil {
		t.Fatal(err)
	}
	if tp.ID() <= 9 {
		t.Fatalf("ID %d collides with loaded IDs", tp.ID())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0},
	}
	for _, c := range cases {
		if _, err := DecodePartition(c); err == nil {
			t.Errorf("garbage %v accepted", c)
		}
	}
	// Truncation anywhere in a valid image must error, not panic.
	emp, _, _ := buildEmpDept(t)
	emp.Insert([]Value{StringValue("abc"), IntValue(1), IntValue(2), NullValue})
	full := AppendPartition(nil, emp.Partitions()[0].Snapshot())
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodePartition(full[:cut]); err == nil {
			t.Fatalf("truncated image (%d of %d bytes) accepted", cut, len(full))
		}
	}
	// Trailing garbage must also error.
	if _, err := DecodePartition(append(append([]byte(nil), full...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(id uint64, n int64, s string, lsn uint64, partID uint8) bool {
		img := PartitionImage{
			Relation: "r",
			PartID:   int(partID),
			LSN:      lsn,
			Tuples: []TupleImage{{ID: id, Vals: []ValueImage{
				{Type: Int, Num: uint64(n)},
				{Type: Str, Str: s},
				{Type: Null},
				{Type: Bool, Num: 1},
				{Type: Float, Num: 0x400921fb54442d18},
			}}},
		}
		got, err := DecodePartition(AppendPartition(nil, img))
		if err != nil {
			return false
		}
		if got.Relation != img.Relation || got.PartID != img.PartID || got.LSN != img.LSN {
			return false
		}
		if len(got.Tuples) != 1 || got.Tuples[0].ID != id {
			return false
		}
		for i, v := range got.Tuples[0].Vals {
			w := img.Tuples[0].Vals[i]
			if v.Type != w.Type || v.Num != w.Num || v.Str != w.Str || v.RefID != w.RefID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSkipsDeadAndForwardedStubs(t *testing.T) {
	r := newTestRelation(t, Config{SlotsPerPartition: 4, HeapPerPartition: 12})
	t1, _ := r.Insert([]Value{IntValue(1), StringValue("0123456789")})
	r.Update(t1, 1, StringValue("0123456789xx")) // overflow: moves tuple
	dead, _ := r.Insert([]Value{IntValue(2), NullValue})
	r.Delete(dead)
	total := 0
	for _, p := range r.Partitions() {
		total += len(p.Snapshot().Tuples)
	}
	if total != 1 {
		t.Fatalf("snapshots hold %d tuples, want 1 (no stubs, no dead)", total)
	}
}
