package storage_test

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func pairRelation(t *testing.T, name string) *storage.Relation {
	t.Helper()
	schema := storage.MustSchema(storage.FieldDef{Name: "id", Type: storage.Int}, storage.FieldDef{Name: "v", Type: storage.Int})
	r, err := storage.NewRelation(name, schema, storage.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pair(id int) []storage.Value {
	return []storage.Value{storage.IntValue(int64(id)), storage.IntValue(int64(-id))}
}

// A transaction stages its inserts in the relation's slabs, and every way
// it can end without committing gives that space back: 1,000
// transactions each stage 100 rows and then abort — explicitly, by a
// duplicate key failing Commit, or as the victim of a deadlock. Afterwards
// the slab cursor, the stored-bytes estimate and the live heap are where
// they were, and the next committed rows land where the first aborted row
// did.
func TestAbortsGiveSlabSpaceBack(t *testing.T) {
	const txns, rows = 1000, 100
	locks := lock.NewManager()
	tm := txn.NewManager(locks, nil)
	rel, other := pairRelation(t, "fact"), pairRelation(t, "other")
	var taken *storage.Tuple // holds key 0, so a staged key 0 fails Commit
	rel.AddUniqueKey(storage.UniqueKey{Name: "pk", Field: 0, Lookup: func(k storage.Value) (*storage.Tuple, bool) {
		return taken, k.Int() == 0
	}})
	tx := tm.Begin()
	for i := 0; i < 10; i++ {
		if err := tx.Insert(rel, pair(i)); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	taken = committed[0]

	heap0, bytes0, mark0 := liveHeap(), rel.StoredBytes(), rel.SlabMark()
	first := storage.NextTuple(mark0)
	if first == nil {
		t.Fatal("the open chunk is full; the test needs room in it")
	}
	stage := func(tx *txn.Txn, key0 bool) {
		t.Helper()
		for i := 0; i < rows; i++ {
			id := 1000 + i
			if key0 && i == rows-1 {
				id = 0
			}
			if err := tx.Insert(rel, pair(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := 0; n < txns; n++ {
		switch n % 3 {
		case 0:
			tx := tm.Begin()
			stage(tx, false)
			tx.Abort()
		case 1:
			tx := tm.Begin()
			stage(tx, true)
			if _, err := tx.Commit(); err == nil {
				t.Fatal("a duplicate key committed")
			}
		case 2:
			// The younger transaction stages and closes a cycle; the
			// lock manager picks the youngest of a cycle as its victim.
			older, younger := tm.Begin(), tm.Begin()
			stage(younger, false)
			if err := older.LockRelationExclusive(other); err != nil {
				t.Fatal(err)
			}
			granted := make(chan error, 1)
			go func() { granted <- older.LockRelationExclusive(rel) }()
			if err := younger.Insert(other, pair(1)); !errors.Is(err, lock.ErrDeadlock) {
				t.Fatalf("the younger transaction got %v, want a deadlock", err)
			}
			if err := <-granted; err != nil {
				t.Fatalf("the older transaction: %v", err)
			}
			older.Abort()
		}
		if now := rel.SlabMark(); !storage.SameCursor(now, mark0) {
			t.Fatalf("transaction %d (kind %d) left the slab cursor moved", n, n%3)
		}
	}
	if b := rel.StoredBytes(); b != bytes0 {
		t.Errorf("stored bytes %d after the aborts, %d before", b, bytes0)
	}
	// Without the rewind the aborted rows would hold ≈ 8.8 MB of slab.
	if heap1 := liveHeap(); heap1 > heap0+1<<20 {
		t.Errorf("live heap grew by %d KiB over %d aborted transactions", (heap1-heap0)>>10, txns)
	}

	tx = tm.Begin()
	for i := 0; i < rows; i++ {
		if err := tx.Insert(rel, pair(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	ins, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ins[0] != first {
		t.Error("the first committed row did not land where the first aborted row did")
	}
	for i, tp := range ins {
		if tp.Field(0).Int() != int64(2000+i) || tp.Field(1).Int() != int64(-2000-i) {
			t.Fatalf("committed row %d reads %v", i, tp)
		}
	}
	if rel.Cardinality() != 10+rows {
		t.Errorf("cardinality %d, want %d", rel.Cardinality(), 10+rows)
	}
}

// Txn.Insert and Txn.Update reject a Str or a Ref value for an Int field
// before anything is staged or locked.
func TestTxnRejectsPointersBeforeStaging(t *testing.T) {
	locks := lock.NewManager()
	tm := txn.NewManager(locks, nil)
	rel := pairRelation(t, "fact")
	seed, err := rel.Insert(pair(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []storage.Value{storage.StringValue("not an int"), storage.RefValue(seed)} {
		mark := rel.SlabMark()
		tx := tm.Begin()
		if err := tx.Insert(rel, []storage.Value{storage.IntValue(2), bad}); err == nil {
			t.Errorf("Txn.Insert accepted a %s value for an Int field", bad.Type())
		}
		if !storage.SameCursor(rel.SlabMark(), mark) {
			t.Errorf("a rejected Txn.Insert with a %s value staged a row", bad.Type())
		}
		if _, held := locks.Holds(lock.TxnID(tx.ID()), rel); held {
			t.Errorf("a rejected Txn.Insert with a %s value took the relation lock", bad.Type())
		}
		if err := tx.Update(rel, seed, 1, bad); err == nil {
			t.Errorf("Txn.Update accepted a %s value for an Int field", bad.Type())
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if v := seed.Field(1); v.Type() != storage.Int || v.Int() != -1 {
			t.Errorf("after a rejected update the field reads %v", v)
		}
	}
}
