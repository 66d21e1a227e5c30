package txn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// uniqueRel is newRel with a unique T Tree on k, registered as the
// relation's unique key and kept in sync by a maintainer, as the engine
// wires a primary key.
func uniqueRel(t *testing.T) *storage.Relation {
	t.Helper()
	rel := newRel(t)
	ix, err := tupleindex.NewOrdered(index.KindTTree, tupleindex.Options{Field: 0, Unique: true})
	if err != nil {
		t.Fatal(err)
	}
	rel.Observe(&tupleindex.Maintainer{Field: 0, Insert: ix.Insert, Remove: ix.Delete})
	rel.AddUniqueKey(storage.UniqueKey{Name: "pk", Field: 0, Lookup: func(k storage.Value) (*storage.Tuple, bool) {
		return ix.Search(tupleindex.PosFor(k, 0))
	}})
	return rel
}

func row(k int64) []storage.Value {
	return []storage.Value{storage.IntValue(k), storage.StringValue("x")}
}

// keysOf lists the relation's live keys, sorted by tuple ID.
func keysOf(rel *storage.Relation) string {
	byID := map[uint64]string{}
	var ids []uint64
	rel.ScanPhysical(func(tp *storage.Tuple) bool {
		byID[tp.ID()] = tp.Field(0).String()
		ids = append(ids, tp.ID())
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ""
	for _, id := range ids {
		out += fmt.Sprintf("%d:%s ", id, byID[id])
	}
	return out
}

// TestFailedCommitAppliesNothing: a transaction that inserts 2 and then a
// duplicate 1 fails at Commit and leaves only the committed 1 — the
// insert of 2 that precedes the collision is not applied either.
func TestFailedCommitAppliesNothing(t *testing.T) {
	rel := uniqueRel(t)
	tm := NewManager(lock.NewManager(), nil)
	tx := tm.Begin()
	tx.Insert(rel, row(1))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	before := keysOf(rel)
	tx = tm.Begin()
	tx.Insert(rel, row(2))
	tx.Insert(rel, row(1))
	if _, err := tx.Commit(); err == nil {
		t.Fatal("duplicate key committed")
	}
	if rel.Cardinality() != 1 || keysOf(rel) != before {
		t.Fatalf("after a failed commit: %d rows %q, want 1 row %q", rel.Cardinality(), keysOf(rel), before)
	}
	if s := tm.Locks.Stats(); s.Resources != 0 {
		t.Fatalf("failed commit left locks: %+v", s)
	}
}

// TestDuplicateInsertWithinTransaction: two inserts of one new key in one
// transaction collide with each other, not with the index.
func TestDuplicateInsertWithinTransaction(t *testing.T) {
	rel := uniqueRel(t)
	tm := NewManager(lock.NewManager(), nil)
	tx := tm.Begin()
	for _, k := range []int64{3, 4, 5, 4} {
		tx.Insert(rel, row(k))
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("a key inserted twice in one transaction committed")
	}
	if rel.Cardinality() != 0 {
		t.Fatalf("%d rows after a failed commit", rel.Cardinality())
	}
}

// TestDeleteThenReinsertInOneTransaction: a key the transaction frees by a
// delete or by moving its tuple off it is free for a later op.
func TestDeleteThenReinsertInOneTransaction(t *testing.T) {
	rel := uniqueRel(t)
	tm := NewManager(lock.NewManager(), nil)
	tx := tm.Begin()
	tx.Insert(rel, row(1))
	tx.Insert(rel, row(2))
	tps, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	tx = tm.Begin()
	tx.Delete(rel, tps[0])
	tx.Insert(rel, row(1))
	tx.Update(rel, tps[1], 0, storage.IntValue(20))
	tx.Insert(rel, row(2))
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("reinsert of freed keys: %v", err)
	}
	if rel.Cardinality() != 3 {
		t.Fatalf("%d rows, want 3: %s", rel.Cardinality(), keysOf(rel))
	}
}

// TestKeyChecksMatchSequentialApply drives random transactions over a
// small key space — inserts, key updates (NULL included), other-field
// updates and deletes, repeated keys and repeated tuples — and holds
// Commit to a model that applies the ops one by one: the commit fails
// exactly when some op would fail as it applied (a key held by a live
// row, a write to a deleted row), and then the relation is unchanged.
func TestKeyChecksMatchSequentialApply(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rel := uniqueRel(t)
	tm := NewManager(lock.NewManager(), nil)
	var live []*storage.Tuple
	commits, failures := 0, 0
	for trial := 0; trial < 3000; trial++ {
		// The model: key (or null) per live tuple, -1 for a deleted one.
		const null = int64(-2)
		model := map[*storage.Tuple]int64{}
		for _, tp := range live {
			if k := tp.Field(0); k.IsNull() {
				model[tp] = null
			} else {
				model[tp] = k.Int()
			}
		}
		var inserted []int64
		held := func(k int64, self *storage.Tuple) bool {
			for tp, v := range model {
				if v == k && tp != self {
					return true
				}
			}
			for _, v := range inserted {
				if v == k {
					return true
				}
			}
			return false
		}
		ok := true
		before := keysOf(rel)
		tx := tm.Begin()
		for n := 1 + rng.Intn(6); n > 0; n-- {
			k := int64(rng.Intn(6))
			var tp *storage.Tuple
			if len(live) > 0 {
				tp = live[rng.Intn(len(live))]
			}
			switch r := rng.Intn(5); {
			case r <= 1 || tp == nil:
				ok = ok && !held(k, nil)
				inserted = append(inserted, k)
				tx.Insert(rel, row(k))
			case r == 2:
				v := storage.IntValue(k)
				if rng.Intn(4) == 0 {
					v, k = storage.NullValue, null
				}
				ok = ok && model[tp] != -1 && (k == null || !held(k, tp))
				if model[tp] != -1 {
					model[tp] = k
				}
				tx.Update(rel, tp, 0, v)
			case r == 3:
				ok = ok && model[tp] != -1
				tx.Update(rel, tp, 1, storage.StringValue("y"))
			default:
				ok = ok && model[tp] != -1
				model[tp] = -1
				tx.Delete(rel, tp)
			}
		}
		tps, err := tx.Commit()
		if (err == nil) != ok {
			t.Fatalf("trial %d: commit err=%v, the sequential model says ok=%v", trial, err, ok)
		}
		if err != nil {
			failures++
			if got := keysOf(rel); got != before {
				t.Fatalf("trial %d: failed commit changed %q to %q", trial, before, got)
			}
			continue
		}
		commits++
		next := live[:0]
		for _, tp := range live {
			if tp.Live() {
				next = append(next, tp)
			}
		}
		live = append(next, tps...)
		if len(live) > 5 { // keep the key space contended
			tx := tm.Begin()
			tx.Delete(rel, live[0])
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	if commits < 300 || failures < 300 {
		t.Fatalf("%d commits, %d failures: the trials do not exercise both outcomes", commits, failures)
	}
}

// TestInsertBufferingAllocsLogarithmic: a 1,000-row insert transaction
// stages its rows in the relation's slab chunks, which double in size,
// and its op list grows by doubling, so buffering allocates O(log n)
// times, not once a row. The abort rewinds the slab, so every run
// allocates the chunks again: 21 allocations measured.
func TestInsertBufferingAllocsLogarithmic(t *testing.T) {
	rel := newRel(t)
	tm := NewManager(lock.NewManager(), nil)
	vals := row(1)
	allocs := testing.AllocsPerRun(20, func() {
		tx := tm.Begin()
		for i := 0; i < 1000; i++ {
			if err := tx.Insert(rel, vals); err != nil {
				t.Fatal(err)
			}
		}
		tx.Abort()
	})
	t.Logf("%.0f allocations to buffer 1,000 inserts", allocs)
	if allocs > 21 {
		t.Fatalf("%.0f allocations to buffer 1,000 inserts, want O(log n) (at most 21)", allocs)
	}
}
