package storage

import (
	"fmt"
	"testing"
)

// snapRelation builds a relation with small partitions (8 slots) so a
// modest row count spans several partitions, and inserts n rows
// (id=i, name="n<i>").
func snapRelation(t *testing.T, n int) (*Relation, []*Tuple) {
	t.Helper()
	r := newTestRelation(t, Config{SlotsPerPartition: 8})
	tuples := make([]*Tuple, 0, n)
	for i := 0; i < n; i++ {
		tp, err := r.Insert([]Value{IntValue(int64(i)), StringValue(fmt.Sprintf("n%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tp)
	}
	return r, tuples
}

func TestSnapshotPublishAndFreshness(t *testing.T) {
	r, _ := snapRelation(t, 40)
	if r.Snapshot() != nil {
		t.Fatal("snapshot before any publication")
	}
	r.PublishSnapshot()
	s := r.Snapshot()
	if s == nil {
		t.Fatal("no snapshot after publication")
	}
	if s.Rows() != 40 {
		t.Fatalf("snapshot rows = %d, want 40", s.Rows())
	}
	if s.Epoch() != r.SnapshotEpoch() {
		t.Fatalf("snapshot epoch %d != relation epoch %d", s.Epoch(), r.SnapshotEpoch())
	}

	// Any DML staleness the snapshot: Snapshot() refuses to hand it out.
	if _, err := r.Insert([]Value{IntValue(1000), NullValue}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("stale snapshot handed out after DML")
	}
	if s2 := r.PublishSnapshot(); s2 != r.Snapshot() || s2.Rows() != 41 {
		t.Fatalf("republication produced %+v, want the fresh 41-row snapshot", s2)
	}
}

// TestSnapshotCOWReuse verifies a refresh costs what changed: untouched
// partitions share the previous snapshot's clone arrays (same backing
// array), and a partition that saw one in-place update gets a new array in
// which only the updated tuple's clone is new.
func TestSnapshotCOWReuse(t *testing.T) {
	r, tuples := snapRelation(t, 40) // 5 partitions of 8
	r.PublishSnapshot()
	prev := r.Snapshot()
	if prev == nil || prev.NumParts() < 3 {
		t.Fatalf("want >=3 partitions, got %+v", prev)
	}

	// Touch only the partition holding tuples[0] (an in-place update —
	// same-size heap footprint is irrelevant for Int).
	if err := r.Update(tuples[0], 0, IntValue(-1)); err != nil {
		t.Fatal(err)
	}
	next, built := r.PublishSnapshotStats()
	if want := (RefreshStats{Patched: 1, Tuples: 1}); built != want {
		t.Fatalf("refresh did %+v, want %+v", built, want)
	}
	if again, built := r.PublishSnapshotStats(); again != next || built != (RefreshStats{}) {
		t.Fatalf("publishing a fresh snapshot did %+v", built)
	}
	dirtyPart := tuples[0].Partition().ID()
	for j, c := range next.Part(dirtyPart) {
		if updated := c.ID() == tuples[0].ID(); updated == (c == prev.Part(dirtyPart)[j]) {
			t.Fatalf("clone %d of the patched partition: updated=%v but reused=%v", j, updated, !updated)
		}
	}
	for i := 0; i < next.NumParts() && i < prev.NumParts(); i++ {
		a, b := prev.Part(i), next.Part(i)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		shared := &a[0] == &b[0]
		if i == dirtyPart && shared {
			t.Fatalf("partition %d was touched but its clone array was reused", i)
		}
		if i != dirtyPart && !shared {
			t.Fatalf("partition %d untouched but re-cloned (COW miss)", i)
		}
	}
	// The re-cloned partition reflects the update.
	found := false
	for _, tp := range next.Part(dirtyPart) {
		if tp.Field(0).Int() == -1 {
			found = true
		}
	}
	if !found {
		t.Fatal("republished snapshot does not reflect the update")
	}
}

// TestSnapshotClonesAreImmutable verifies snapshot tuples keep the values
// they were published with under later DML, and are marked dead so
// transactional writes through a snapshot handle fail commit validation.
func TestSnapshotClonesAreImmutable(t *testing.T) {
	r, tuples := snapRelation(t, 20)
	r.PublishSnapshot()
	s := r.Snapshot()

	var clone *Tuple
	for i := 0; i < s.NumParts(); i++ {
		for _, tp := range s.Part(i) {
			if tp.ID() == tuples[3].ID() {
				clone = tp
			}
		}
	}
	if clone == nil {
		t.Fatal("tuple 3 missing from snapshot")
	}
	if clone.Live() {
		t.Fatal("snapshot clone reports Live; txn validation would accept writes through it")
	}
	before := clone.Field(1).Str()
	if err := r.Update(tuples[3], 1, StringValue("mutated")); err != nil {
		t.Fatal(err)
	}
	if got := clone.Field(1).Str(); got != before {
		t.Fatalf("snapshot clone changed under DML: %q -> %q", before, got)
	}

	// Row-order identity: the snapshot enumerates the same tuples, in the
	// same order, as a locked physical scan at the same epoch.
	r.PublishSnapshot()
	s = r.Snapshot()
	var live []uint64
	r.ScanPhysical(func(tp *Tuple) bool {
		live = append(live, tp.ID())
		return true
	})
	var snap []uint64
	for i := 0; i < s.NumParts(); i++ {
		for _, tp := range s.Part(i) {
			snap = append(snap, tp.ID())
		}
	}
	if len(live) != len(snap) {
		t.Fatalf("snapshot has %d tuples, live scan %d", len(snap), len(live))
	}
	for i := range live {
		if live[i] != snap[i] {
			t.Fatalf("row order diverges at %d: live %d snapshot %d", i, live[i], snap[i])
		}
	}
}

// TestSnapshotSkipsDeleted verifies deletes dirty the partition and the
// next publication drops the tuple.
func TestSnapshotSkipsDeleted(t *testing.T) {
	r, tuples := snapRelation(t, 16)
	r.PublishSnapshot()
	if err := r.Delete(tuples[5]); err != nil {
		t.Fatal(err)
	}
	r.PublishSnapshot()
	s := r.Snapshot()
	if s.Rows() != 15 {
		t.Fatalf("snapshot rows = %d, want 15", s.Rows())
	}
	for i := 0; i < s.NumParts(); i++ {
		for _, tp := range s.Part(i) {
			if tp.ID() == tuples[5].ID() {
				t.Fatal("deleted tuple survives in republished snapshot")
			}
		}
	}
}
