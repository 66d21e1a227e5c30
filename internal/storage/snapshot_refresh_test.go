package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// snapRow is one snapshot (or scan) row by value, for comparing images.
type snapRow struct {
	id   uint64
	vals string
}

func rowOf(t *Tuple) snapRow { return snapRow{t.ID(), fmt.Sprint(t.Values())} }

func snapshotRows(s *Snapshot) []snapRow {
	var out []snapRow
	for i := 0; i < s.NumParts(); i++ {
		for _, c := range s.Part(i) {
			out = append(out, rowOf(c))
		}
	}
	return out
}

func sameRows(t *testing.T, what string, got, want []snapRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSnapshotRefreshDifferential drives a seeded mix of every kind of
// change — insert, in-place update, heap-overflow move, delete, re-insert
// into a freed slot — and after each burst checks the refreshed snapshot,
// which shares and patches what it can, row for row and in order against a
// clone built from nothing and against a scan of the live partitions.
func TestSnapshotRefreshDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 8 slots and 64 heap bytes a partition: its short names fill half
		// of that, so the second name grown to 30 bytes overflows the heap
		// and moves its tuple.
		r := newTestRelation(t, Config{SlotsPerPartition: 8, HeapPerPartition: 64})
		var live []*Tuple
		nextID := int64(0)
		insert := func() {
			tp, err := r.Insert([]Value{IntValue(nextID), StringValue(fmt.Sprintf("n%d", nextID))})
			if err != nil {
				t.Fatal(err)
			}
			nextID++
			live = append(live, tp)
		}
		for i := 0; i < 100; i++ {
			insert()
		}
		var patched, cloned, moved int
		for round := 0; round < 200; round++ {
			for n := 1 + rng.Intn(6); n > 0; n-- {
				i := rng.Intn(len(live))
				var err error
				switch k := rng.Intn(10); {
				case k < 5: // in place: an int, or a string of the same length
					if rng.Intn(2) == 0 {
						err = r.Update(live[i], 0, IntValue(-rng.Int63n(1000)))
					} else {
						name := []byte(live[i].Field(1).Str())
						name[0] = byte('a' + rng.Intn(26))
						err = r.Update(live[i], 1, StringValue(string(name)))
					}
				case k < 6: // grow a short name (the heap may overflow), shrink a long one
					home, name := live[i].Partition(), live[i].Field(1).Str()
					if len(name) < 30 {
						name += strings.Repeat("x", 30-len(name))
					} else {
						name = name[:3]
					}
					err = r.Update(live[i], 1, StringValue(name))
					if live[i].Partition() != home {
						moved++
					}
				case k < 8:
					err = r.Delete(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				default: // lands in a freed slot when the last partitions have one
					insert()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// Some rounds change nothing at all, or one partition only.
			snap, built := r.PublishSnapshotStats()
			patched += built.Patched
			cloned += built.Cloned

			var scratch, scan []snapRow
			for _, p := range r.Partitions() {
				for _, c := range clonePartition(p) {
					scratch = append(scratch, rowOf(c))
				}
			}
			r.ScanPhysical(func(tp *Tuple) bool {
				scan = append(scan, rowOf(tp))
				return true
			})
			got := snapshotRows(snap)
			sameRows(t, fmt.Sprintf("seed %d round %d vs from-scratch clone", seed, round), got, scratch)
			sameRows(t, fmt.Sprintf("seed %d round %d vs partition scan", seed, round), got, scan)
			if snap.Rows() != len(live) || r.Cardinality() != len(live) {
				t.Fatalf("seed %d round %d: snapshot %d rows, relation %d, want %d", seed, round, snap.Rows(), r.Cardinality(), len(live))
			}
		}
		if patched == 0 || cloned == 0 || moved == 0 {
			t.Fatalf("seed %d: mix exercised %d patches, %d clones, %d moves; want all three", seed, patched, cloned, moved)
		}
	}
}

// TestHeldSnapshotSurvivesUpdates holds one snapshot through 10,000 later
// updates, republishing beside it: the held image never changes.
func TestHeldSnapshotSurvivesUpdates(t *testing.T) {
	r, tuples := snapRelation(t, 200)
	held := r.PublishSnapshot()
	want := snapshotRows(held)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		tp, v := tuples[rng.Intn(len(tuples))], IntValue(int64(i))
		if i%2 == 1 {
			v = StringValue(fmt.Sprintf("u%d", i))
		}
		if err := r.Update(tp, i%2, v); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			r.PublishSnapshot()
		}
	}
	sameRows(t, "held snapshot after 10k updates", snapshotRows(held), want)
}

// TestCloneSharesArrayUntilUpdate pins down version identity: a clone and
// its live tuple share one field array from publication until the tuple is
// next updated, and that clone never shares one with it again.
func TestCloneSharesArrayUntilUpdate(t *testing.T) {
	r, tuples := snapRelation(t, 16)
	cloneOf := func(s *Snapshot, tp *Tuple) *Tuple {
		for i := 0; i < s.NumParts(); i++ {
			for _, c := range s.Part(i) {
				if c.ID() == tp.ID() {
					return c
				}
			}
		}
		t.Fatalf("tuple %d missing from snapshot", tp.ID())
		return nil
	}
	shares := func(c, tp *Tuple) bool { return c.vals == tp.vals }

	tp := tuples[5]
	first := cloneOf(r.PublishSnapshot(), tp)
	neighbour := cloneOf(r.Snapshot(), tuples[6])
	if !shares(first, tp) {
		t.Fatal("a fresh clone copied the values instead of sharing the tuple's array")
	}
	for i := 0; i < 3; i++ {
		if err := r.Update(tp, 0, IntValue(int64(100+i))); err != nil {
			t.Fatal(err)
		}
		if shares(first, tp) {
			t.Fatalf("update %d wrote the array the clone holds", i)
		}
		if got := first.Field(0).Int(); got != 5 {
			t.Fatalf("clone reads %d after update %d, want the published 5", got, i)
		}
		next := cloneOf(r.PublishSnapshot(), tp)
		if next == first || !shares(next, tp) {
			t.Fatalf("republication %d did not give the updated tuple a clone of its new array", i)
		}
	}
	// The neighbour nobody updated still has the clone it was first given.
	if other := tuples[6]; cloneOf(r.Snapshot(), other) != neighbour || !shares(neighbour, other) {
		t.Fatal("an untouched neighbour was re-cloned or lost its shared array")
	}
}

// TestUpdateGarbageIsBounded checks what immutable versions cost in space:
// the first update of a tuple abandons its slab slot for a heap array, and
// every later update replaces that array, so updating every row 20 times
// leaves the heap where updating every row once left it.
func TestUpdateGarbageIsBounded(t *testing.T) {
	const rows = 40000
	r := newTestRelation(t, Config{})
	tuples := make([]*Tuple, rows)
	for i := range tuples {
		tp, err := r.Insert([]Value{IntValue(int64(i)), StringValue("name")})
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tp
	}
	updateAll := func(round int) {
		for _, tp := range tuples {
			if err := r.Update(tp, 0, IntValue(int64(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	updateAll(1)
	once := liveHeap()
	for round := 2; round <= 20; round++ {
		updateAll(round)
	}
	twenty := liveHeap()
	runtime.KeepAlive(tuples)
	runtime.KeepAlive(r)
	if ratio := twenty / once; ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("live heap %.0f B after 20 updates a row vs %.0f B after one (×%.3f), want within 5%%", twenty, once, ratio)
	}
}
