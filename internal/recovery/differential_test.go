package recovery_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
)

// diffRelations are the differential workload's relations: owners, loaded
// past two default partitions so full partitions get folded, and items,
// which reference owners and whose partitions hold eight tuples and 64
// bytes of strings, so a growing string moves its tuple.
func diffRelations(t *testing.T) (owner, item *storage.Relation) {
	t.Helper()
	ids := storage.NewIDGen()
	var err error
	owner, err = storage.NewRelation("owner", storage.MustSchema(
		storage.FieldDef{Name: "name", Type: storage.Str},
		storage.FieldDef{Name: "n", Type: storage.Int},
	), storage.Config{}, ids)
	if err != nil {
		t.Fatal(err)
	}
	item, err = storage.NewRelation("item", storage.MustSchema(
		storage.FieldDef{Name: "i", Type: storage.Int},
		storage.FieldDef{Name: "f", Type: storage.Float},
		storage.FieldDef{Name: "s", Type: storage.Str},
		storage.FieldDef{Name: "o", Type: storage.Ref, ForeignKey: "owner"},
		storage.FieldDef{Name: "b", Type: storage.Bool},
	), storage.Config{SlotsPerPartition: 8, HeapPerPartition: 64}, ids)
	if err != nil {
		t.Fatal(err)
	}
	return owner, item
}

// rowImages maps every live tuple of rel to its values' images.
func rowImages(rel *storage.Relation) map[uint64][]storage.ValueImage {
	out := make(map[uint64][]storage.ValueImage)
	rel.ScanPhysical(func(tp *storage.Tuple) bool {
		vals := make([]storage.ValueImage, tp.Arity())
		for f := range vals {
			vals[f] = storage.ImageOf(tp.Field(f))
		}
		out[tp.ID()] = vals
		return true
	})
	return out
}

// decodedTuples decodes an image into its tuples by ID.
func decodedTuples(t *testing.T, data []byte) map[uint64][]storage.ValueImage {
	t.Helper()
	img, err := storage.DecodePartition(data)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]storage.ValueImage, len(img.Tuples))
	for _, tu := range img.Tuples {
		out[tu.ID] = tu.Vals
	}
	return out
}

func sameRows(a, b map[uint64][]storage.ValueImage) bool {
	if len(a) != len(b) {
		return false
	}
	for id, va := range a {
		if vb, ok := b[id]; !ok || !slices.Equal(va, vb) {
			return false
		}
	}
	return true
}

// runDiffWorkload commits the differential workload through tm: every
// value kind, inserts, updates, deletes, an aborted transaction, and
// string updates that outgrow their partition's heap, so their tuples move
// and leave forwarding stubs — updated and deleted again after the move,
// in the moving transaction and in later ones.
func runDiffWorkload(t *testing.T, tm *txn.Manager, owner, item *storage.Relation) {
	t.Helper()
	commit := func(tx *txn.Txn) []*storage.Tuple {
		t.Helper()
		ins, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Strings cut from one buffer, the empty one among them.
	buf := strings.Repeat("abcdefgh", 8)
	sub := func(k int) storage.Value { return storage.StringValue(buf[k%7 : k%7+k%5]) }
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, math.Inf(-1)}

	var owners []*storage.Tuple
	for lo := 0; lo < 600; lo += 100 {
		tx := tm.Begin()
		for i := lo; i < lo+100; i++ {
			check(tx.Insert(owner, []storage.Value{storage.StringValue(buf[i%9 : 9+i%50]), storage.IntValue(int64(i))}))
		}
		owners = append(owners, commit(tx)...)
	}
	itemRow := func(k int) []storage.Value {
		row := []storage.Value{storage.IntValue(int64(k)), storage.FloatValue(floats[k%len(floats)]), sub(k),
			storage.RefValue(owners[k%100]), storage.BoolValue(k%2 == 0)}
		if k%6 == 0 {
			row[k%5] = storage.NullValue
		}
		return row
	}
	var items []*storage.Tuple
	for lo := 0; lo < 63; lo += 7 {
		tx := tm.Begin()
		for k := lo; k < lo+7; k++ {
			check(tx.Insert(item, itemRow(k)))
		}
		items = append(items, commit(tx)...)
	}

	// Updates of every kind, a few per transaction.
	for k, tp := range items {
		tx := tm.Begin()
		check(tx.Update(item, tp, 1, storage.FloatValue(floats[(k+2)%len(floats)])))
		if k%3 == 0 {
			check(tx.Update(item, tp, 2, sub(k+3)))
			check(tx.Update(item, tp, 3, storage.RefValue(owners[(k*7)%100])))
		}
		if k%4 == 1 {
			check(tx.Update(item, tp, 0, storage.NullValue))
		}
		commit(tx)
	}
	// Deletes, and inserts that reuse the freed slots.
	tx := tm.Begin()
	for k := 0; k < len(items); k += 9 {
		check(tx.Delete(item, items[k]))
	}
	for i := 500; i < 600; i += 3 { // owners no item references
		check(tx.Delete(owner, owners[i]))
	}
	commit(tx)
	tx = tm.Begin()
	for k := 100; k < 104; k++ {
		check(tx.Insert(item, itemRow(k)))
	}
	items = append(items, commit(tx)...)

	// An aborted transaction leaves no trace.
	tx = tm.Begin()
	check(tx.Insert(item, itemRow(200)))
	check(tx.Update(item, items[1], 0, storage.IntValue(-1)))
	check(tx.Delete(item, items[2]))
	check(tx.Insert(owner, []storage.Value{storage.StringValue("gone"), storage.IntValue(-1)}))
	tx.Abort()

	// Moves: a string that outgrows its partition's heap moves the tuple.
	long := func(k int) storage.Value { return storage.StringValue(buf[k%2 : k%2+62]) }
	moves := []struct {
		tp     *storage.Tuple
		before func(tx *txn.Txn) // in the moving transaction, before the move
		after  func(tx *txn.Txn) // in it, after the move
		later  func(tx *txn.Txn) // in a later transaction
	}{
		{tp: items[3], later: func(tx *txn.Txn) { check(tx.Update(item, items[3], 0, storage.IntValue(333))) }},
		{tp: items[4], later: func(tx *txn.Txn) { check(tx.Delete(item, items[4])) }},
		{tp: items[5], after: func(tx *txn.Txn) {
			check(tx.Update(item, items[5], 0, storage.IntValue(555)))
			check(tx.Update(item, items[5], 1, storage.FloatValue(math.NaN())))
		}},
		{tp: items[6], before: func(tx *txn.Txn) { check(tx.Update(item, items[6], 0, storage.IntValue(666))) }},
		{tp: items[7], after: func(tx *txn.Txn) { check(tx.Delete(item, items[7])) }},
	}
	for k, mv := range moves {
		from := mv.tp.Partition()
		tx := tm.Begin()
		if mv.before != nil {
			mv.before(tx)
		}
		check(tx.Update(item, mv.tp, 2, long(k)))
		if mv.after != nil {
			mv.after(tx)
		}
		commit(tx)
		if mv.tp.Live() && mv.tp.Partition() == from {
			t.Fatalf("move %d: a %d-byte string did not move its tuple", k, long(k).HeapBytes())
		}
		if mv.later != nil {
			tx := tm.Begin()
			mv.later(tx)
			commit(tx)
		}
	}
}

// TestLogFoldMatchesCheckpoint is the differential test of the log path
// against the checkpoint path. The workload commits every value kind —
// Int, Float with NaN and ±0, strings cut from one buffer and the empty
// one, NULL, Refs into a second relation — through inserts, updates,
// deletes, an aborted transaction and tuple moves, with the log device
// off, at 1 ms and at 1 h. Once all is folded, each partition's frame
// decodes to what Checkpoint writes for that partition; and a reopened
// manager recovers exactly the live relations.
func TestLogFoldMatchesCheckpoint(t *testing.T) {
	for _, dev := range []struct {
		name     string
		interval time.Duration
	}{{"off", 0}, {"1ms", time.Millisecond}, {"1h", time.Hour}} {
		t.Run(dev.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := recovery.NewManager(dir)
			if err != nil {
				t.Fatal(err)
			}
			owner, item := diffRelations(t)
			var d *recovery.Device
			if dev.interval > 0 {
				d = log.StartDevice(dev.interval)
			}
			runDiffWorkload(t, txn.NewManager(lock.NewManager(), log), owner, item)
			if dev.interval == time.Millisecond {
				for deadline := time.Now().Add(5 * time.Second); log.PendingRecords() > 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d records still pending 5 s after the last commit", log.PendingRecords())
					}
				}
			} else if err := log.PropagateOnce(); err != nil {
				t.Fatal(err)
			}

			ckpt, err := recovery.NewManager(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer ckpt.Close()
			if err := ckpt.Checkpoint(owner, item); err != nil {
				t.Fatal(err)
			}
			folded, err := log.DiskPartitions()
			if err != nil {
				t.Fatal(err)
			}
			written, err := ckpt.DiskPartitions()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(folded, written) {
				t.Fatalf("the log folded partitions %v, Checkpoint wrote %v", folded, written)
			}
			for _, k := range folded {
				f, err := log.Image(k)
				if err != nil {
					t.Fatal(err)
				}
				c, err := ckpt.Image(k)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := decodedTuples(t, f), decodedTuples(t, c); !sameRows(got, want) {
					t.Fatalf("partition %v: the log folded %v, Checkpoint wrote %v", k, got, want)
				}
			}

			if d != nil {
				if err := d.Stop(); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := recovery.NewManager(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			owner2, item2 := diffRelations(t)
			restart(t, reopened, owner2, item2)
			for _, rels := range [][2]*storage.Relation{{owner, owner2}, {item, item2}} {
				if got, want := rowImages(rels[1]), rowImages(rels[0]); !sameRows(got, want) {
					t.Fatalf("%s: recovered %v, want %v", rels[0].Name(), got, want)
				}
			}
		})
	}
}

// TestRowRecordWordsMatchVals: a record holding a row by reference counts
// the words its value-image form would.
func TestRowRecordWordsMatchVals(t *testing.T) {
	_, dept := schemas(t, storage.NewIDGen())
	target, err := dept.Insert([]storage.Value{storage.StringValue("d"), storage.IntValue(1)})
	if err != nil {
		t.Fatal(err)
	}
	row := []storage.Value{
		storage.IntValue(7), storage.FloatValue(math.NaN()), storage.StringValue(""),
		storage.StringValue("abcde"), storage.StringValue("abcdefgh"), storage.NullValue,
		storage.RefValue(target), storage.BoolValue(true),
	}
	// The same values as an all-scalar row, which a relation stores in cells.
	cells := []storage.Value{storage.IntValue(7), storage.FloatValue(math.NaN()), storage.NullValue, storage.BoolValue(true)}
	for _, row := range [][]storage.Value{row, cells} {
		vals := make([]storage.ValueImage, len(row))
		defs := make([]storage.FieldDef, len(row))
		for f, v := range row {
			vals[f] = storage.ImageOf(v)
			defs[f] = storage.FieldDef{Name: fmt.Sprint("f", f), Type: v.Type()}
			if v.IsNull() {
				defs[f].Type = storage.Int
			}
		}
		rel, err := storage.NewRelation("row", storage.MustSchema(defs...), storage.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := rel.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		byRef := recovery.Record{Op: recovery.OpInsert, Row: tp.FieldArray()}
		byVal := recovery.Record{Op: recovery.OpInsert, Vals: vals}
		if got, want := byRef.Words(), byVal.Words(); got != want {
			t.Fatalf("a Row record counts %d words, its Vals form %d", got, want)
		}
	}
}
