package recovery_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
)

// wideDept is the dept relation with default-sized partitions.
func wideDept(t *testing.T) *storage.Relation {
	t.Helper()
	_, small := schemas(t, storage.NewIDGen())
	dept, err := storage.NewRelation("dept", small.Schema(), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	return dept
}

// load inserts rows new departments, committing every batch rows, and
// returns their tuples.
func load(t *testing.T, tm *txn.Manager, dept *storage.Relation, rows, batch int) []*storage.Tuple {
	t.Helper()
	var out []*storage.Tuple
	for lo := 0; lo < rows; lo += batch {
		tx := tm.Begin()
		for i := lo; i < min(lo+batch, rows); i++ {
			if err := tx.Insert(dept, []storage.Value{storage.StringValue(fmt.Sprintf("d%d", i)), storage.IntValue(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		ins, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ins...)
	}
	return out
}

// restart recovers the disk copy under m into the given fresh relations.
func restart(t *testing.T, m *recovery.Manager, rels ...*storage.Relation) {
	t.Helper()
	r := m.NewRestart(rels...)
	if err := r.LoadRemaining(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestDurableLoadCreatesFewFiles: a load of over a hundred partitions
// through committing transactions, beside a running log device, leaves
// the disk copy in one segment file instead of a file per partition.
func TestDurableLoadCreatesFewFiles(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	dept := wideDept(t)
	tm := txn.NewManager(lock.NewManager(), log)
	dev := log.StartDevice(time.Millisecond)
	load(t, tm, dept, 110*storage.DefaultSlotsPerPartition, 1000)
	if err := dev.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := log.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	keys, err := log.DiskPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if parts := len(dept.Partitions()); parts < 100 || len(keys) != parts {
		t.Fatalf("%d partitions in the disk copy, %d in memory: want at least 100 of each", len(keys), parts)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 2 {
		t.Fatalf("the disk copy of %d partitions is %d files, want at most 2", len(keys), len(entries))
	}
}

// TestSegmentCompactsAndRecovers rewrites every partition pass after pass
// until the segment has been compacted at least twice. The segment stays
// within twice its live bytes plus a frame, and a fresh manager over it
// recovers exactly what was committed.
func TestSegmentCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	dept := wideDept(t)
	tm := txn.NewManager(lock.NewManager(), log)
	// 100 partitions of about 8 KB: twice the live bytes exceeds the
	// size below which the segment is left alone.
	tuples := load(t, tm, dept, 100*storage.DefaultSlotsPerPartition, 2000)
	shadow := make(map[uint64]int64, len(tuples))
	for i, tp := range tuples {
		shadow[tp.ID()] = int64(i)
	}
	seg := filepath.Join(dir, recovery.SegmentFile)
	passes := 0
	for ; log.Compactions() < 2 || passes < 3; passes++ {
		if passes == 20 {
			t.Fatalf("%d passes, %d compactions", passes, log.Compactions())
		}
		// One update in every partition, then one device pass rewrites
		// all their images.
		tx := tm.Begin()
		for i := passes; i < len(tuples); i += storage.DefaultSlotsPerPartition {
			v := int64(-1000*passes - i)
			if err := tx.Update(dept, tuples[i], 1, storage.IntValue(v)); err != nil {
				t.Fatal(err)
			}
			shadow[tuples[i].ID()] = v
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := log.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
		keys, err := log.DiskPartitions()
		if err != nil {
			t.Fatal(err)
		}
		var frame int64
		for _, k := range keys {
			_, size, _, _ := log.FrameOf(k)
			frame = max(frame, size)
		}
		live := log.LiveBytes()
		if got := fileSize(t, seg); got > 2*live+frame {
			t.Fatalf("pass %d: segment %d bytes, live %d, largest frame %d", passes, got, live, frame)
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
	dept2 := wideDept(t)
	restart(t, reopened, dept2)
	got := 0
	dept2.ScanPhysical(func(tp *storage.Tuple) bool {
		got++
		if want, ok := shadow[tp.ID()]; !ok || tp.Field(1).Int() != want {
			t.Errorf("tuple %d: id field %d, shadow %d (present %v)", tp.ID(), tp.Field(1).Int(), want, ok)
		}
		return true
	})
	if got != len(shadow) {
		t.Fatalf("recovered %d tuples after %d passes, want %d", got, passes, len(shadow))
	}
}

// TestReopenRebuildsDirectory: a fresh manager over a segment lists the
// partitions written, each at its latest frame's LSN.
func TestReopenRebuildsDirectory(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	emp, dept := schemas(t, storage.NewIDGen())
	tm := txn.NewManager(lock.NewManager(), log)
	var depts []*storage.Tuple
	for round := 0; round < 4; round++ {
		depts = append(depts, load(t, tm, dept, 3, 3)...)
		tx := tm.Begin()
		for i := 0; i < 5; i++ {
			tx.Insert(emp, []storage.Value{storage.StringValue("e"), storage.IntValue(int64(i)), storage.RefValue(depts[i%len(depts)])})
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := log.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			if err := log.Checkpoint(emp, dept); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys, err := log.DiskPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(emp.Partitions()) + len(dept.Partitions()); len(keys) != want {
		t.Fatalf("%d partitions written, %d in memory", len(keys), want)
	}
	if fileSize(t, filepath.Join(dir, recovery.SegmentFile)) <= log.LiveBytes() {
		t.Fatal("no partition image was rewritten")
	}
	want := make(map[recovery.PartKey]uint64, len(keys))
	for _, k := range keys {
		_, _, lsn, _ := log.FrameOf(k)
		want[k] = lsn
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, err := reopened.DiskPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened directory lists %v, want %v", got, want)
	}
	for _, k := range got {
		_, _, lsn, ok := reopened.FrameOf(k)
		if w, written := want[k]; !ok || !written || lsn != w {
			t.Errorf("%v: reopened at LSN %d (written %v at LSN %d)", k, lsn, written, w)
		}
	}
}

// TestWritesAfterReopenPropagate: LSNs continue above the disk copy's, so
// a change committed after a reopen reaches the next disk image instead
// of being taken for one the image already holds.
func TestWritesAfterReopenPropagate(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, dept := schemas(t, storage.NewIDGen())
	load(t, txn.NewManager(lock.NewManager(), log), dept, 20, 5)
	if err := log.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	log.Close()

	for gen := int64(1); gen <= 3; gen++ {
		m, err := recovery.NewManager(dir)
		if err != nil {
			t.Fatal(err)
		}
		emp2, dept2 := schemas(t, storage.NewIDGen())
		restart(t, m, emp2, dept2)
		var first *storage.Tuple
		dept2.ScanPhysical(func(tp *storage.Tuple) bool {
			if tp.Field(0).Str() == "d0" {
				first = tp
			}
			return true
		})
		if first == nil || first.Field(1).Int() != 100*(gen-1) {
			t.Fatalf("generation %d recovered d0 as %v, want id %d", gen, first, 100*(gen-1))
		}
		tx := txn.NewManager(lock.NewManager(), m).Begin()
		if err := tx.Update(dept2, first, 1, storage.IntValue(100*gen)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := m.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
}

// TestRestartDropsTornTail: an image append a crash cut off is truncated
// when the segment is opened — whether half the frame reached the disk or
// all its length did with garbled bytes. Its partition recovers from the
// image before it, and the next append lands where the torn frame began.
func TestRestartDropsTornTail(t *testing.T) {
	crashes := map[string]func(data []byte, torn int64) []byte{
		"half written": func(data []byte, torn int64) []byte {
			return data[:torn+(int64(len(data))-torn)/2]
		},
		"garbled": func(data []byte, torn int64) []byte {
			data[len(data)-1] ^= 0xff
			return data
		},
	}
	for name, crash := range crashes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, recovery.SegmentFile)
			log, err := recovery.NewManager(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, dept := schemas(t, storage.NewIDGen())
			tm := txn.NewManager(lock.NewManager(), log)
			for _, rows := range []int{2, 1} { // two images of one partition
				load(t, tm, dept, rows, rows)
				if err := log.PropagateOnce(); err != nil {
					t.Fatal(err)
				}
			}
			want := snapshot(dept)
			if len(dept.Partitions()) != 1 {
				t.Fatalf("%d partitions, want 1", len(dept.Partitions()))
			}
			k := recovery.PartKey{Rel: "dept", Part: dept.Partitions()[0].ID()}
			torn := fileSize(t, seg)
			load(t, tm, dept, 1, 1)
			if err := log.PropagateOnce(); err != nil {
				t.Fatal(err)
			}
			log.Close()
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, crash(data, torn), 0o644); err != nil {
				t.Fatal(err)
			}

			reopened, err := recovery.NewManager(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := fileSize(t, seg); got != torn {
				t.Fatalf("segment %d bytes after reopen, want the torn frame cut at %d", got, torn)
			}
			emp2, dept2 := schemas(t, storage.NewIDGen())
			restart(t, reopened, emp2, dept2)
			if got := snapshot(dept2); !sameSnapshot(got, want) {
				t.Fatalf("recovered %v, want the second image %v", got, want)
			}
			load(t, txn.NewManager(lock.NewManager(), reopened), dept2, 1, 1)
			if err := reopened.PropagateOnce(); err != nil {
				t.Fatal(err)
			}
			if off, _, _, _ := reopened.FrameOf(k); off != torn {
				t.Fatalf("next image appended at %d, want %d", off, torn)
			}
			want = snapshot(dept2)
			reopened.Close()

			again, err := recovery.NewManager(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			emp3, dept3 := schemas(t, storage.NewIDGen())
			restart(t, again, emp3, dept3)
			if got := snapshot(dept3); !sameSnapshot(got, want) {
				t.Fatalf("recovered %v after the append, want %v", got, want)
			}
		})
	}
}

// TestInsertCommitLogsInOneBlock: a durable commit of a thousand inserts
// builds its log records in one block, not two heap objects a row; and a
// commit of 200 rows of eight Ints, which fills no partition, allocates
// little more than that block — the records hold the staged rows by
// reference, so no value image is allocated.
func TestInsertCommitLogsInOneBlock(t *testing.T) {
	log, err := recovery.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	dept := wideDept(t)
	tm := txn.NewManager(lock.NewManager(), log)
	const rows = 1000
	names := make([]storage.Value, 2*rows)
	for i := range names {
		names[i] = storage.StringValue(fmt.Sprintf("d%d", i))
	}
	commit := func(lo int) uint64 {
		tx := tm.Begin()
		for i := lo; i < lo+rows; i++ {
			if err := tx.Insert(dept, []storage.Value{names[i], storage.IntValue(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		objects, _ := quiesced(func() { _, err = tx.Commit() })
		if err != nil {
			t.Fatal(err)
		}
		return objects
	}
	commit(0) // sizes the manager's image buffers
	if n := commit(rows); n > 100 {
		t.Fatalf("a %d-row durable insert commit allocated %d objects, want at most 100", rows, n)
	}

	const ints = 200
	fact := intRelation(t, "fact")
	loadInts(t, tm, fact, 0, 20, 20, nil) // the partition and the manager's lists exist
	tx := tm.Begin()
	row := make([]storage.Value, 8)
	for r := 0; r < ints; r++ {
		for c := range row {
			row[c] = storage.IntValue(int64(r*8 + c))
		}
		if err := tx.Insert(fact, row); err != nil {
			t.Fatal(err)
		}
	}
	_, got := quiesced(func() { _, err = tx.Commit() })
	if err != nil {
		t.Fatal(err)
	}
	if parts := len(fact.Partitions()); parts != 1 {
		t.Fatalf("%d partitions: the commit should fill none", parts)
	}
	// The allocator hands the block out rounded up to its size class.
	block := ints * uint64(reflect.TypeOf(recovery.Record{}).Size())
	_, held := quiesced(func() { recordSink = make([]recovery.Record, ints) })
	recordSink = nil
	t.Logf("a %d-row commit allocated %d bytes; its record block is %d, %d as allocated", ints, got, block, held)
	if got > held+block/5 {
		t.Fatalf("a %d-row durable commit of eight Ints allocated %d bytes, want at most its %d-byte record block (%d as allocated) plus 20%%", ints, got, block, held)
	}
}

// recordSink keeps a measured record block on the heap.
var recordSink []recovery.Record

// quiesced returns the objects and bytes fn allocates, counted as
// testing.AllocsPerRun counts them: with GOMAXPROCS at 1 while fn runs,
// so that no goroutine allocates in parallel with fn into the
// process-wide counts. A goroutine fn waits on still runs, and counts.
func quiesced(fn func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestReopenReadsLongRelationNames: a relation name longer than the
// window a frame header is first read through is read on its own.
func TestReopenReadsLongRelationNames(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, small := schemas(t, storage.NewIDGen())
	name := strings.Repeat("department", 20)
	newRel := func() *storage.Relation {
		rel, err := storage.NewRelation(name, small.Schema(), storage.Config{SlotsPerPartition: 4}, storage.NewIDGen())
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	rel := newRel()
	load(t, txn.NewManager(lock.NewManager(), log), rel, 10, 10)
	if err := log.Checkpoint(rel); err != nil {
		t.Fatal(err)
	}
	want := snapshot(rel)
	log.Close()

	reopened, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	keys, err := reopened.DiskPartitions()
	if err != nil || len(keys) != 3 || keys[0].Rel != name {
		t.Fatalf("reopened directory %v, err %v", keys, err)
	}
	rel2 := newRel()
	restart(t, reopened, rel2)
	if got := snapshot(rel2); !sameSnapshot(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestOpenRejectsBadFrameHeader: a frame header that is not one, ahead of
// the final frame, is corruption rather than a torn append; opening the
// segment fails instead of dropping every frame after it.
func TestOpenRejectsBadFrameHeader(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, dept := schemas(t, storage.NewIDGen())
	load(t, txn.NewManager(lock.NewManager(), log), dept, 10, 10)
	if err := log.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	keys, err := log.DiskPartitions()
	if err != nil || len(keys) != 3 {
		t.Fatalf("keys=%v err=%v", keys, err)
	}
	var off int64
	for _, k := range keys {
		if o, _, _, _ := log.FrameOf(k); o > 0 {
			off = o
		}
	}
	log.Close()
	seg := filepath.Join(dir, recovery.SegmentFile)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff // the magic of a frame after the first
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := recovery.NewManager(dir); err == nil {
		m.Close()
		t.Fatal("segment with a bad frame header opened")
	}
	if got := fileSize(t, seg); got != int64(len(data)) {
		t.Fatalf("opening the corrupt segment cut it to %d bytes of %d", got, len(data))
	}
}
