package recovery_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
)

// harness builds the Employee/Department schema pair used throughout.
func schemas(t testing.TB, ids *storage.IDGen) (emp, dept *storage.Relation) {
	t.Helper()
	deptSchema := storage.MustSchema(
		storage.FieldDef{Name: "name", Type: storage.Str},
		storage.FieldDef{Name: "id", Type: storage.Int},
	)
	empSchema := storage.MustSchema(
		storage.FieldDef{Name: "name", Type: storage.Str},
		storage.FieldDef{Name: "age", Type: storage.Int},
		storage.FieldDef{Name: "dept", Type: storage.Ref, ForeignKey: "dept"},
	)
	var err error
	if dept, err = storage.NewRelation("dept", deptSchema, storage.Config{SlotsPerPartition: 4}, ids); err != nil {
		t.Fatal(err)
	}
	if emp, err = storage.NewRelation("emp", empSchema, storage.Config{SlotsPerPartition: 4}, ids); err != nil {
		t.Fatal(err)
	}
	return emp, dept
}

// snapshot collects relation contents as name -> row strings for
// comparison across a crash.
func snapshot(rel *storage.Relation) map[string]bool {
	out := map[string]bool{}
	rel.ScanPhysical(func(tp *storage.Tuple) bool {
		row := fmt.Sprintf("%d", tp.ID())
		for i := 0; i < tp.Arity(); i++ {
			v := tp.Field(i)
			if !v.IsNull() && v.Type() == storage.Ref {
				row += fmt.Sprintf("|ref:%d", v.Ref().ID())
			} else {
				row += "|" + v.String()
			}
		}
		out[row] = true
		return true
	})
	return out
}

func sameSnapshot(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestCrashRecoveryFullCycle(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := storage.NewIDGen()
	emp, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)

	// Transaction 1: departments.
	t1 := tm.Begin()
	for _, d := range []struct {
		name string
		id   int64
	}{{"Toy", 459}, {"Shoe", 409}, {"Linen", 411}} {
		if err := t1.Insert(dept, []storage.Value{storage.StringValue(d.name), storage.IntValue(d.id)}); err != nil {
			t.Fatal(err)
		}
	}
	depts, err := t1.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// Transaction 2: employees with FK pointers.
	t2 := tm.Begin()
	for i, e := range []struct {
		name string
		age  int64
		dep  int
	}{{"Dave", 24, 0}, {"Suzan", 27, 0}, {"Yaman", 54, 2}, {"Jane", 47, 1}} {
		_ = i
		if err := t2.Insert(emp, []storage.Value{
			storage.StringValue(e.name), storage.IntValue(e.age), storage.RefValue(depts[e.dep]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	emps, err := t2.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint now; later updates stay only in the accumulation log.
	if err := log.Checkpoint(emp, dept); err != nil {
		t.Fatal(err)
	}

	// Transaction 3: post-checkpoint changes — update, delete, insert.
	t3 := tm.Begin()
	if err := t3.Update(emp, emps[0], 1, storage.IntValue(66)); err != nil {
		t.Fatal(err)
	}
	if err := t3.Delete(emp, emps[3]); err != nil {
		t.Fatal(err)
	}
	if err := t3.Insert(emp, []storage.Value{
		storage.StringValue("Cindy"), storage.IntValue(22), storage.RefValue(depts[1]),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := t3.Commit(); err != nil {
		t.Fatal(err)
	}

	// Transaction 4 aborts: must leave no trace.
	t4 := tm.Begin()
	if err := t4.Insert(emp, []storage.Value{storage.StringValue("Ghost"), storage.IntValue(1), storage.NullValue}); err != nil {
		t.Fatal(err)
	}
	t4.Abort()

	// Transaction 5 is still running at crash time: its stable-buffer
	// records must not reach the recovered database.
	t5 := tm.Begin()
	if err := t5.Insert(emp, []storage.Value{storage.StringValue("Limbo"), storage.IntValue(2), storage.NullValue}); err != nil {
		t.Fatal(err)
	}

	wantEmp, wantDept := snapshot(emp), snapshot(dept)

	// CRASH: memory is lost; the Manager (stable buffer + accumulation
	// log + disk copy) survives.
	ids2 := storage.NewIDGen()
	emp2, dept2 := schemas(t, ids2)
	r := log.NewRestart(emp2, dept2)

	// Phase 1: the working set — just the dept partitions.
	all, err := r.AllPartitions()
	if err != nil {
		t.Fatal(err)
	}
	var ws, rest []recovery.PartKey
	for _, k := range all {
		if k.Rel == "dept" {
			ws = append(ws, k)
		} else {
			rest = append(rest, k)
		}
	}
	if err := r.LoadWorkingSet(ws); err != nil {
		t.Fatal(err)
	}
	if dept2.Cardinality() != 3 {
		t.Fatalf("working set: dept cardinality %d", dept2.Cardinality())
	}
	if emp2.Cardinality() != 0 {
		t.Fatal("non-working-set partitions loaded early")
	}
	// Phase 2: background completes the load.
	if err := <-r.LoadRemainingAsync(); err != nil {
		t.Fatal(err)
	}

	if got := snapshot(emp2); !sameSnapshot(got, wantEmp) {
		t.Fatalf("emp mismatch:\n got %v\nwant %v", got, wantEmp)
	}
	if got := snapshot(dept2); !sameSnapshot(got, wantDept) {
		t.Fatalf("dept mismatch:\n got %v\nwant %v", got, wantDept)
	}
	// FK pointers resolved into the new database instance.
	found := false
	emp2.ScanPhysical(func(tp *storage.Tuple) bool {
		if tp.Field(0).Str() == "Dave" {
			found = true
			if tp.Field(1).Int() != 66 {
				t.Error("post-checkpoint update lost")
			}
			d := tp.Field(2).Ref()
			if d.Field(0).Str() != "Toy" {
				t.Errorf("Dave's dept = %v", d)
			}
			if d.Partition().Relation() != dept2 {
				t.Error("ref points into the dead database")
			}
		}
		if tp.Field(0).Str() == "Jane" {
			t.Error("deleted tuple resurrected")
		}
		if tp.Field(0).Str() == "Ghost" || tp.Field(0).Str() == "Limbo" {
			t.Errorf("uncommitted tuple %q recovered", tp.Field(0).Str())
		}
		return true
	})
	if !found {
		t.Fatal("Dave not recovered")
	}
	// New inserts must not collide with recovered IDs.
	tp, err := emp2.Insert([]storage.Value{storage.StringValue("New"), storage.IntValue(1), storage.NullValue})
	if err != nil {
		t.Fatal(err)
	}
	if dup := snapshot(emp2); len(dup) != emp2.Cardinality() {
		t.Fatal("ID collision after recovery")
	}
	_ = tp
}

func TestRecoveryAfterPropagation(t *testing.T) {
	// After the log device propagates everything, recovery must work from
	// images alone (empty accumulation log).
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := storage.NewIDGen()
	emp, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)

	t1 := tm.Begin()
	t1.Insert(dept, []storage.Value{storage.StringValue("Toy"), storage.IntValue(459)})
	depts, err := t1.Commit()
	if err != nil {
		t.Fatal(err)
	}
	t2 := tm.Begin()
	for i := 0; i < 10; i++ {
		t2.Insert(emp, []storage.Value{
			storage.StringValue(fmt.Sprintf("e%d", i)), storage.IntValue(int64(20 + i)), storage.RefValue(depts[0]),
		})
	}
	if _, err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// No checkpoint: propagation alone must build the disk copy.
	if err := log.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	if n := log.PendingRecords(); n != 0 {
		t.Fatalf("%d records still pending after propagation", n)
	}
	want := snapshot(emp)

	ids2 := storage.NewIDGen()
	emp2, dept2 := schemas(t, ids2)
	r := log.NewRestart(emp2, dept2)
	if err := r.LoadRemaining(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(emp2); !sameSnapshot(got, want) {
		t.Fatalf("mismatch after image-only recovery:\n got %v\nwant %v", got, want)
	}
}

func TestBackgroundDevice(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := storage.NewIDGen()
	_, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)
	dev := log.StartDevice(0)
	for i := 0; i < 20; i++ {
		tx := tm.Begin()
		tx.Insert(dept, []storage.Value{storage.StringValue(fmt.Sprintf("d%d", i)), storage.IntValue(int64(i))})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Give the device a few ticks, then stop and drain.
	if err := dev.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := log.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	if n := log.PendingRecords(); n != 0 {
		t.Fatalf("%d pending after device + drain", n)
	}
	keys, err := log.DiskPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no disk images written")
	}
}

func TestDeadlockVictimAborts(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	ids := storage.NewIDGen()
	emp, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)

	seed := tm.Begin()
	seed.Insert(dept, []storage.Value{storage.StringValue("A"), storage.IntValue(1)})
	seed.Insert(emp, []storage.Value{storage.StringValue("E"), storage.IntValue(2), storage.NullValue})
	tuples, err := seed.Commit()
	if err != nil {
		t.Fatal(err)
	}
	d, e := tuples[0], tuples[1]

	tA := tm.Begin()
	tB := tm.Begin()
	if err := tA.Update(dept, d, 1, storage.IntValue(10)); err != nil {
		t.Fatal(err)
	}
	if err := tB.Update(emp, e, 1, storage.IntValue(20)); err != nil {
		t.Fatal(err)
	}
	released := make(chan error, 1)
	go func() { released <- tA.Update(emp, e, 1, storage.IntValue(30)) }()
	// One of the two transactions must be chosen as deadlock victim; which
	// one depends on who blocks first.
	errB := tB.Update(dept, d, 1, storage.IntValue(40))
	errA := <-released
	var victim, survivor *txn.Txn
	switch {
	case errA == lock.ErrDeadlock && errB == nil:
		victim, survivor = tA, tB
	case errB == lock.ErrDeadlock && errA == nil:
		victim, survivor = tB, tA
	default:
		t.Fatalf("errA=%v errB=%v — exactly one deadlock expected", errA, errB)
	}
	if _, err := survivor.Commit(); err != nil {
		t.Fatal(err)
	}
	// The victim was auto-aborted: reusing it fails.
	if err := victim.Update(dept, d, 1, storage.IntValue(50)); err != txn.ErrDone {
		t.Fatalf("err=%v, want ErrDone", err)
	}
	// The survivor's updates applied; the victim's did not.
	switch survivor {
	case tA:
		if d.Field(1).Int() != 10 || e.Field(1).Int() != 30 {
			t.Fatalf("final values %v %v", d.Field(1), e.Field(1))
		}
	default:
		if d.Field(1).Int() != 40 || e.Field(1).Int() != 20 {
			t.Fatalf("final values %v %v", d.Field(1), e.Field(1))
		}
	}
}

func TestDeferredUpdatesInvisibleUntilCommit(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	ids := storage.NewIDGen()
	_, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)

	tx := tm.Begin()
	if err := tx.Insert(dept, []storage.Value{storage.StringValue("X"), storage.IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if dept.Cardinality() != 0 {
		t.Fatal("deferred insert applied early")
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if dept.Cardinality() != 1 {
		t.Fatal("commit did not apply")
	}
}

func TestTxnValidation(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	ids := storage.NewIDGen()
	_, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)

	tx := tm.Begin()
	if err := tx.Insert(dept, []storage.Value{storage.IntValue(1), storage.IntValue(1)}); err == nil {
		t.Fatal("bad insert accepted")
	}
	seed := tm.Begin()
	seed.Insert(dept, []storage.Value{storage.StringValue("A"), storage.IntValue(1)})
	tuples, _ := seed.Commit()
	tx2 := tm.Begin()
	if err := tx2.Update(dept, tuples[0], 9, storage.IntValue(1)); err == nil {
		t.Fatal("bad field accepted")
	}
	if err := tx2.Update(dept, tuples[0], 1, storage.StringValue("s")); err == nil {
		t.Fatal("bad type accepted")
	}
	// Deleting a tuple then committing a second txn that updates it fails
	// at validation.
	del := tm.Begin()
	if err := del.Delete(dept, tuples[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	upd := tm.Begin()
	if err := upd.Update(dept, tuples[0], 1, storage.IntValue(2)); err != nil {
		t.Fatal(err) // lock succeeds; tuple death caught at commit
	}
	if _, err := upd.Commit(); err == nil {
		t.Fatal("commit on dead tuple accepted")
	}
}

func TestReadLocksAndValues(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	ids := storage.NewIDGen()
	_, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)
	seed := tm.Begin()
	seed.Insert(dept, []storage.Value{storage.StringValue("A"), storage.IntValue(7)})
	tuples, _ := seed.Commit()

	tx := tm.Begin()
	vals, err := tx.Read(tuples[0])
	if err != nil {
		t.Fatal(err)
	}
	if vals[1].Int() != 7 {
		t.Fatalf("read %v", vals)
	}
	if err := tx.LockRelationShared(dept); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartRejectsCorruptImage(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	ids := storage.NewIDGen()
	emp, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)
	tx := tm.Begin()
	for i := 0; i < 6; i++ { // two four-slot partitions: two frames
		tx.Insert(dept, []storage.Value{storage.StringValue(fmt.Sprintf("d%d", i)), storage.IntValue(int64(i))})
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := log.Checkpoint(emp, dept); err != nil {
		t.Fatal(err)
	}
	// Flip the last payload byte of the first frame, which is not the
	// segment's final frame: that is corruption, not a torn append, so
	// restart must error, not panic or load garbage.
	keys, err := log.DiskPartitions()
	if err != nil || len(keys) < 2 {
		t.Fatalf("keys=%v err=%v", keys, err)
	}
	var off, size int64 = -1, 0
	for _, k := range keys {
		if o, s, _, _ := log.FrameOf(k); off < 0 || o < off {
			off, size = o, s
		}
	}
	seg := filepath.Join(dir, recovery.SegmentFile)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if off+size >= int64(len(data)) {
		t.Fatalf("first frame [%d,+%d) is the final one of %d bytes", off, size, len(data))
	}
	data[off+size-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*recovery.Manager{log, reopened} {
		emp2, dept2 := schemas(t, storage.NewIDGen())
		r := m.NewRestart(emp2, dept2)
		if err := r.LoadRemaining(); err == nil {
			t.Fatal("corrupt image accepted")
		}
	}
}

func TestRestartUnknownRelationInImage(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	ids := storage.NewIDGen()
	emp, dept := schemas(t, ids)
	tx := txn.NewManager(lock.NewManager(), log).Begin()
	tx.Insert(dept, []storage.Value{storage.StringValue("A"), storage.IntValue(1)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := log.Checkpoint(emp, dept); err != nil {
		t.Fatal(err)
	}
	// Restart that forgot to declare dept: loading its image must fail
	// loudly rather than silently dropping the relation.
	ids2 := storage.NewIDGen()
	emp2, _ := schemas(t, ids2)
	r := log.NewRestart(emp2) // dept missing
	if err := r.LoadRemaining(); err == nil {
		t.Fatal("image for undeclared relation accepted")
	}
}

func TestDiskPartitionsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	for _, name := range []string{"README", "x.img.tmp", "noformat.img"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := log.DiskPartitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Rel == "" {
			t.Fatalf("junk parsed as partition: %+v", k)
		}
	}
}

func TestPropagateIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	log, _ := recovery.NewManager(dir)
	ids := storage.NewIDGen()
	emp, dept := schemas(t, ids)
	tm := txn.NewManager(lock.NewManager(), log)
	tx := tm.Begin()
	tx.Insert(dept, []storage.Value{storage.StringValue("A"), storage.IntValue(1)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := log.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
	}
	ids2 := storage.NewIDGen()
	emp2, dept2 := schemas(t, ids2)
	r := log.NewRestart(emp2, dept2)
	if err := r.LoadRemaining(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if dept2.Cardinality() != 1 {
		t.Fatalf("triple propagation duplicated rows: %d", dept2.Cardinality())
	}
	_ = emp
}

// TestFullPartitionsAreFoldedAtCommit: a bulk load, with no device to
// propagate it, leaves in the change-accumulation log only its last,
// partly filled partitions — a commit folds a partition into the disk
// copy once it has accumulated an image's worth of records — while
// scattered updates accumulate as before. Recovery from that disk copy
// plus the remainder is exact.
func TestFullPartitionsAreFoldedAtCommit(t *testing.T) {
	log, err := recovery.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Default-sized partitions: schemas() makes four-tuple ones, which
	// never accumulate an image's worth.
	newDept := func() *storage.Relation {
		_, small := schemas(t, storage.NewIDGen())
		dept, err := storage.NewRelation("dept", small.Schema(), storage.Config{}, storage.NewIDGen())
		if err != nil {
			t.Fatal(err)
		}
		return dept
	}
	dept := newDept()
	tm := txn.NewManager(lock.NewManager(), log)
	const perTxn, txns = 500, 12
	var loaded []*storage.Tuple
	for c := 0; c < txns; c++ {
		tx := tm.Begin()
		for i := 0; i < perTxn; i++ {
			n := c*perTxn + i
			if err := tx.Insert(dept, []storage.Value{storage.StringValue(fmt.Sprintf("d%d", n)), storage.IntValue(int64(n))}); err != nil {
				t.Fatal(err)
			}
		}
		ins, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, ins...)
		// What stays is less than an image's worth for each partition
		// the transaction ended in.
		if n, bound := log.PendingRecords(), perTxn+storage.DefaultSlotsPerPartition; n >= bound {
			t.Fatalf("after load commit %d: %d records pending, want under %d", c, n, bound)
		}
	}
	before := log.PendingRecords()
	const updates = 40
	for i := 0; i < updates; i++ {
		tx := tm.Begin()
		if err := tx.Update(dept, loaded[i*(len(loaded)/updates)], 1, storage.IntValue(int64(-i))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.PendingRecords() - before; got != updates {
		t.Fatalf("%d scattered updates left %d records pending: they should accumulate", updates, got)
	}
	want := snapshot(dept)

	dept2 := newDept()
	r := log.NewRestart(dept2)
	if err := r.LoadRemaining(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(dept2); !sameSnapshot(got, want) {
		t.Fatalf("recovered %d departments, want %d", len(got), len(want))
	}
}
