package txn

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
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

func TestCommitReturnsInsertedTuplesInOrder(t *testing.T) {
	rel := newRel(t)
	tm := NewManager(lock.NewManager(), nil) // durability off
	tx := tm.Begin()
	for i := int64(0); i < 5; i++ {
		if err := tx.Insert(rel, []storage.Value{storage.IntValue(i), storage.StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	tuples, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 5 {
		t.Fatalf("len=%d", len(tuples))
	}
	for i, tp := range tuples {
		if tp.Field(0).Int() != int64(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestFinishedTxnRejectsEverything(t *testing.T) {
	rel := newRel(t)
	tm := NewManager(nil, nil)
	tx := tm.Begin()
	tx.Insert(rel, []storage.Value{storage.IntValue(1), storage.NullValue})
	tuples, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != ErrDone {
		t.Fatalf("second commit: %v", err)
	}
	if err := tx.Insert(rel, nil); err != ErrDone {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := tx.Update(rel, tuples[0], 0, storage.IntValue(2)); err != ErrDone {
		t.Fatalf("update after commit: %v", err)
	}
	if err := tx.Delete(rel, tuples[0]); err != ErrDone {
		t.Fatalf("delete after commit: %v", err)
	}
	if _, err := tx.Read(tuples[0]); err != ErrDone {
		t.Fatalf("read after commit: %v", err)
	}
	if err := tx.LockRelationShared(rel); err != ErrDone {
		t.Fatalf("lock after commit: %v", err)
	}
	tx.Abort() // no-op, must not panic
}

func TestAbortIsIdempotentAndDiscards(t *testing.T) {
	rel := newRel(t)
	tm := NewManager(nil, nil)
	tx := tm.Begin()
	tx.Insert(rel, []storage.Value{storage.IntValue(1), storage.NullValue})
	tx.Abort()
	tx.Abort()
	if rel.Cardinality() != 0 {
		t.Fatal("aborted insert applied")
	}
	if _, err := tx.Commit(); err != ErrDone {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestValidationErrorsDoNotBufferOps(t *testing.T) {
	rel := newRel(t)
	tm := NewManager(nil, nil)
	tx := tm.Begin()
	if err := tx.Insert(rel, []storage.Value{storage.StringValue("wrong")}); err == nil {
		t.Fatal("bad arity accepted")
	}
	if err := tx.Update(rel, nil, 99, storage.IntValue(1)); err == nil {
		t.Fatal("bad field accepted")
	}
	// Transaction is still alive (validation errors are not lock errors).
	if err := tx.Insert(rel, []storage.Value{storage.IntValue(1), storage.NullValue}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 1 {
		t.Fatalf("cardinality=%d", rel.Cardinality())
	}
}

func TestNoReadYourWrites(t *testing.T) {
	// Deferred updates: a transaction's own writes are invisible until
	// commit (§2.4's no-undo design).
	rel := newRel(t)
	tm := NewManager(nil, nil)
	seed := tm.Begin()
	seed.Insert(rel, []storage.Value{storage.IntValue(1), storage.StringValue("old")})
	tuples, _ := seed.Commit()
	tx := tm.Begin()
	if err := tx.Update(rel, tuples[0], 1, storage.StringValue("new")); err != nil {
		t.Fatal(err)
	}
	vals, err := tx.Read(tuples[0])
	if err != nil {
		t.Fatal(err)
	}
	if vals[1].Str() != "old" {
		t.Fatalf("deferred write visible before commit: %v", vals)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tuples[0].Field(1).Str() != "new" {
		t.Fatal("commit did not apply")
	}
}

func TestLockOrderingAcrossOps(t *testing.T) {
	rel := newRel(t)
	locks := lock.NewManager()
	tm := NewManager(locks, nil)
	tx := tm.Begin()
	tx.Insert(rel, []storage.Value{storage.IntValue(1), storage.NullValue})
	// The insert holds X on the relation until commit: a second txn's
	// shared relation lock must conflict.
	probe := tm.Begin()
	got := make(chan error, 1)
	go func() { got <- probe.LockRelationShared(rel) }()
	select {
	case err := <-got:
		t.Fatalf("shared lock granted against in-flight insert (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
		// Still blocked, as it must be.
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	probe.Abort()
}

// newPartitionedRel returns a relation of n rows spread over many small
// partitions, and its tuples.
func newPartitionedRel(t *testing.T, name string, n int) (*storage.Relation, []*storage.Tuple) {
	t.Helper()
	schema := storage.MustSchema(
		storage.FieldDef{Name: "k", Type: storage.Int},
		storage.FieldDef{Name: "s", Type: storage.Str},
	)
	rel, err := storage.NewRelation(name, schema, storage.Config{SlotsPerPartition: 4}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*storage.Tuple, n)
	for i := range tuples {
		if tuples[i], err = rel.Insert([]storage.Value{storage.IntValue(int64(i)), storage.StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	return rel, tuples
}

// TestRelationSharedLockCoversPartitions: a selection's read lock is one
// lock whatever the partition count, and it still excludes a writer of
// any partition while leaving pointer reads alone.
func TestRelationSharedLockCoversPartitions(t *testing.T) {
	rel, tuples := newPartitionedRel(t, "r", 400)
	if n := len(rel.Partitions()); n < 100 {
		t.Fatalf("only %d partitions", n)
	}
	locks := lock.NewManager()
	tm := NewManager(locks, nil)
	reader := tm.Begin()
	before := locks.Stats().Grants
	if err := reader.LockRelationShared(rel); err != nil {
		t.Fatal(err)
	}
	if got := locks.Stats().Grants - before; got != 1 {
		t.Fatalf("LockRelationShared took %d locks on a %d-partition relation, want 1", got, len(rel.Partitions()))
	}
	if probe := tm.Begin(); !probe.TryLockRelationShared(rel) {
		t.Fatal("second reader refused")
	} else {
		probe.Abort()
	}
	// A pointer read needs only its partition.
	ptr := tm.Begin()
	if _, err := ptr.Read(tuples[7]); err != nil {
		t.Fatal(err)
	}
	ptr.Abort()
	// A writer of any partition waits for the reader.
	writer := tm.Begin()
	got := make(chan error, 1)
	go func() { got <- writer.Update(rel, tuples[399], 1, storage.StringValue("y")) }()
	for locks.Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	reader.Abort()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if s := locks.Stats(); s.Resources != 0 || s.Txns != 0 {
		t.Fatalf("locks left behind: %+v", s)
	}
}

// TestPointerReadRunsBesideInsert: an insert holds X(relation) only, so a
// pointer read of an existing tuple, which takes S(partition), is not
// blocked by it.
func TestPointerReadRunsBesideInsert(t *testing.T) {
	rel, tuples := newPartitionedRel(t, "r", 8)
	tm := NewManager(lock.NewManager(), nil)
	ins := tm.Begin()
	if err := ins.Insert(rel, []storage.Value{storage.IntValue(100), storage.NullValue}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		ptr := tm.Begin()
		_, err := ptr.Read(tuples[0])
		ptr.Abort()
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pointer read blocked behind an insert")
	}
	ins.Abort()
}

// TestExclusivePartitionImpliesExclusiveRelation hammers two relations
// with every kind of transaction and checks, after every lock the
// protocol grants, the invariant the covering relation lock rests on: a
// transaction holding X(partition) holds X(relation). With it,
// S(relation) alone excludes every writer.
func TestExclusivePartitionImpliesExclusiveRelation(t *testing.T) {
	locks := lock.NewManager()
	tm := NewManager(locks, nil)
	type target struct {
		rel    *storage.Relation
		tuples []*storage.Tuple
		parts  []*storage.Partition // of tuples; copied, because inserts add partitions
	}
	var targets [2]target
	for i, name := range []string{"a", "b"} {
		tg := &targets[i]
		tg.rel, tg.tuples = newPartitionedRel(t, name, 64)
		tg.parts = append(tg.parts, tg.rel.Partitions()...)
	}
	check := func(tx *Txn) {
		for _, tg := range targets {
			relMode, relHeld := locks.Holds(tx.lockID(), tg.rel)
			for _, p := range tg.parts {
				if mode, ok := locks.Holds(tx.lockID(), p); ok && mode == lock.Exclusive &&
					!(relHeld && relMode == lock.Exclusive) {
					t.Errorf("txn %d holds X(partition %d of %s) without X(relation)", tx.ID(), p.ID(), tg.rel.Name())
				}
			}
		}
	}
	const workers, rounds = 6, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				tx := tm.Begin()
				var err error
				for step := 0; step < 4 && err == nil; step++ {
					tg := targets[rng.Intn(len(targets))]
					// Workers update disjoint tuples; nobody deletes, so every
					// pointer stays live.
					tp := tg.tuples[(rng.Intn(len(tg.tuples)/workers))*workers+w]
					switch rng.Intn(5) {
					case 0:
						err = tx.Insert(tg.rel, []storage.Value{storage.IntValue(int64(1000 + r)), storage.NullValue})
					case 1:
						err = tx.Update(tg.rel, tp, 1, storage.StringValue("y"))
					case 2:
						_, err = tx.Read(tp)
					case 3:
						err = tx.LockRelationShared(tg.rel)
					case 4:
						// Read, then write the same tuple: S(partition) upgrades.
						if _, err = tx.Read(tp); err == nil {
							err = tx.Update(tg.rel, tp, 1, storage.StringValue("z"))
						}
					}
					if err == nil {
						check(tx)
					}
				}
				switch {
				case err == lock.ErrDeadlock:
					// failLock already aborted the victim.
				case err != nil:
					t.Errorf("worker %d: %v", w, err)
					tx.Abort()
				case r%3 == 0:
					tx.Abort()
				default:
					if _, err := tx.Commit(); err != nil {
						t.Errorf("worker %d: commit: %v", w, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s := locks.Stats(); s.Resources != 0 || s.Txns != 0 || s.Waiting != 0 {
		t.Fatalf("locks left behind: %+v", s)
	}
}

// TestUpdateAllocBytes pins the size of the one object an update
// allocates: the tuple's next version, a cell array of eight cells and a
// NULL mask word for the benchmark's eight-column fact row — 72 bytes, in
// the allocator's 80-byte size class.
func TestUpdateAllocBytes(t *testing.T) {
	fields := make([]storage.FieldDef, 8)
	vals := make([]storage.Value, len(fields))
	for i := range fields {
		fields[i] = storage.FieldDef{Name: string(rune('a' + i)), Type: storage.Int}
		vals[i] = storage.IntValue(int64(i))
	}
	rel, err := storage.NewRelation("fact", storage.MustSchema(fields...), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	tm := NewManager(lock.NewManager(), nil)
	setup := tm.Begin()
	if err := setup.Insert(rel, vals); err != nil {
		t.Fatal(err)
	}
	tuples, err := setup.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// Bytes of a transaction with n updates; the difference between four
	// and none is the updates' own. TotalAlloc also counts what any other
	// goroutine allocates meanwhile (the race runtime does, now and then),
	// which only ever adds: the least of three measurements is the
	// transaction's.
	txnBytes := func(n int) uint64 {
		const rounds = 200
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for r := 0; r < rounds; r++ {
				tx := tm.Begin()
				for i := 0; i < n; i++ {
					if err := tx.Update(rel, tuples[0], 1+i, storage.IntValue(int64(r))); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			least = min(least, (m1.TotalAlloc-m0.TotalAlloc)/rounds)
		}
		return least
	}
	if got := (txnBytes(4) - txnBytes(0)) / 4; got != 80 {
		t.Fatalf("one update of an 8-field tuple allocates %d bytes, want 80", got)
	}
}

// TestShortWriterAllocs pins what a four-update transaction on a relation
// nobody logs allocates: the transaction with room for its ops in one
// object, and one fresh field array per update (storage installs a new
// version instead of writing the installed one). Nothing for the op list,
// nothing for the locks, and nothing for readers that may never look.
func TestShortWriterAllocs(t *testing.T) {
	rel := newRel(t)
	tm := NewManager(lock.NewManager(), nil)
	setup := tm.Begin()
	for i := int64(0); i < 4; i++ {
		if err := setup.Insert(rel, []storage.Value{storage.IntValue(i), storage.StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	tuples, err := setup.Commit()
	if err != nil {
		t.Fatal(err)
	}
	rel.PublishSnapshot() // a published snapshot costs the writer nothing either
	round := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		round++
		tx := tm.Begin()
		for _, tp := range tuples {
			if err := tx.Update(rel, tp, 0, storage.IntValue(round)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + len(tuples)); allocs != want {
		t.Fatalf("Begin + 4×Update + Commit allocates %.0f times, want %.0f", allocs, want)
	}

	// A fifth op spills the inline array and still commits in order.
	tx := tm.Begin()
	for i := int64(10); i < 15; i++ {
		if err := tx.Insert(rel, []storage.Value{storage.IntValue(i), storage.NullValue}); err != nil {
			t.Fatal(err)
		}
	}
	ins, err := tx.Commit()
	if err != nil || len(ins) != 5 {
		t.Fatalf("five-op transaction committed %d tuples, %v", len(ins), err)
	}
	for i, tp := range ins {
		if got := tp.Field(0).Int(); got != int64(10+i) {
			t.Fatalf("spilled op %d inserted %d, want %d", i, got, 10+i)
		}
	}
}

// TestOpSize pins the buffered op at 48 bytes: a relation, a tuple (an
// insert's staged one, or an update's or delete's target), an update's
// value and field, and the kind. An insert's values live in the
// relation's slab, not in the op.
func TestOpSize(t *testing.T) {
	if got := reflect.TypeOf(op{}).Size(); got != 48 {
		t.Errorf("op is %d bytes, want 48", got)
	}
}
