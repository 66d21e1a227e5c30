package recovery_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
)

// intRelation is a relation of eight Int columns in default partitions.
func intRelation(t *testing.T, name string) *storage.Relation {
	t.Helper()
	fields := make([]storage.FieldDef, 8)
	for c := range fields {
		fields[c] = storage.FieldDef{Name: fmt.Sprintf("c%d", c), Type: storage.Int}
	}
	rel, err := storage.NewRelation(name, storage.MustSchema(fields...), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// loadInts commits rows rows of eight Ints into rel, batch rows a
// transaction, starting at row lo, calling after (if set) after each
// commit.
func loadInts(t *testing.T, tm *txn.Manager, rel *storage.Relation, lo, rows, batch int, after func()) {
	t.Helper()
	row := make([]storage.Value, 8)
	for b := lo; b < lo+rows; b += batch {
		tx := tm.Begin()
		for r := b; r < b+batch; r++ {
			for c := range row {
				row[c] = storage.IntValue(int64(r*8 + c))
			}
			if err := tx.Insert(rel, row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
}

// TestDeviceFoldsFullPartitionsPromptly: beside a log device whose
// interval is an hour, so its ticker never fires, a 20k-row load leaves
// under one partition's worth plus the last transaction pending within a
// second of its last commit: the commits' wake made the device fold each
// partition as it filled. Stop folds what the device had not yet and
// leaves nothing queued; commits after it fold the partitions they fill
// themselves. Draining and closing leaves nothing pending, and the disk
// copy recovers exactly.
func TestDeviceFoldsFullPartitionsPromptly(t *testing.T) {
	dir := t.TempDir()
	log, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel := intRelation(t, "fact")
	tm := txn.NewManager(lock.NewManager(), log)
	const rows, batch = 20_000, 1000
	dev := log.StartDevice(time.Hour)
	loadInts(t, tm, rel, 0, rows, batch, nil)
	bound := storage.DefaultSlotsPerPartition + batch
	deadline := time.Now().Add(time.Second)
	for n := log.PendingRecords(); n >= bound; n = log.PendingRecords() {
		if time.Now().After(deadline) {
			t.Fatalf("%d records pending a second after the load, want under %d", n, bound)
		}
		time.Sleep(time.Millisecond)
	}
	// Stop while the device is held up folding one commit's partitions
	// and a second commit's wait in the queue, its wake pending: the
	// device may see the stop before the wake, and Stop must still leave
	// nothing queued.
	release := log.HoldImages()
	loadInts(t, tm, rel, rows, 2*batch, batch, nil)
	stopped := make(chan error, 1)
	go func() { stopped <- dev.Stop() }()
	release()
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if n, pending := log.Filled(), log.PendingRecords(); n != 0 || pending >= storage.DefaultSlotsPerPartition {
		t.Fatalf("after Stop, %d full partitions queued and %d records pending: want none and under a partition's worth", n, pending)
	}
	loadInts(t, tm, rel, rows+2*batch, 3*batch, batch, func() {
		if n := log.PendingRecords(); n >= storage.DefaultSlotsPerPartition {
			t.Fatalf("%d records pending after a commit with the device stopped: it should fold its full partitions itself", n)
		}
	})
	if err := log.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if n := log.PendingRecords(); n != 0 {
		t.Fatalf("%d records pending after the drain and Close", n)
	}

	reopened, err := recovery.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rel2 := intRelation(t, "fact")
	restart(t, reopened, rel2)
	if got, want := snapshot(rel2), snapshot(rel); !sameSnapshot(got, want) {
		t.Fatalf("recovered %d rows, want the %d committed", len(got), len(want))
	}
}
