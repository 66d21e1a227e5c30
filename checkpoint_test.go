package mmdb

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/recovery"
)

func openAcct(t *testing.T, opts Options) (*Database, *Table) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Small partitions, so a checkpoint writes many images while the
	// device folds records into the same ones.
	tbl, err := db.CreateTable("acct", []Field{
		{Name: "id", Type: TypeInt},
		{Name: "bal", Type: TypeInt},
	}, "id", TTree)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestCheckpointBesideLogDeviceAndWriter: checkpoints run beside a 1 ms
// log device and a committing writer, all three appending partition
// images to the one disk-copy segment, without an error. So many
// rewrites compact the segment again and again; afterwards the directory
// holds the segment alone, no compaction copy, and the disk copy recovers
// to exactly what the writer committed.
func TestCheckpointBesideLogDeviceAndWriter(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, DeviceInterval: time.Millisecond, SlotsPerPartition: 8}
	db, acct := openAcct(t, opts)

	shadow := make(map[int64]int64)
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		live := make(map[int64]*Tuple)
		var err error
		for next := int64(0); err == nil; next++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			tx := db.Begin()
			if err = tx.Insert(acct, Int(next), Int(next)); err != nil {
				break
			}
			// Beside the insert: update one earlier row, delete another.
			upd, del := int64(-1), int64(-1)
			if next > 4 {
				upd = rng.Int63n(next)
				if tp := live[upd]; tp != nil {
					err = tx.Update(acct, tp, "bal", Int(-next))
				} else {
					upd = -1
				}
				if del = rng.Int63n(next); err == nil && del != upd && live[del] != nil {
					err = tx.Delete(acct, live[del])
				} else {
					del = -1
				}
			}
			if err != nil {
				break
			}
			var ins []*Tuple
			if ins, err = tx.Commit(); err != nil {
				break
			}
			live[next], shadow[next] = ins[0], next
			if upd >= 0 {
				shadow[upd] = -next
			}
			if del >= 0 {
				delete(live, del)
				delete(shadow, del)
			}
		}
		writerDone <- err
	}()

	checkpoints := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); checkpoints++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", checkpoints, err)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if checkpoints == 0 || len(shadow) == 0 {
		t.Fatalf("nothing exercised: %d checkpoints, %d rows", checkpoints, len(shadow))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch {
		case strings.Contains(e.Name(), ".tmp"):
			t.Errorf("temp file left behind: %s", e.Name())
		case e.Name() != recovery.SegmentFile:
			t.Errorf("file beside the disk-copy segment: %s", e.Name())
		}
	}

	db2, acct2 := openAcct(t, Options{Dir: dir, SlotsPerPartition: 8})
	if err := db2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query("acct").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(shadow) || acct2.Cardinality() != len(shadow) {
		t.Fatalf("recovered %d rows (cardinality %d), the writer committed %d", res.Len(), acct2.Cardinality(), len(shadow))
	}
	for i := 0; i < res.Len(); i++ {
		id, bal := res.Row(i)[0].Int(), res.Row(i)[1].Int()
		if want, ok := shadow[id]; !ok || want != bal {
			t.Errorf("recovered id=%d bal=%d, shadow has %d (present=%v)", id, bal, want, ok)
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}
