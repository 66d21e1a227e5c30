package mmdb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestExplainNamesExecutedScanPath: Explain decides the snapshot path with
// the executor's own planner, so below and above snapshotMinRows the scan
// line it prints is the one the executed plan carries — and finding that
// out takes no lock and publishes nothing.
func TestExplainNamesExecutedScanPath(t *testing.T) {
	sizes := []int{1000, 300000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, rows := range sizes {
		db, tab, _, _ := openSnapTable(t, Options{}, rows)
		queries := map[string]func() *Query{
			"full": func() *Query { return db.Query("m").Select("k").Parallel(2) },
			"filtered": func() *Query {
				return db.Query("m").Where("v", Eq, Int(0)).Where("k", Lt, Int(50)).Select("id").Parallel(2)
			},
			"grouped": func() *Query { return db.Query("m").GroupBy("k").Agg(AggCount, "").Parallel(2) },
			"limited": func() *Query { return db.Query("m").Select("k").Limit(10).Parallel(2) },
		}
		for name, build := range queries {
			grants, epoch, published := db.locks.Stats().Grants, tab.rel.SnapshotEpoch(), tab.rel.Snapshot()
			planned, err := build().Explain()
			if err != nil {
				t.Fatal(err)
			}
			if g, e, p := db.locks.Stats().Grants, tab.rel.SnapshotEpoch(), tab.rel.Snapshot(); g != grants || e != epoch || p != published {
				t.Fatalf("%s @ %d rows: Explain took %d locks, moved the epoch %d -> %d or the snapshot %p -> %p",
					name, rows, g-grants, epoch, e, published, p)
			}
			res, tr, err := build().Analyze()
			if err != nil {
				t.Fatal(err)
			}
			want, got := accessLine(t, res.Plan()), estimateNote.ReplaceAllString(accessLine(t, planned), "")
			if got != want {
				t.Errorf("%s @ %d rows: Explain says %q, the executor ran %q", name, rows, got, want)
			}
			snapshot := rows >= snapshotMinRows && name != "limited"
			if strings.Contains(got, "snapshot scan") != snapshot || strings.Contains(tr.Format(), "snapshot scan") != snapshot {
				t.Errorf("%s @ %d rows: snapshot path = %v, want %v:\n%s\n%s", name, rows, !snapshot, snapshot, planned, tr.Format())
			}
		}
		db.Close()
	}
}

// TestSnapshotReadYourCommits: a commit that returned before Run started is
// in the image a snapshot query reads, however stale the published snapshot
// was and whatever a second writer is doing to it meanwhile.
func TestSnapshotReadYourCommits(t *testing.T) {
	const rows = 12000
	db, tab, tuples, _ := openSnapTable(t, Options{}, rows)
	scanAll(t, db)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the second writer owns the upper half and writes negatives
		defer wg.Done()
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tab.Update(tuples[rows/2+r%(rows/2)], "v", Int(int64(-1-r))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	iterations := 1000
	if testing.Short() {
		iterations = 100
	}
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= iterations; i++ {
		mine := tuples[rng.Intn(rows/2)]
		if err := tab.Update(mine, "v", Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query("m").Where("v", Eq, Int(int64(i))).Select("id").Parallel(2).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan(), "snapshot scan") {
			t.Fatalf("iteration %d left the snapshot path:\n%s", i, res.Plan())
		}
		if res.Len() != 1 || res.Row(0)[0].Int() != mine.Field(0).Int() {
			t.Fatalf("iteration %d: the query does not see the commit before it: %d rows", i, res.Len())
		}
	}
	close(stop)
	wg.Wait()
}

// TestHeldResultSurvivesUpdates: the rows of a snapshot query's Result are
// clone headers over value arrays nobody writes again, so a Result held
// through 10,000 later updates and the refreshes between them reads as it
// did the moment Run returned.
func TestHeldResultSurvivesUpdates(t *testing.T) {
	const rows = 12000
	db, tab, tuples, _ := openSnapTable(t, Options{}, rows)
	held, err := db.Query("m").Select("id", "k", "v").Parallel(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(held.Plan(), "snapshot scan") {
		t.Fatalf("not a snapshot result:\n%s", held.Plan())
	}
	render := func() string {
		var b strings.Builder
		for i := 0; i < held.Len(); i++ {
			fmt.Fprintln(&b, held.Row(i))
		}
		return b.String()
	}
	want := render()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		if err := tab.Update(tuples[rng.Intn(rows)], "v", Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			scanAll(t, db)
		}
	}
	if got := render(); got != want {
		t.Fatal("a held snapshot Result changed under later updates")
	}
	heldGroupSurvives(t, db, tab, tuples, true)
}

// TestUpdateThroughLargeScan: a full scan of a large table outside a
// transaction reads the published snapshot, whose rows are immutable
// images, so updating one fails. The same scan run inside the updating
// transaction (Query.In) S-locks the table and returns live tuples, and
// the update commits.
func TestUpdateThroughLargeScan(t *testing.T) {
	db, tab, _, _ := openSnapTable(t, Options{}, 12000)
	snap, err := db.Query("m").Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snap.Plan(), "snapshot scan") {
		t.Fatalf("a 12,000-row scan outside a transaction is not a snapshot scan:\n%s", snap.Plan())
	}
	img := snap.Tuples(0)[0]
	want := fmt.Sprintf("tuple %d is dead", img.ID())
	if err := tab.Update(img, "v", Int(1)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("updating a snapshot image: %v, want %q", err, want)
	}

	tx := db.Begin()
	live, err := db.Query("m").In(tx).Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(live.Plan(), "snapshot scan") {
		t.Fatalf("a scan inside a transaction read the snapshot:\n%s", live.Plan())
	}
	id := live.Row(0)[0]
	if err := tx.Update(tab, live.Tuples(0)[0], "v", Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query("m").Where("id", Eq, id).Select("v").Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("row %v after the committed update: %d rows", id, got.Len())
	}
	if v := got.Row(0)[0]; !Equal(v, Int(1)) {
		t.Fatalf("row %v after the committed update: v = %v, want 1", id, v)
	}
}

// TestHeldGroupedResultSurvivesUpdatesLocked is the locked-path twin of
// TestHeldResultSurvivesUpdates' grouped half: there a group's
// representative is the live tuple itself, which the updates rewrite and
// the deletes remove, and the held Result still reads as it did.
func TestHeldGroupedResultSurvivesUpdatesLocked(t *testing.T) {
	db, tab, tuples, _ := openSnapTable(t, Options{}, 12000)
	tuned(db, tuning{noSnapshots: true})
	heldGroupSurvives(t, db, tab, tuples, false)
}

// heldGroupSurvives runs a GROUP BY and holds its Result; then it sets the
// group key and the aggregated field of every group's representative
// tuple, deletes every third, and requires the Result to render byte for
// byte as before. A group's keys and aggregates are values the Result
// owns, not reads through its representative row.
func heldGroupSurvives(t *testing.T, db *Database, tab *Table, tuples []*Tuple, snapshot bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if err := tab.Update(tuples[rng.Intn(len(tuples))], "v", Int(int64(rng.Intn(1000)))); err != nil {
			t.Fatal(err)
		}
	}
	held, err := db.Query("m").GroupBy("k").Agg(AggCount, "*").Agg(AggSum, "v").Agg(AggMax, "id").Parallel(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(held.Plan(), "snapshot scan") != snapshot {
		t.Fatalf("snapshot path = %v, want %v:\n%s", !snapshot, snapshot, held.Plan())
	}
	render := func() string {
		var b strings.Builder
		for i := 0; i < held.Len(); i++ {
			fmt.Fprintln(&b, held.Row(i))
		}
		return b.String()
	}
	want := render()
	for i := 0; i < held.Len(); i++ {
		rep := held.Tuples(i)[0]
		if !Equal(rep.Field(1), held.Row(i)[0]) {
			t.Fatalf("group %d: representative tuple has k=%v, the group's key is %v", i, rep.Field(1), held.Row(i)[0])
		}
	}
	for i := 0; i < held.Len(); i++ {
		// On the snapshot path the representative is the row's image; its
		// id names the live tuple.
		live := tuples[held.Tuples(i)[0].Field(0).Int()]
		if err := tab.Update(live, "k", Int(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
		if err := tab.Update(live, "v", Int(-1)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := tab.Delete(live); err != nil {
				t.Fatal(err)
			}
		}
	}
	scanAll(t, db)
	if got := render(); got != want {
		t.Fatalf("a held grouped Result changed under updates and deletes of its representatives:\n got %s\nwant %s", got, want)
	}
}

// TestCommitAllocsIgnoreSnapshots: publication is the reader's to pay, so a
// commit on a relation with a published — and by then stale — snapshot
// allocates exactly what it does on one nobody ever snapshot-scanned.
func TestCommitAllocsIgnoreSnapshots(t *testing.T) {
	const rows = 100000
	measure := func(snapshotted bool) float64 {
		db, tab, tuples, _ := openSnapTable(t, Options{}, rows)
		defer db.Close()
		if snapshotted {
			scanAll(t, db)
			if tab.rel.Snapshot() == nil {
				t.Fatal("the scan published no snapshot")
			}
		}
		r := 0
		return testing.AllocsPerRun(200, func() {
			r++
			if err := tab.Update(tuples[r*7919%rows], "v", Int(int64(r))); err != nil {
				t.Fatal(err)
			}
		})
	}
	never, snapshotted := measure(false), measure(true)
	if never != snapshotted {
		t.Fatalf("a commit allocates %.0f times on a snapshotted relation, %.0f on one never snapshotted", snapshotted, never)
	}
}

// TestRefreshAllocsFollowChanges: a refresh after k single-row updates in k
// partitions allocates the snapshot, its partition directory, and per
// changed partition one pointer array and one block of clone headers —
// nothing that grows with the table.
func TestRefreshAllocsFollowChanges(t *testing.T) {
	const rows = 100000
	db, tab, tuples, _ := openSnapTable(t, Options{}, rows)
	scanAll(t, db)
	parts := len(tab.rel.Partitions())
	for _, k := range []int{1, 16, 128} {
		for i := 0; i < k; i++ {
			if err := tab.Update(tuples[i*rows/k], "v", Int(int64(k))); err != nil {
				t.Fatal(err)
			}
		}
		var built storage.RefreshStats
		allocs, bytes := quiesced(func() { _, built = tab.rel.PublishSnapshotStats() })
		if built.Patched != k || built.Cloned != 0 || built.Tuples != k {
			t.Fatalf("k=%d: refresh did %+v", k, built)
		}
		// Directory: a slice header per partition. Per change: a pointer
		// per slot of its partition (2,304 B in its size class) and the
		// 64-byte clone header.
		ceiling := uint64(1024 + 24*parts + k*2560)
		t.Logf("k=%d: %d allocations, %d B (ceiling %d B; a full clone is %d B)", k, allocs, bytes, ceiling, 72*rows)
		if allocs > uint64(2+2*k) || bytes > ceiling {
			t.Errorf("refresh after %d single-row updates: %d allocations, %d B; want at most %d and %d B", k, allocs, bytes, 2+2*k, ceiling)
		}
	}
	// However many tuples of one partition changed, their new headers are
	// one block: the count does not follow the tuples, only the partitions.
	for i := 0; i < 100; i++ {
		if err := tab.Update(tuples[i], "v", Int(-1)); err != nil {
			t.Fatal(err)
		}
	}
	var built storage.RefreshStats
	if allocs, _ := quiesced(func() { _, built = tab.rel.PublishSnapshotStats() }); built.Patched != 1 || built.Tuples != 100 || allocs > 4 {
		t.Errorf("refresh after 100 updates in one partition: %+v, %d allocations; want 1 patched, 100 tuples, at most 4", built, allocs)
	}
}
