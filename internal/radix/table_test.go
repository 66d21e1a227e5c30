package radix

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

func TestTableInsertProbe(t *testing.T) {
	var tbl Table
	tbl.Reset(100)
	if len(tbl.slots) != 256 {
		t.Fatalf("Reset(100) sized %d slots, want 256 (pow2 ≥ 2·100)", len(tbl.slots))
	}
	tuples := make([]*storage.Tuple, 100)
	for i := range tuples {
		tuples[i] = &storage.Tuple{}
		tbl.Insert(uint64(i)*0x9e3779b97f4a7c15, tuples[i])
	}
	if tbl.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tbl.Len())
	}
	all := func(*storage.Tuple) bool { return true }
	var out storage.TupleBatch
	for i := range tuples {
		out = tbl.ProbeAppend(uint64(i)*0x9e3779b97f4a7c15, all, out[:0])
		if len(out) != 1 || out[0] != tuples[i] {
			t.Fatalf("probe %d returned %d matches", i, len(out))
		}
	}
	// Missing hash: no matches.
	if out = tbl.ProbeAppend(0xffff_ffff_ffff_fffe, all, out[:0]); len(out) != 0 {
		t.Fatalf("probe of absent hash returned %d matches", len(out))
	}
}

// Duplicate hashes (same key several times) must all come back, in
// insertion order along the probe run.
func TestTableDuplicates(t *testing.T) {
	var tbl Table
	tbl.Reset(10)
	const h = 0x1234
	dups := []*storage.Tuple{{}, {}, {}}
	for _, tp := range dups {
		tbl.Insert(h, tp)
	}
	tbl.Insert(h+1, &storage.Tuple{}) // neighbor in the same probe run
	all := func(*storage.Tuple) bool { return true }
	out := tbl.ProbeAppend(h, all, nil)
	if len(out) != 3 {
		t.Fatalf("probe returned %d matches, want 3", len(out))
	}
	for i, tp := range dups {
		if out[i] != tp {
			t.Fatalf("match %d out of insertion order", i)
		}
	}
}

// A degenerate Reset hint smaller than the real cardinality must not
// overflow or loop: the table grows and stays correct.
func TestTableGrowsPastUndersizedHint(t *testing.T) {
	var tbl Table
	tbl.Reset(2) // 8 slots for what will be 1000 entries
	tuples := make([]*storage.Tuple, 1000)
	rng := rand.New(rand.NewSource(7))
	hashes := make([]uint64, len(tuples))
	for i := range tuples {
		tuples[i] = &storage.Tuple{}
		hashes[i] = rng.Uint64()
		tbl.Insert(hashes[i], tuples[i])
	}
	if tbl.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tbl.Len())
	}
	if 2*tbl.Len() > len(tbl.slots) {
		t.Fatalf("load factor above 1/2 after growth: %d entries in %d slots", tbl.Len(), len(tbl.slots))
	}
	all := func(*storage.Tuple) bool { return true }
	var out storage.TupleBatch
	for i := range tuples {
		out = tbl.ProbeAppend(hashes[i], all, out[:0])
		found := false
		for _, m := range out {
			if m == tuples[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("tuple %d lost after growth", i)
		}
	}
}

func TestTableZeroRows(t *testing.T) {
	var tbl Table
	tbl.Reset(0)
	out := tbl.ProbeAppend(42, func(*storage.Tuple) bool { return true }, nil)
	if len(out) != 0 {
		t.Fatalf("empty table probe returned %d matches", len(out))
	}
}

// Hash-mismatched slots must be rejected without consulting match.
func TestTableHashFirstFilter(t *testing.T) {
	var tbl Table
	tbl.Reset(4)
	// Two entries that collide on the slot mask but differ in full hash.
	mask := uint64(len(tbl.slots) - 1)
	h1 := uint64(5)
	h2 := h1 + (mask + 1) // same low bits, different hash
	tbl.Insert(h1, &storage.Tuple{})
	tbl.Insert(h2, &storage.Tuple{})
	calls := 0
	out := tbl.ProbeAppend(h1, func(*storage.Tuple) bool { calls++; return true }, nil)
	if len(out) != 1 {
		t.Fatalf("probe returned %d matches, want 1", len(out))
	}
	if calls != 1 {
		t.Fatalf("match consulted %d times, want 1 (hash filter must reject the collision)", calls)
	}
}

// The probe loop must be zero-alloc with a warm table and a roomy
// caller buffer — the join's steady state.
func TestTableProbeZeroAlloc(t *testing.T) {
	tbl := GetTable()
	tbl.Reset(1024)
	hashes := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(8))
	for i := range hashes {
		hashes[i] = rng.Uint64()
		tbl.Insert(hashes[i], &storage.Tuple{})
	}
	all := func(*storage.Tuple) bool { return true }
	out := storage.GetBatch()
	allocs := testing.AllocsPerRun(10, func() {
		for _, h := range hashes {
			out = tbl.ProbeAppend(h, all, out[:0])
		}
	})
	storage.PutBatch(out)
	PutTable(tbl)
	if allocs != 0 {
		t.Fatalf("warm probe loop allocated %.1f times per run, want 0", allocs)
	}
}

// Pooled tables must not pin tuples: Put clears every slot and every
// duplicate entry.
func TestPutTableClears(t *testing.T) {
	tbl := GetTable()
	tbl.Reset(8)
	tbl.Insert(1, &storage.Tuple{})
	tbl.Insert(1, &storage.Tuple{}) // a duplicate, held in the side array
	if len(tbl.dups) != 1 {
		t.Fatalf("duplicate not chained: %d side entries", len(tbl.dups))
	}
	PutTable(tbl)
	for _, e := range tbl.slots[:cap(tbl.slots)] {
		if e.P != nil {
			t.Fatal("PutTable left a live tuple pointer in the pool")
		}
	}
	for _, d := range tbl.dups[:cap(tbl.dups)] {
		if d.p != nil {
			t.Fatal("PutTable left a live duplicate pointer in the pool")
		}
	}
}

// hashInts hashes keys the way the join does: storage.Hash of the value.
func hashInts(keys []int64) []uint64 {
	hs := make([]uint64, len(keys))
	for i, k := range keys {
		hs[i] = storage.Hash(storage.IntValue(k))
	}
	return hs
}

// buildFresh builds a new table sized for hashes, one tuple per hash.
func buildFresh(hashes []uint64) *Table {
	tbl := new(Table)
	tbl.Reset(len(hashes))
	for _, h := range hashes {
		tbl.Insert(h, &storage.Tuple{})
	}
	return tbl
}

// A key repeated n times costs O(1) an insert, not a walk past every
// earlier copy: the whole build is at most two steps an entry.
func TestTableAllEqualBuildIsLinear(t *testing.T) {
	const n = 20000
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = 0xdead_beef
	}
	tbl := buildFresh(hashes)
	if got := tbl.InsertSteps(); got > 2*n {
		t.Fatalf("all-equal build of %d entries took %d insert steps, want ≤ %d", n, got, 2*n)
	}
	out := tbl.ProbeAppend(0xdead_beef, func(*storage.Tuple) bool { return true }, nil)
	if len(out) != n {
		t.Fatalf("probe returned %d of %d copies", len(out), n)
	}
	tbl.Reset(n)
	if tbl.InsertSteps() != 0 {
		t.Fatal("Reset kept the step count")
	}
}

// A Zipf build (s = 1.2, most rows repeat a handful of hot keys) takes at
// most twice the insert steps a row of a uniform build of the same size.
func TestTableZipfStepsBoundedByUniform(t *testing.T) {
	const n = 1 << 15
	z, err := workload.BuildZipf(workload.ZipfSpec{Cardinality: n, S: 1.2}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = rng.Int63()
	}
	zs := float64(buildFresh(hashInts(z.Values)).InsertSteps()) / n
	us := float64(buildFresh(hashInts(uniform)).InsertSteps()) / n
	t.Logf("insert steps a row: zipf %.3f, uniform %.3f (ratio %.2f)", zs, us, zs/us)
	if zs > 2*us {
		t.Fatalf("zipf build took %.2f steps a row, more than 2× uniform's %.2f", zs, us)
	}
}

// Every key's copies come back in insertion order, also after an
// undersized Reset hint made the table grow (and move the chains) many
// times mid-build.
func TestTableDuplicateOrderSurvivesGrowth(t *testing.T) {
	var tbl Table
	tbl.Reset(2)
	const keys, copies = 300, 7
	want := make(map[uint64][]*storage.Tuple, keys)
	hashes := hashInts(func() []int64 {
		ks := make([]int64, keys)
		for i := range ks {
			ks[i] = int64(i)
		}
		return ks
	}())
	for c := 0; c < copies; c++ { // interleaved: every key's copies are far apart
		for _, h := range hashes {
			tp := &storage.Tuple{}
			want[h] = append(want[h], tp)
			tbl.Insert(h, tp)
		}
	}
	if tbl.Len() != keys*copies || 2*keys > len(tbl.slots) {
		t.Fatalf("Len %d in %d slots after growth", tbl.Len(), len(tbl.slots))
	}
	all := func(*storage.Tuple) bool { return true }
	var out storage.TupleBatch
	for _, h := range hashes {
		out = tbl.ProbeAppend(h, all, out[:0])
		if len(out) != copies {
			t.Fatalf("hash %x: %d copies, want %d", h, len(out), copies)
		}
		for i, tp := range want[h] {
			if out[i] != tp {
				t.Fatalf("hash %x: copy %d out of insertion order", h, i)
			}
		}
	}
}

// Two keys with one 64-bit hash share a slot's chain; the probe hands
// every entry of it to match and returns only the ones match accepts.
func TestTableSameHashDifferentKeys(t *testing.T) {
	var tbl Table
	tbl.Reset(16)
	const h = 0x5eed
	isA := map[*storage.Tuple]bool{}
	var as []*storage.Tuple
	for i := 0; i < 6; i++ {
		tp := &storage.Tuple{}
		if i%2 == 0 {
			isA[tp] = true
			as = append(as, tp)
		}
		tbl.Insert(h, tp)
	}
	calls := 0
	out := tbl.ProbeAppend(h, func(tp *storage.Tuple) bool { calls++; return isA[tp] }, nil)
	if calls != 6 {
		t.Fatalf("match consulted %d times, want 6 (every entry with the hash)", calls)
	}
	if len(out) != len(as) {
		t.Fatalf("probe returned %d entries, want the %d of key A", len(out), len(as))
	}
	for i, tp := range as {
		if out[i] != tp {
			t.Fatalf("entry %d is not key A's copy %d", i, i)
		}
	}
}

// A warm pooled table rebuilt over duplicate-heavy input reuses its slot,
// chain and side arrays: no allocation per build.
func TestWarmDuplicateBuildZeroAlloc(t *testing.T) {
	z, err := workload.BuildZipf(workload.ZipfSpec{Cardinality: 4096, S: 1.2}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	hashes := hashInts(z.Values)
	tuples := make([]*storage.Tuple, len(hashes))
	for i := range tuples {
		tuples[i] = &storage.Tuple{}
	}
	tbl := GetTable()
	defer PutTable(tbl)
	build := func() {
		tbl.Reset(len(hashes))
		for i, h := range hashes {
			tbl.Insert(h, tuples[i])
		}
	}
	build()
	if len(tbl.dups) == 0 {
		t.Fatal("Zipf build chained no duplicates")
	}
	if allocs := testing.AllocsPerRun(10, build); allocs != 0 {
		t.Fatalf("warm duplicate build allocated %.1f times per run, want 0", allocs)
	}
}

// heldBytes is what a table's arrays hold for its current build.
func heldBytes(t *Table) int64 {
	return int64(len(t.slots))*16 + int64(len(t.chains))*8 + int64(cap(t.dups))*16
}

// TableBytes is what the budgeted join grants before a build: it must
// bound a cold table's arrays whatever the duplicate share, and a
// duplicate-free build holds only its slot array.
func TestTableBytesBoundsEveryBuild(t *testing.T) {
	for _, n := range []int{1, 5, 100, 1000, 1 << 14, 100000} {
		z, err := workload.BuildZipf(workload.ZipfSpec{Cardinality: n, S: 1.2}, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		distinct := make([]int64, n)
		equal := make([]int64, n)
		for i := range distinct {
			distinct[i] = int64(i)
		}
		for name, keys := range map[string][]int64{"distinct": distinct, "equal": equal, "zipf": z.Values} {
			tbl := buildFresh(hashInts(keys))
			if got := heldBytes(tbl); got > TableBytes(n) {
				t.Errorf("%s n=%d: table holds %d B, TableBytes grants %d", name, n, got, TableBytes(n))
			}
			if name == "distinct" && (heldBytes(tbl) != SlotBytes(n) || cap(tbl.chains) != 0) {
				t.Errorf("distinct n=%d: table holds %d B with %d chain headers, want only its %d B of slots", n, heldBytes(tbl), cap(tbl.chains), SlotBytes(n))
			}
		}
	}
}

func BenchmarkTableProbe(b *testing.B) {
	var tbl Table
	n := 1 << 16
	tbl.Reset(n)
	rng := rand.New(rand.NewSource(9))
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = rng.Uint64()
		tbl.Insert(hashes[i], &storage.Tuple{})
	}
	all := func(*storage.Tuple) bool { return true }
	out := make(storage.TupleBatch, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tbl.ProbeAppend(hashes[i&(n-1)], all, out[:0])
	}
}
