package storage

import (
	"fmt"
	"testing"
)

func TestStatsEmptyRelation(t *testing.T) {
	r := newTestRelation(t, Config{})
	st := r.Stats()
	if st.Rows != 0 || st.SampledRows != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	if len(st.NDV) != 2 {
		t.Fatalf("NDV arity = %d, want 2", len(st.NDV))
	}
}

func TestStatsExactOnSmallRelation(t *testing.T) {
	r := newTestRelation(t, Config{})
	for i := 0; i < 100; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(i % 7)), StringValue(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Rows != 100 || st.SampledRows != 100 {
		t.Fatalf("stats = %+v, want full sample of 100 rows", st)
	}
	if st.NDV[0] != 7 {
		t.Errorf("NDV[id] = %v, want exact 7", st.NDV[0])
	}
	if st.NDV[1] != 100 {
		t.Errorf("NDV[name] = %v, want exact 100", st.NDV[1])
	}
}

func TestStatsSampledScaleUp(t *testing.T) {
	r := newTestRelation(t, Config{})
	n := 8192
	for i := 0; i < n; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(i % 10)), StringValue(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.SampledRows >= n {
		t.Fatalf("sampled %d rows, expected a strided subset of %d", st.SampledRows, n)
	}
	// Low-cardinality column: every sample sees all 10 values, jackknife
	// must not inflate them.
	if st.NDV[0] < 8 || st.NDV[0] > 20 {
		t.Errorf("NDV[id] = %v, want ≈10", st.NDV[0])
	}
	// Unique column: the scale-up must land near the row count.
	if st.NDV[1] < float64(n)/2 || st.NDV[1] > float64(n) {
		t.Errorf("NDV[name] = %v, want ≈%d", st.NDV[1], n)
	}
}

func TestStatsLazyRefresh(t *testing.T) {
	r := newTestRelation(t, Config{})
	for i := 0; i < 1000; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(i)), StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Rows != 1000 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	// A handful of inserts stays under the staleness threshold: the
	// snapshot must be reused untouched.
	for i := 0; i < 10; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(1000 + i)), StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if st2 := r.Stats(); st2.Rows != 1000 {
		t.Fatalf("stats refreshed after %d writes (Rows = %d), want cached 1000", 10, st2.Rows)
	}
	// Crossing the threshold (10% of rows, min 256) must refresh.
	for i := 0; i < 300; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(2000 + i)), StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if st3 := r.Stats(); st3.Rows != 1310 {
		t.Fatalf("stats stale after threshold (Rows = %d), want 1310", st3.Rows)
	}
}

func TestStatsRefreshOnDelete(t *testing.T) {
	r := newTestRelation(t, Config{})
	var tuples []*Tuple
	for i := 0; i < 600; i++ {
		tu, err := r.Insert([]Value{IntValue(int64(i)), StringValue("x")})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tu)
	}
	if st := r.Stats(); st.Rows != 600 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	for _, tu := range tuples[:300] {
		if err := r.Delete(tu); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Rows != 300 {
		t.Fatalf("Rows = %d after deletes, want refreshed 300", st.Rows)
	}
}

func TestStatsSkipsNulls(t *testing.T) {
	r := newTestRelation(t, Config{})
	for i := 0; i < 10; i++ {
		if _, err := r.Insert([]Value{IntValue(int64(i)), NullValue}); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.NDV[1] != 0 {
		t.Fatalf("NDV over all-null column = %v, want 0", st.NDV[1])
	}
}

// Bytes is arithmetic over counters: live tuples and the open slab chunk's
// unused rows × (header + fields), the partitions' slot arrays and free
// lists, string payloads once, and the published snapshot's clone headers
// and pointers.
func TestBytesFromCounters(t *testing.T) {
	r := newTestRelation(t, Config{SlotsPerPartition: 64})
	const rows, strLen = 200, 10
	var tuples []*Tuple
	for i := 0; i < rows; i++ {
		tu, err := r.Insert([]Value{IntValue(int64(i)), StringValue(fmt.Sprintf("%0*d", strLen, i))})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tu)
	}
	rowBytes := tupleHeaderBytes + 2*valueBytes
	parts := int64(len(r.Partitions()))
	tail := int64(cap(r.slab.tslab) - len(r.slab.tslab)) // 16+32+64+128 rows of chunks hold 200
	want := rows*(rowBytes+strLen) + tail*rowBytes + parts*64*8
	if tail != 40 {
		t.Fatalf("the open slab chunk has %d unused rows, want 40", tail)
	}
	if got := r.storedBytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	if st := r.Stats(); st.Bytes != want {
		t.Fatalf("Stats().Bytes = %d, want %d", st.Bytes, want)
	}

	r.PublishSnapshot()
	want += rows * (tupleHeaderBytes + 8)
	if got := r.storedBytes(); got != want {
		t.Fatalf("Bytes with a published snapshot = %d, want %d", got, want)
	}

	// A delete gives back the row and its payload; its slot number goes
	// on the partition's free list, 4 bytes a slot of capacity.
	if err := r.Delete(tuples[0]); err != nil {
		t.Fatal(err)
	}
	want += -(rowBytes + strLen) + 4*int64(cap(r.parts[0].free))
	if got := r.storedBytes(); got != want {
		t.Fatalf("Bytes after a delete = %d, want %d", got, want)
	}
}
