package mmdb

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/index"
)

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestBytesPerStoredRow is the in-repo guard of the benchmark's
// space_factor: what one stored row costs in live heap, T Tree primary key
// included, and how close the counters-only estimate of Stats().Tables
// comes to it (the estimate leaves out the index, ≈10 B a row, and the
// unused tail of the last slab chunk).
func TestBytesPerStoredRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads heap objects")
	}
	if testing.Short() {
		t.Skip("loads two 100k-row tables")
	}
	const rows = 100000
	load := func(t *testing.T, fields []Field, row func(i int) []Value) (perRow float64) {
		before := liveHeap()
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("fact", fields, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < rows; lo += 1000 {
			tx := db.Begin()
			for i := lo; i < lo+1000; i++ {
				if err := tx.Insert(tbl, row(i)...); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		grown := liveHeap() - before
		st, err := tbl.Stats()
		if err != nil || st.Rows != rows {
			t.Fatalf("stats: %d rows, %v", st.Rows, err)
		}
		runtime.KeepAlive(db)
		perRow, estimate := float64(grown)/rows, st.BytesPerRow()
		t.Logf("%.1f B/row of live heap, Stats estimates %.1f, the primary T Tree is %.1f of the rest",
			perRow, estimate, float64(index.ModernModel.Bytes(tbl.Indexes()[0].Stats()))/rows)
		if estimate < 0.9*perRow || estimate > 1.1*perRow {
			t.Errorf("Stats estimates %.1f B/row, live heap grew %.1f B/row: more than 10 %% apart", estimate, perRow)
		}
		return perRow
	}

	t.Run("ints", func(t *testing.T) {
		fields := make([]Field, 8)
		for c := range fields {
			fields[c] = Field{Name: fmt.Sprintf("c%d", c), Type: TypeInt}
		}
		fields[0].Name = "id"
		perRow := load(t, fields, func(i int) []Value {
			vals := make([]Value, 8)
			for c := range vals {
				vals[c] = Int(int64(i*8 + c))
			}
			vals[0] = Int(int64(i))
			return vals
		})
		// 40 header + 8 cells and a mask word (72) + 8 slot + T Tree entry
		// and slab slack.
		if perRow > 150 {
			t.Errorf("a row of 8 Int columns costs %.1f B of live heap, ceiling 150", perRow)
		}
	})
	t.Run("strings", func(t *testing.T) {
		fields := []Field{{Name: "id", Type: TypeInt}, {Name: "s", Type: TypeString}}
		perRow := load(t, fields, func(i int) []Value {
			b := []byte(fmt.Sprintf("%064d", i)) // a transient buffer; the row keeps the one string made of it
			return []Value{Int(int64(i)), Str(string(b))}
		})
		// 40 + 2×24 + 8 + the 64 payload bytes once; a second copy of the
		// payload anywhere (value, slab, index key) would add 64 more.
		if perRow > 195 {
			t.Errorf("a row with one 64-byte string costs %.1f B of live heap, ceiling 195: is the payload held twice?", perRow)
		}
	})
}

// TestTableBytesExported: the byte estimate reaches every surface —
// Stats().Tables with metrics on or off, and the Prometheus endpoint.
func TestTableBytesExported(t *testing.T) {
	for _, opts := range []Options{{}, {DisableMetrics: true}} {
		db := openKeyed(t, opts, 1000, 10)
		tables := db.Stats().Tables
		// 40-byte header + 3 Int cells and their NULL mask word + an
		// 8-byte slot, and the open slab chunk's 8 unused rows.
		if len(tables) != 1 || tables[0].Name != "a" || tables[0].BytesPerRow() < 80 || tables[0].BytesPerRow() > 88 {
			t.Fatalf("DisableMetrics=%v: Stats().Tables = %+v", opts.DisableMetrics, tables)
		}
		rec := httptest.NewRecorder()
		db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		want := fmt.Sprintf("mmdb_table_bytes{table=\"a\"} %d\n", tables[0].Bytes)
		if got := strings.Contains(rec.Body.String(), want); got == opts.DisableMetrics {
			t.Errorf("DisableMetrics=%v: endpoint has %q = %v", opts.DisableMetrics, want, got)
		}
	}
}

// scannableHeap returns the bytes of heap the collector scanned in a
// fresh collection: live objects, less pointer-free ones and the
// pointer-free tails of the rest.
func scannableHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestScalarRowsAreNotScanned is the scan budget of a stored row. A table
// whose columns are all Int keeps its field arrays as cells, memory the
// collector never scans, so what it scans of a row is the tuple header,
// the slot pointer and the row's share of the index — not its fields. A
// table with a Str column is scanned in full.
func TestScalarRowsAreNotScanned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads heap objects")
	}
	if testing.Short() {
		t.Skip("loads two 100k-row tables")
	}
	const rows = 100000
	load := func(t *testing.T, last FieldType) float64 {
		fields := make([]Field, 8)
		for c := range fields {
			fields[c] = Field{Name: fmt.Sprintf("c%d", c), Type: TypeInt}
		}
		fields[0].Name = "id"
		fields[7].Type = last
		before := scannableHeap()
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("fact", fields, "id", TTree)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]Value, 8)
		for lo := 0; lo < rows; lo += 1000 {
			tx := db.Begin()
			for i := lo; i < lo+1000; i++ {
				for c := range vals {
					vals[c] = Int(int64(i*8 + c))
				}
				vals[0] = Int(int64(i))
				if last == TypeString {
					vals[7] = Str("s") // a constant: no payload of its own
				}
				if err := tx.Insert(tbl, vals...); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		perRow := (float64(scannableHeap()) - float64(before)) / rows
		runtime.KeepAlive(db)
		return perRow
	}
	ints, strs := load(t, TypeInt), load(t, TypeString)
	t.Logf("scannable heap a row: %.1f B with 8 Int columns, %.1f B with 7 Int and a Str", ints, strs)
	if ints > 70 {
		t.Errorf("a row of 8 Int columns leaves %.1f B for the collector to scan, ceiling 70 (header, slot pointer, index share)", ints)
	}
	if strs < 192 {
		t.Errorf("a row with a Str column leaves %.1f B for the collector to scan, want its 192-byte field array scanned", strs)
	}
}
