package obs

import (
	"strings"
	"testing"
)

// TestTableExposition wires a table-statistics source and checks the byte
// estimate flows into Snapshot, the human block, and the Prometheus
// exposition; without a source none of it appears.
func TestTableExposition(t *testing.T) {
	r := NewRegistry()
	if s := r.Snapshot(); s.Tables != nil || strings.Contains(s.String(), "table ") {
		t.Fatalf("tables shown without a source: %+v", s.Tables)
	}
	var none strings.Builder
	r.WritePrometheus(&none)
	if strings.Contains(none.String(), "mmdb_table_") {
		t.Fatal("table series emitted without a source")
	}

	r.SetTableSource(func() []TableStat {
		return []TableStat{{Name: "fact", Rows: 1000, Bytes: 256000}, {Name: "empty"}}
	})
	s := r.Snapshot()
	if len(s.Tables) != 2 || s.Tables[0].BytesPerRow() != 256 || s.Tables[1].BytesPerRow() != 0 {
		t.Fatalf("tables = %+v", s.Tables)
	}
	if !strings.Contains(s.String(), "table fact        rows=1000 bytes=256000 (256 B/row)") {
		t.Fatalf("String() missing the table line:\n%s", s.String())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		"# TYPE mmdb_table_bytes gauge",
		`mmdb_table_bytes{table="fact"} 256000`,
		`mmdb_table_bytes{table="empty"} 0`,
		"# TYPE mmdb_table_bytes_per_row gauge",
		`mmdb_table_bytes_per_row{table="fact"} 256`,
		`mmdb_table_bytes_per_row{table="empty"} 0`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
