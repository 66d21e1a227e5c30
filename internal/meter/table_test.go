package meter_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/meter"
	"repro/internal/obs"
)

// TestCounterTableCoversStruct: row i of the counter table is the i-th
// field of Counters, so every field appears once and in declaration
// order; names and series are unique, and a field's series is its name
// in snake case.
func TestCounterTableCoversStruct(t *testing.T) {
	typ := reflect.TypeOf(meter.Counters{})
	if typ.NumField() != meter.NumFields {
		t.Fatalf("Counters has %d fields, the table %d rows", typ.NumField(), meter.NumFields)
	}
	var c meter.Counters
	names, proms := map[string]bool{}, map[string]bool{}
	for i := range meter.NumFields {
		p, f := c.At(i)
		sf := typ.Field(i)
		if reflect.ValueOf(p).Pointer() != reflect.ValueOf(&c).Elem().Field(i).Addr().Pointer() {
			t.Errorf("row %d (%s) is not field %s", i, f.Name, sf.Name)
		}
		if want := "mmdb_ops_" + snake(sf.Name) + "_total"; f.Prom != want {
			t.Errorf("row %d: Prometheus name %q, want %q", i, f.Prom, want)
		}
		if f.Name == "" || f.Help == "" {
			t.Errorf("row %d (%s): empty name or help", i, sf.Name)
		}
		if names[f.Name] || proms[f.Prom] {
			t.Errorf("row %d: name %q or series %q repeats", i, f.Name, f.Prom)
		}
		names[f.Name], proms[f.Prom] = true, true
	}
	defer func() {
		if recover() == nil {
			t.Error("At(NumFields) did not panic")
		}
	}()
	c.At(meter.NumFields)
}

// snake turns a Go field name into its Prometheus form: NodesVisited →
// nodes_visited.
func snake(s string) string {
	var b strings.Builder
	for i, r := range s {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// distinct sets counter i to base+i, so no two counters share a value.
func distinct(base int64) meter.Counters {
	var c meter.Counters
	v := reflect.ValueOf(&c).Elem()
	for i := range v.NumField() {
		v.Field(i).SetInt(base + int64(i))
	}
	return c
}

// TestCounterTableReaders: queries that set every counter to its own
// value show all of them in the registry's snapshot, in a snapshot
// delta, in the Prometheus exposition and in String.
func TestCounterTableReaders(t *testing.T) {
	r := obs.NewRegistry()
	r.RecordQuery("warm-up", 1, 1, time.Microsecond, distinct(1000))
	before := r.Snapshot()
	c := distinct(100)
	r.RecordQuery("probe", 1, 1, time.Microsecond, c)
	s := r.Snapshot()
	total := func(i int) int64 { return 1100 + 2*int64(i) }
	for i := range meter.NumFields {
		if got, f := s.Ops.At(i); *got != total(i) {
			t.Errorf("Snapshot().Ops %s = %d, want %d", f.Name, *got, total(i))
		}
	}
	if d := s.Sub(before); d.Ops != c {
		t.Errorf("Sub().Ops = %+v, want %+v", d.Ops, c)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	prom := b.String()
	if n := strings.Count(prom, "\nmmdb_ops_"); n != meter.NumFields {
		t.Errorf("exposition has %d mmdb_ops_* series, want %d", n, meter.NumFields)
	}
	str := strings.Fields(c.String())
	if len(str) != meter.NumFields {
		t.Errorf("String() = %q: %d counters, want %d", c.String(), len(str), meter.NumFields)
	}
	for i := range meter.NumFields {
		_, f := c.At(i)
		if line := fmt.Sprintf("\n%s %d\n", f.Prom, total(i)); !strings.Contains(prom, line) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(line))
		}
		if want := fmt.Sprintf("%s=%d", f.Name, 100+i); i < len(str) && str[i] != want {
			t.Errorf("String() counter %d = %q, want %q", i, str[i], want)
		}
	}
}
