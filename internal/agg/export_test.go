package agg

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// TestPutClearsWhatTheRunWrote: Put clears the cells and cached keys up to
// the high-water mark of the runs since the last Put, not just the last
// run's length, so a 10-group run after a 100k-group one leaves nothing
// of the large run pinned; a keys-only run after that Put wrote no cells,
// so its Put clears none; and the next large run reuses the scratch
// without allocating.
func TestPutClearsWhatTheRunWrote(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregates a 100k-row list")
	}
	const rows = 100000
	rel, err := storage.NewRelation("r", storage.MustSchema(
		storage.FieldDef{Name: "k", Type: storage.Str}, storage.FieldDef{Name: "s", Type: storage.Str},
	), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	list := storage.MustTempListHint(storage.Descriptor{Sources: []string{"r"}, Cols: []storage.ColRef{
		{Source: 0, Field: 0, Name: "k"}, {Source: 0, Field: 1, Name: "s"},
	}}, rows)
	for i := 0; i < rows; i++ {
		tp, err := rel.Insert([]storage.Value{storage.StringValue(fmt.Sprintf("k%06d", i)), storage.StringValue(fmt.Sprintf("s%d", i%977))})
		if err != nil {
			t.Fatal(err)
		}
		list.AppendOne(tp)
	}
	specs := []Spec{{Kind: Min, Col: 1, Name: "MIN(s)"}}
	g := new(Grouper)
	big := func() {
		if got := g.Run(list, []int{0}, specs, nil, nil).Groups(); got != rows {
			t.Fatalf("large run: %d groups, want %d", got, rows)
		}
	}
	big()
	if got := g.RunRange(list, 0, 10, []int{0}, specs, nil).Groups(); got != 10 {
		t.Fatalf("small run: %d groups, want 10", got)
	}
	Put(g)
	pinned := func() int {
		n := 0
		for _, c := range g.cells[:cap(g.cells)] {
			if !reflect.ValueOf(c).IsZero() {
				n++
			}
		}
		for _, v := range g.repkeys[:cap(g.repkeys)] {
			if !reflect.ValueOf(v).IsZero() {
				n++
			}
		}
		return n
	}
	if n := pinned(); n > 0 {
		t.Fatalf("after Put, %d cells and keys up to cap still hold values", n)
	}
	g.Run(list, []int{0, 1}, nil, nil, nil) // DISTINCT's run: keys only
	g.reset()
	if g.cellsHW != 0 {
		t.Fatalf("a keys-only run leaves Put %d cells to clear, want 0", g.cellsHW)
	}
	Put(g)
	// Counted as testing.AllocsPerRun counts, at GOMAXPROCS 1, so that no
	// other goroutine allocates in parallel into the process-wide count.
	prev := runtime.GOMAXPROCS(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	big()
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(prev)
	if n := after.Mallocs - before.Mallocs; n > 0 {
		t.Errorf("the large run after Put allocated %d objects, want its scratch reused", n)
	}
}
