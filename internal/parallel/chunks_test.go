package parallel

import (
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
)

// chunksSink keeps a measured Chunks result on the heap.
var chunksSink []exec.Source

// scanAll gathers every tuple a source hands out, in order.
func scanAll(src exec.Source) []*storage.Tuple {
	var out []*storage.Tuple
	src.ScanBatches(nil, func(b storage.TupleBatch) bool {
		out = append(out, b...)
		return true
	})
	return out
}

// Every Chunked source splits into morsels that cover it exactly once, in
// order, and carves them from one array: Chunks costs the same few
// allocations however many morsels it returns (it boxed one a morsel).
func TestChunksCoverInOrderFromOneArray(t *testing.T) {
	rel := buildRelation(t, storage.NewIDGen(), "r", make([]int64, 3000))
	all := scanAll(RelationSource{Rel: rel})
	list := storage.MustTempListHint(storage.Descriptor{Sources: []string{"r"}, Cols: []storage.ColRef{{Source: 0, Field: 0, Name: "val"}}}, len(all))
	for _, tp := range all {
		list.AppendOne(tp)
	}
	sources := []struct {
		name   string
		src    Chunked
		allocs float64
	}{
		{"relation", RelationSource{Rel: rel}, 2},
		{"list", ListSource{List: list}, 2},
		{"slice", SliceSource(all), 2},
		{"snapshot", SnapshotSource{Snap: rel.PublishSnapshot()}, 3},
	}
	for _, s := range sources {
		want := scanAll(s.src)
		for _, n := range []int{1, 3, 16} {
			var got []*storage.Tuple
			chunks := s.src.Chunks(n)
			for _, c := range chunks {
				got = append(got, scanAll(c)...)
			}
			if len(chunks) != n || !slices.Equal(got, want) {
				t.Fatalf("%s: %d chunks of %d asked cover %d tuples, want %d in order", s.name, len(chunks), n, len(got), len(want))
			}
		}
		if n := testing.AllocsPerRun(10, func() { chunksSink = s.src.Chunks(16) }); n > s.allocs {
			t.Errorf("%s: Chunks(16) allocates %.0f objects, want at most %.0f", s.name, n, s.allocs)
		}
	}
}
