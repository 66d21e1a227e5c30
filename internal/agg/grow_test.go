package agg

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// scratchBytes is what g's scratch holds once a run is over: every slice
// at its capacity.
func (g *Grouper) scratchBytes() uint64 {
	size := func(s any) uint64 {
		v := reflect.ValueOf(s)
		return uint64(v.Cap()) * uint64(v.Type().Elem().Size())
	}
	b := size(g.ent) + size(g.slots) + size(g.hashes) + size(g.reps) + size(g.cells) +
		size(g.repkeys) + size(g.hbuf) + size(g.ords) + size(g.rowbuf) +
		size(g.cols) + size(g.specCol) + size(g.specDup) + size(g.vbufs)
	for _, vb := range g.vbufs {
		b += size(vb)
	}
	return b
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdGrouperAllocatesItsScratchOnce: a grouper fresh from New grows
// its per-group scratch by doubling, so a run allocates a small multiple
// of the scratch it ends with, and MergePartition, which counts the
// partial groups its partition can meet before it starts, reserves them
// once. 125k rows over 125k key values give ≈79k groups. (Grown by
// append one group at a time, the run and the merge each allocated ≈4.5×
// their final scratch.)
func TestColdGrouperAllocatesItsScratchOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregates a 125k-row list")
	}
	const rows = 125000
	rel, err := storage.NewRelation("r", storage.MustSchema(
		storage.FieldDef{Name: "g", Type: storage.Int}, storage.FieldDef{Name: "v", Type: storage.Int},
	), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	list := storage.MustTempListHint(storage.Descriptor{Sources: []string{"r"}, Cols: []storage.ColRef{
		{Source: 0, Field: 0, Name: "g"}, {Source: 0, Field: 1, Name: "v"},
	}}, rows)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < rows; i++ {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(int64(rng.Intn(rows))), storage.IntValue(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		list.AppendOne(tp)
	}
	keys := []int{0}
	specs := []Spec{{Kind: Count, Col: -1, Name: "COUNT(*)"}, {Kind: Sum, Col: 1, Name: "SUM(v)"}}

	run := new(Grouper)
	var part Result
	runBytes := allocated(func() { part = run.RunRange(list, 0, rows, keys, specs, nil) })
	merge := new(Grouper)
	var merged Result
	mergeBytes := allocated(func() { merged = merge.MergePartition([]Result{part}, 0, 1, len(keys), specs, nil) })
	if merged.Groups() != part.Groups() || part.Groups() < rows/2 {
		t.Fatalf("RunRange found %d groups and MergePartition %d", part.Groups(), merged.Groups())
	}
	for _, c := range []struct {
		name    string
		g       *Grouper
		alloc   uint64
		ceiling float64
	}{{"RunRange", run, runBytes, 2.5}, {"MergePartition", merge, mergeBytes, 1.25}} {
		final := c.g.scratchBytes()
		ratio := float64(c.alloc) / float64(final)
		t.Logf("cold %s over %d groups: %d KiB allocated for %d KiB of scratch (%.2f×)", c.name, part.Groups(), c.alloc>>10, final>>10, ratio)
		if ratio > c.ceiling {
			t.Errorf("cold %s allocates %.2f× its final scratch, ceiling %.2f×", c.name, ratio, c.ceiling)
		}
	}
}
