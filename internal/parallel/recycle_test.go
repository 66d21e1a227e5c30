package parallel

import (
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
)

// TestPooledRecyclingUnderRace hammers the pooled batches and arena
// chunks from several concurrent queries — selects over a tuple slice and
// over relation partitions, and join pipelines over pooled stage tables — while each
// result is verified and released back to the pools. Run under -race this
// checks that recycled blocks are never handed to two owners at once and
// that cleared pool entries don't alias live results.
func TestPooledRecyclingUnderRace(t *testing.T) {
	n := 3*storage.BatchSize + 57
	ids := storage.NewIDGen()
	vals := buildValues(t, n, 50, 0.2, 42)
	rel := buildRelation(t, ids, "race_r", vals)
	inner := buildRelation(t, ids, "race_s", vals)
	tuples := exec.Tuples(RelationSource{Rel: rel})
	median := vals[len(vals)/2]
	pred := func(tp *storage.Tuple) bool { return tp.Field(0).Int() < median }

	selSpec := exec.SelectSpec{RelName: "race_r", Schema: rel.Schema()}
	wantSel := exec.SelectScan(RelationSource{Rel: rel}, pred, selSpec).Len()
	joinSpec := exec.JoinSpec{OuterName: "race_r", InnerName: "race_s",
		OuterField: 0, InnerField: 0, Discard: true}
	var wantJoin int
	ws := joinSpec
	ws.RowsOut = &wantJoin
	exec.HashJoin(SliceSource(tuples), RelationSource{Rel: inner}, ws)

	const goroutines = 4
	const rounds = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Slice select: morsels over ranges of a materialized slice.
				out := SelectScan(SliceSource(tuples), pred, selSpec, 4)
				if out.Len() != wantSel {
					t.Errorf("g%d r%d: slice select %d rows, want %d", g, r, out.Len(), wantSel)
					return
				}
				// Chunked select: morsels over relation partitions.
				out2 := SelectScan(RelationSource{Rel: rel}, pred, selSpec, 4)
				if out2.Len() != wantSel {
					t.Errorf("g%d r%d: chunked select %d rows, want %d", g, r, out2.Len(), wantSel)
					return
				}
				// Join pipeline: a pooled stage table probed by four workers.
				_, got := pipelineJoin(SliceSource(tuples), RelationSource{Rel: inner}, exec.PipelineSpec{Discard: true}, 4)
				if got != wantJoin {
					t.Errorf("g%d r%d: join %d rows, want %d", g, r, got, wantJoin)
					return
				}
				// Release recycles the arena chunks back to the shared pools
				// while other goroutines are drawing from them.
				out.Release()
				out2.Release()
			}
		}(g)
	}
	wg.Wait()
}
