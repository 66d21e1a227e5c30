package exec_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// The batch benchmarks compare the shipped batch-at-a-time operators with
// in-test reconstructions of the original tuple-at-a-time loops: per-tuple
// callbacks emitting into the original []storage.Row temp-list layout,
// where every emitted row retained its Row header on the heap and the
// backing slice regrow-copied as it filled. Run with -benchmem: the
// contract is fewer allocs/op and no lower throughput.

func benchRelation(b *testing.B, name string, n int) []*storage.Tuple {
	b.Helper()
	sch := storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})
	rel, err := storage.NewRelation(name, sch, storage.Config{}, storage.NewIDGen())
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*storage.Tuple, n)
	for i := 0; i < n; i++ {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(int64(i % (n / 2)))})
		if err != nil {
			b.Fatal(err)
		}
		out[i] = tp
	}
	return out
}

type sliceSrc []*storage.Tuple

func (s sliceSrc) Len() int { return len(s) }

// ScanBatches gathers the slice into buf block by block, as a
// node-structured index does.
func (s sliceSrc) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	if cap(buf) == 0 {
		buf = make(storage.TupleBatch, 0, storage.BatchSize)
	}
	for len(s) > 0 {
		n := copy(buf[:cap(buf)], s)
		if !fn(buf[:n]) {
			return
		}
		s = s[n:]
	}
}

// Scan is the per-tuple callback loop the tuple-at-a-time baselines
// reconstruct.
func (s sliceSrc) Scan(fn func(*storage.Tuple) bool) {
	for _, t := range s {
		if !fn(t) {
			return
		}
	}
}

const benchN = 65536

func BenchmarkSelectScanTupleAtATime(b *testing.B) {
	src := sliceSrc(benchRelation(b, "r", benchN))
	pred := func(t *storage.Tuple) bool { return t.Field(0).Int()%2 == 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows []storage.Row
		src.Scan(func(t *storage.Tuple) bool {
			if pred(t) {
				rows = append(rows, storage.Row{t})
			}
			return true
		})
		sinkRows = rows
	}
}

// sinkRows keeps tuple-at-a-time results live so the compiler cannot
// elide the retained Row allocations the old layout paid for.
var sinkRows []storage.Row

func BenchmarkSelectScanBatched(b *testing.B) {
	src := sliceSrc(benchRelation(b, "r", benchN))
	spec := exec.SelectSpec{RelName: "r",
		Schema: storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})}
	pred := func(t *storage.Tuple) bool { return t.Field(0).Int()%2 == 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.SelectScan(src, pred, spec).Release()
	}
}

func BenchmarkHashJoinTupleAtATime(b *testing.B) {
	to := sliceSrc(benchRelation(b, "r1", benchN))
	ti := sliceSrc(benchRelation(b, "r2", benchN))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := tupleindex.NewChainHash(tupleindex.Options{Field: 0, Capacity: len(ti)})
		for _, t := range ti {
			tbl.Insert(t)
		}
		var rows []storage.Row
		for _, o := range to {
			ko := tupleindex.KeyOf(o, 0)
			for _, t := range tbl.SearchKeyAppend(storage.Hash(ko), func(t *storage.Tuple) bool {
				return storage.Equal(tupleindex.KeyOf(t, 0), ko)
			}, nil) {
				rows = append(rows, storage.Row{o, t})
			}
		}
		sinkRows = rows
	}
}

func BenchmarkHashJoinBatched(b *testing.B) {
	to := sliceSrc(benchRelation(b, "r1", benchN))
	ti := sliceSrc(benchRelation(b, "r2", benchN))
	spec := exec.JoinSpec{OuterName: "r1", InnerName: "r2"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.HashJoin(to, ti, spec).Release()
	}
}
