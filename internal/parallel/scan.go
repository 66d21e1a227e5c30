package parallel

import (
	"repro/internal/exec"
	"repro/internal/storage"
)

// SelectScan is the morsel-driven parallel counterpart of
// exec.SelectScan, with its metering: a nil pred selects every tuple and
// meters no comparison, a non-nil one meters one per tuple. Morsels are
// chunk ranges of the source: workers take each chunk's whole
// storage.TupleBatch blocks, filter each block into a survivors block
// (or keep it whole), and block-copy the result into private temp lists.
// Per-morsel lists are concatenated in morsel order (recycling their
// arena chunks), so the output row order is exactly the serial scan's.
// workers <= 1, a source too small to split, or a LIMIT (spec.Limit; an
// early exit is inherently sequential) delegates to the serial operator.
func SelectScan(src Chunked, pred func(*storage.Tuple) bool, spec exec.SelectSpec, workers int) *storage.TempList {
	w := Degree(workers)
	if w <= 1 || spec.Limit > 0 {
		return exec.SelectScan(src, pred, spec)
	}
	chunks := src.Chunks(w * morselsPerWorker)
	if len(chunks) <= 1 {
		return exec.SelectScan(src, pred, spec)
	}
	desc := spec.Descriptor()
	results := make([]*storage.TempList, len(chunks))
	total := run(spec.Sched, spec.Prog, "scan", w, len(chunks), func(m int, sc *scratch) {
		local := storage.MustTempListHint(desc, chunks[m].Len())
		keep := sc.keep
		chunks[m].ScanBatches(sc.buf, func(block storage.TupleBatch) bool {
			sc.ctr.AddBatch(1)
			sc.rows += int64(len(block))
			if pred != nil {
				sc.ctr.AddCompare(int64(len(block)))
				keep = keep[:0]
				for _, t := range block {
					if pred(t) {
						keep = append(keep, t)
					}
				}
				block = keep
			}
			local.AppendBatch(block)
			return true
		})
		sc.keep = keep
		results[m] = local
	})
	spec.Meter.Add(total)
	return mergeListsRecycle(desc, results)
}
