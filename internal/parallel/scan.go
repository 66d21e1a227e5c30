package parallel

import (
	"repro/internal/exec"
	"repro/internal/storage"
)

// SelectScan is the morsel-driven parallel counterpart of
// exec.SelectScan. Morsels are chunk ranges of the source: workers take
// each chunk's whole storage.TupleBatch blocks, filter each block into a
// survivors block, and block-copy the survivors into private temp lists.
// Per-morsel lists are concatenated in morsel order (recycling their
// arena chunks), so the output row order is exactly the serial scan's.
// workers <= 1, or a source too small to split, delegates to the serial
// operator.
func SelectScan(src Chunked, pred func(*storage.Tuple) bool, spec exec.SelectSpec, workers int) *storage.TempList {
	w := Degree(workers)
	if w <= 1 {
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
			sc.ctr.AddCompare(int64(len(block)))
			sc.ctr.AddBatch(1)
			sc.rows += int64(len(block))
			keep = keep[:0]
			for _, t := range block {
				if pred(t) {
					keep = append(keep, t)
				}
			}
			local.AppendBatch(keep)
			return true
		})
		sc.keep = keep
		results[m] = local
	})
	spec.Meter.Add(total)
	return mergeListsRecycle(desc, results)
}
