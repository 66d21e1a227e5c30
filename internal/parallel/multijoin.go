package parallel

import (
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/storage"
)

// RunPipeline executes a multi-join pipeline over the driver source:
// serially for one worker (or under a Limit, whose early exit does not
// decompose), morsel-parallel otherwise. The build-side hash tables in
// spec.Stages are immutable by the time this runs, so workers share
// them; each worker gets a pipeline clone with private buffers and a
// private partial list, and the partials merge in morsel order so the
// output row order is deterministic for a given chunking.
//
// Returns the result list (nil when spec.Discard), per-stage emitted
// row counts (the actuals for the planner's forecast audit), and the
// total emitted rows. §3.1 counters fold into spec.Meter on all paths.
func RunPipeline(driver Chunked, spec exec.PipelineSpec, desc storage.Descriptor, hint, workers int) (*storage.TempList, []int64, int) {
	stageRows := make([]int64, len(spec.Stages))
	if workers <= 1 || spec.Limit > 0 {
		var out *storage.TempList
		if !spec.Discard {
			if hint > 0 {
				out = storage.MustTempListHint(desc, hint)
			} else {
				out = storage.MustTempList(desc)
			}
		}
		spec.Out = out
		p := exec.NewPipeline(spec)
		defer p.Release()
		buf := storage.GetBatch()
		driver.ScanBatches(buf, func(block storage.TupleBatch) bool {
			return p.Feed(block)
		})
		p.Flush()
		storage.PutBatch(buf)
		for k := range stageRows {
			stageRows[k] = int64(p.StageRows(k))
		}
		return out, stageRows, p.Emitted()
	}

	chunks := driver.Chunks(workers * morselsPerWorker)
	if len(chunks) == 0 {
		if spec.Discard {
			return nil, stageRows, 0
		}
		return storage.MustTempList(desc), stageRows, 0
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}

	// A fixed free list of clones, one per worker: at most `workers`
	// morsels run at once, so a receive never blocks. Clones share the
	// stage tables; Prog stays nil on them (the morsel runner reports
	// progress) and the meter is rearmed per morsel to the worker's
	// private counter block.
	free := make(chan *exec.Pipeline, workers)
	for i := 0; i < workers; i++ {
		free <- exec.NewPipeline(cloneSpec(spec))
	}

	parts := make([]*storage.TempList, len(chunks))
	var emitted atomic.Int64
	meterTotal := run(spec.Sched, spec.Prog, "multijoin", workers, len(chunks), func(i int, sc *scratch) {
		p := <-free
		var part *storage.TempList
		if !spec.Discard {
			part = storage.MustTempListDir(desc, chunks[i].Len())
		}
		p.Rearm(part, &sc.ctr)
		chunks[i].ScanBatches(sc.buf, func(block storage.TupleBatch) bool {
			sc.rows += int64(len(block))
			return p.Feed(block)
		})
		p.Flush()
		parts[i] = part
		for k := range stageRows {
			atomic.AddInt64(&stageRows[k], int64(p.StageRows(k)))
		}
		emitted.Add(int64(p.Emitted()))
		free <- p
	})
	for i := 0; i < workers; i++ {
		(<-free).Release()
	}
	spec.Meter.Add(meterTotal)

	if spec.Discard {
		return nil, stageRows, int(emitted.Load())
	}
	live := parts[:0]
	for _, pt := range parts {
		if pt != nil {
			live = append(live, pt)
		}
	}
	out := mergeListsRecycle(desc, live)
	return out, stageRows, out.Len()
}

// cloneSpec strips the per-run fields a worker clone must own privately.
func cloneSpec(spec exec.PipelineSpec) exec.PipelineSpec {
	spec.Out = nil
	spec.Meter = nil
	spec.Prog = nil
	return spec
}
