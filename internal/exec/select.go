package exec

import (
	"math"
	"sync"

	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// The three selection access paths of §4: "a hash lookup (exact match
// only) is always faster than a tree lookup which is always faster than a
// sequential scan."
//
// All paths emit batch-at-a-time: matching tuples are gathered into
// TupleBatch blocks and block-copied into the output list, so the per-row
// cost on the emit path is one pointer store — no Row header allocation,
// no per-tuple callback into the list.

// SelectSpec names the output of a selection.
type SelectSpec struct {
	RelName string
	Schema  *storage.Schema
	// Desc, when it names a source, is the output descriptor, built once
	// and shared read-only by every list the selection emits (no list
	// writes to its descriptor's Sources or Cols); without one, each
	// output list gets a fresh descriptor of RelName and every column of
	// Schema.
	Desc  storage.Descriptor
	Meter *meter.Counters
	// Hint, when positive, is the expected result cardinality; the output
	// list is presized so no chunk growth happens during the scan.
	Hint int
	// Limit, when positive, is a pushed-down LIMIT: SelectScan stops once
	// that many tuples are selected. The index paths ignore it.
	Limit int
	// Prog, when non-nil, receives live rows-processed progress and
	// worker saturation from the parallel executor (the serial operators
	// in this package ignore it). Nil is the disabled state; every
	// Progress method tolerates it.
	Prog *obs.Progress
	// Sched is the query's admission handle on the shared morsel
	// scheduler. The parallel executor submits its morsels through it;
	// nil runs them on the shared pool with no context. The serial
	// operators ignore it.
	Sched *sched.Query
}

// Descriptor is the selection's output descriptor: Desc, or one built
// from RelName and Schema.
func (s SelectSpec) Descriptor() storage.Descriptor {
	if len(s.Desc.Sources) > 0 {
		return s.Desc
	}
	return SingleDescriptor(s.RelName, s.Schema)
}

func (s SelectSpec) newList() *storage.TempList {
	if s.Hint > 0 {
		return storage.MustTempListHint(s.Descriptor(), s.Hint)
	}
	return storage.MustTempList(s.Descriptor())
}

// SelectEqHash performs an exact-match selection through a hash index.
// The bucket's matches come back as one block (SearchKeyAppend) and are
// block-copied into the output — the §3.1 comparison and hash counts are
// identical to the tuple-at-a-time formulation.
func SelectEqHash(ix tupleindex.Hashed, field int, key storage.Value, spec SelectSpec) *storage.TempList {
	out := spec.newList()
	h := storage.Hash(key)
	spec.Meter.AddHash(1)
	buf := ix.SearchKeyAppend(h, func(t *storage.Tuple) bool {
		spec.Meter.AddCompare(1)
		return storage.Equal(tupleindex.KeyOf(t, field), key)
	}, storage.GetBatch())
	if len(buf) > 0 {
		out.AppendBatch(buf)
		spec.Meter.AddBatch(1)
	}
	storage.PutBatch(buf)
	return out
}

// SelectEqTree performs an exact-match selection through an ordered index:
// a search to any matching entry, then a scan of the contiguous equal run
// (§3.3.4), returned as one block and block-copied into the output.
func SelectEqTree(ix tupleindex.Ordered, field int, key storage.Value, spec SelectSpec) *storage.TempList {
	out := spec.newList()
	p := tupleindex.GetKeyPos(key, field)
	buf := ix.SearchAllAppend(p.Pos, storage.GetBatch())
	tupleindex.PutKeyPos(p)
	if len(buf) > 0 {
		out.AppendBatch(buf)
		spec.Meter.AddBatch(1)
	}
	storage.PutBatch(buf)
	return out
}

// SelectRange selects lo <= field <= hi through an ordered index; hash
// structures cannot serve range queries (§3.2.2: "range queries (hash
// structures excluded)"). Nil bounds are open. Matches are gathered into a
// pooled block and flushed block-wise by a pooled rangeSink, so the probe
// allocates no visitor.
func SelectRange(ix tupleindex.Ordered, field int, lo, hi *storage.Value, spec SelectSpec) *storage.TempList {
	out := spec.newList()
	loPos := func(*storage.Tuple) int { return 0 } // everything >= -inf
	if lo != nil {
		p := tupleindex.GetKeyPos(*lo, field)
		defer tupleindex.PutKeyPos(p)
		loPos = p.Pos
	}
	hiPos := func(*storage.Tuple) int { return 0 } // everything <= +inf
	if hi != nil {
		p := tupleindex.GetKeyPos(*hi, field)
		defer tupleindex.PutKeyPos(p)
		hiPos = p.Pos
	}
	s := rangeSinks.Get().(*rangeSink)
	s.buf, s.out, s.meter = storage.GetBatch(), out, spec.Meter
	ix.Range(loPos, hiPos, s.visit)
	s.flush()
	storage.PutBatch(s.buf)
	s.buf, s.out, s.meter = nil, nil, nil
	rangeSinks.Put(s)
	return out
}

// rangeSink is SelectRange's visitor: it gathers the tuples the index
// visits into buf and flushes each full block into out. Its visit is the
// add method bound once, when the sink is made (tupleindex.KeyPos's
// idiom), and sinks are pooled, so a range probe hands the index a visitor
// without building a closure or boxing its block.
type rangeSink struct {
	buf   storage.TupleBatch
	out   *storage.TempList
	meter *meter.Counters
	visit func(*storage.Tuple) bool // add
}

var rangeSinks = sync.Pool{New: func() any {
	s := new(rangeSink)
	s.visit = s.add
	return s
}}

func (s *rangeSink) add(t *storage.Tuple) bool {
	if s.buf = append(s.buf, t); len(s.buf) == cap(s.buf) {
		s.flush()
	}
	return true
}

// flush appends the gathered block to out and empties it.
func (s *rangeSink) flush() {
	if len(s.buf) > 0 {
		s.out.AppendBatch(s.buf)
		s.meter.AddBatch(1)
		s.buf = s.buf[:0]
	}
}

// SelectScan selects by predicate with a sequential scan through an index
// — possibly one on an unrelated attribute, the fallback access path when
// no index covers the selection column. The source is drained in blocks
// (zero-copy when they are views of its storage). A nil pred selects every
// tuple: whole blocks are block-copied into the output and no comparison
// is metered. Otherwise each block is filtered into a survivors block that
// is block-copied into the output, with one comparison metered per tuple
// examined. A positive spec.Limit ends the scan at the tuple that fills
// the limit.
func SelectScan(src Source, pred func(*storage.Tuple) bool, spec SelectSpec) *storage.TempList {
	out := spec.newList()
	limit := spec.Limit
	if limit <= 0 {
		limit = math.MaxInt
	}
	var keep storage.TupleBatch
	if pred != nil {
		keep = storage.GetBatch()
	}
	buf := storage.GetBatch()
	src.ScanBatches(buf, func(block storage.TupleBatch) bool {
		spec.Meter.AddBatch(1)
		want := limit - out.Len()
		if pred != nil {
			var n int
			keep, n = filter(block, keep[:0], pred, want)
			spec.Meter.AddCompare(int64(n))
			block = keep
		}
		if len(block) >= want {
			out.AppendBatch(block[:want])
			return false
		}
		out.AppendBatch(block)
		return true
	})
	storage.PutBatch(buf)
	storage.PutBatch(keep) // nil without a predicate: PutBatch ignores it
	return out
}

// filter appends to keep the tuples of block that pred selects, up to the
// want-th, and returns them with the number of tuples it examined.
func filter(block, keep storage.TupleBatch, pred func(*storage.Tuple) bool, want int) (storage.TupleBatch, int) {
	for i, t := range block {
		if pred(t) {
			if keep = append(keep, t); len(keep) == want {
				return keep, i + 1
			}
		}
	}
	return keep, len(block)
}
