package parallel

import (
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/radix"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// RadixHashJoin is the cache-conscious counterpart of the chained-bucket
// hash join: both sides are multi-pass radix-partitioned on the top bits
// of the join-key hash (internal/radix's histogram-then-scatter kernel
// with write-combining buffers), then every partition pair is processed
// independently — build a flat open-addressing table over the inner
// partition, sized to stay L2-resident, and probe it with the outer
// partition's entries straight out of the partitioned array. Partition
// pairs are fanned out across the worker pool as morsels; workers=1 runs
// the same partitioned algorithm serially, which is still a win at scale
// because the cache behavior, not the parallelism, is the point.
//
// Key hashes are computed once per tuple and reused for partitioning,
// table placement, and the probe's hash-first filter — the full key
// comparison runs only on 64-bit hash equality, so cold tuples are
// rarely touched for non-matches. Equal keys hash equal, so matches can
// never cross partitions.
//
// Output rows are grouped by partition (within one partition, outer scan
// order); the match multiset is identical to the serial join's. A Limit
// (inherently sequential early exit) or an empty side delegates to the
// serial exec.HashJoin. Returns the result list plus the build side's
// partitioning stats for traces and EXPLAIN ANALYZE.
func RadixHashJoin(outer, inner Chunked, spec exec.JoinSpec, bits []uint, workers int) (*storage.TempList, radix.Stats) {
	pl := radix.Plan{Bits: bits}
	if spec.Limit > 0 || pl.Fanout() <= 1 {
		return exec.HashJoin(outer, inner, spec), radix.Stats{}
	}
	w := Degree(workers)
	ni, no := inner.Len(), outer.Len()
	if ni == 0 || no == 0 {
		return exec.HashJoin(outer, inner, spec), radix.Stats{}
	}

	// Phase 1 — hash both sides into the pooled partitioners' entry
	// arrays: one storage.Hash per tuple, reused by every later phase.
	// Chunks are contiguous in source order, so each worker writes a
	// disjoint range of the entry array.
	//
	// Phase 2 — radix-partition both sides, ping-ponging between the two
	// arrays each partitioner owns. The partitioners stay live until the
	// probe phase finishes (their arrays hold the partitioned layouts).
	pi := radix.GetTuplePartitioner()
	po := radix.GetTuplePartitioner()
	ie := hashEntries(spec.Sched, inner, pi.Entries(ni), spec.InnerField, spec.Meter, spec.Prog, w)
	oe := hashEntries(spec.Sched, outer, po.Entries(no), spec.OuterField, spec.Meter, spec.Prog, w)
	ie, ioffs := pi.Partition(ie, pl, spec.Meter)
	oe, ooffs := po.Partition(oe, pl, spec.Meter)
	stats := radix.StatsOf(pl, ioffs)

	// Phase 3 — per-partition build + probe, partition pairs as morsels.
	// Each pair touches only its two partition extents and its own flat
	// table, so a pair's working set is the L2-sized footprint the plan
	// chose the radix bits for. Under a memory reservation (spec.Mem)
	// each pair runs the dynamic-hybrid protocol instead: decide roles,
	// grant the table, and degrade (reverse, re-split, force) when the
	// grant or the forecast is wrong — see joinPair.
	fanout := pl.Fanout()
	desc := exec.PairDescriptor(spec.OuterName, spec.InnerName)
	results := make([]*storage.TempList, fanout)
	counts := make([]int, fanout)
	var reversals, resplits atomic.Int64
	skip := pl.TotalBits()
	spec.Meter.Add(run(spec.Sched, spec.Prog, "radix join", w, fanout, func(p int, sc *scratch) {
		blo, bhi := ioffs[p], ioffs[p+1]
		plo, phi := ooffs[p], ooffs[p+1]
		if blo == bhi || plo == phi {
			return // nothing to build or nothing to probe: no matches
		}
		var local *storage.TempList
		if !spec.Discard {
			local = storage.MustTempListDir(desc, phi-plo) // a key join emits about a row per outer row
		}
		st := pairState{
			spec:      &spec,
			sc:        sc,
			local:     local,
			reversals: &reversals,
			resplits:  &resplits,
		}
		counts[p] = st.joinPair(ie[blo:bhi], oe[plo:phi], skip, 0)
		results[p] = local
	}))
	radix.PutTuplePartitioner(pi)
	radix.PutTuplePartitioner(po)
	stats.Reversed = int(reversals.Load())
	stats.Repartitions = int(resplits.Load())
	spec.Mem.NoteReversal(reversals.Load())
	spec.Mem.NoteRepartition(resplits.Load())

	if spec.RowsOut != nil {
		total := 0
		for _, n := range counts {
			total += n
		}
		*spec.RowsOut = total
	}
	parts := results[:0]
	for _, r := range results {
		if r != nil {
			parts = append(parts, r)
		}
	}
	if spec.Discard {
		return storage.MustTempList(desc), stats
	}
	return mergeListsRecycle(desc, parts), stats
}

// Dynamic-hybrid degradation bounds (Jahangiri/Carey/Freytag's
// graceful-degradation order, adapted to a pure in-memory engine:
// reverse roles, re-split fat partitions, and only then overcommit).
const (
	// maxResplitDepth bounds recursive repartitioning: each round
	// consumes up to DefaultRadixMaxPassBits more hash bits, so three
	// rounds on top of a clamped 2-bit plan reach 26 bits of fanout —
	// past any real partition before the bound ever fires, but a hard
	// stop against adversarial hash distributions.
	maxResplitDepth = 3
	// minResplitRows is the build size below which a refused grant is
	// forced instead of re-split: the table is already tiny, so the
	// refusal is transient concurrency pressure, not fatness.
	minResplitRows = 256
	// minChildTableBytes floors the re-split target so a starved budget
	// still produces usefully sized children rather than fanout-per-row.
	minChildTableBytes = 32 << 10
	// maxChildTableBytes caps the re-split target at the L2 working set
	// the radix plan aims for in the first place.
	maxChildTableBytes = 256 << 10
)

// pairState carries one morsel's context through the recursive
// partition-pair protocol.
type pairState struct {
	spec      *exec.JoinSpec
	sc        *scratch
	local     *storage.TempList
	reversals *atomic.Int64
	resplits  *atomic.Int64
}

// joinPair joins one partition pair, inner × outer, in original
// orientation (output rows are always (outer, inner) regardless of
// build role). skip is how many top hash bits this pair's partition
// path has consumed; depth counts re-split rounds.
//
// The budgeted protocol, in degradation order:
//  1. Role reversal — build over the smaller extent. The planner chose
//     the inner side from pre-partition cardinality forecasts; the
//     histograms are ground truth, and under skew a "small" side's
//     partition can dwarf its sibling.
//  2. Grant-before-build — the flat table's exact footprint is granted
//     before construction. A refused grant on a splittable partition
//     triggers recursive repartitioning: both extents re-scatter on the
//     next hash digits and each child pair re-enters the protocol
//     (roles re-decided per child, grants re-tried per child).
//  3. Forced overcommit — a partition that cannot shrink (all-equal
//     hashes, bits exhausted, depth bound) builds at whatever size it
//     is, recorded in the manager's forced counter.
//
// With no reservation (spec.Mem == nil) the pre-budget fast path runs:
// build inner, probe outer, no accounting.
func (st *pairState) joinPair(inner, outer []radix.TupleEntry, skip uint, depth int) int {
	if len(inner) == 0 || len(outer) == 0 {
		return 0
	}
	spec := st.spec
	if spec.Mem == nil {
		return st.buildProbe(inner, outer, false)
	}
	build, probe, reversed := inner, outer, false
	if len(outer) < len(inner) {
		build, probe, reversed = outer, inner, true
	}
	need := radix.TableBytes(len(build))
	if !spec.Mem.TryGrant(need) {
		if depth < maxResplitDepth && len(build) >= minResplitRows {
			if extra := st.resplitBits(len(build), skip); extra > 0 {
				if n, ok := st.resplitAndJoin(inner, outer, skip, extra, depth); ok {
					return n
				}
			}
		}
		// Unsplittable (all-equal hashes, hash bits exhausted, depth
		// bound, or already tiny): build at full size, recorded.
		spec.Mem.Force(need)
	}
	if reversed {
		st.reversals.Add(1)
	}
	n := st.buildProbe(build, probe, reversed)
	spec.Mem.Release(need)
	return n
}

// resplitBits sizes one re-split round: enough extra radix bits that a
// child's build table fits the current budget slack (clamped to
// [minChildTableBytes, maxChildTableBytes]), capped by the per-pass
// write-combining budget and the hash bits this pair has left. 0 means
// re-splitting cannot help.
func (st *pairState) resplitBits(buildRows int, skip uint) uint {
	maxExtra := uint(64) - skip
	if maxExtra > 8 { // one pass, DefaultRadixMaxPassBits
		maxExtra = 8
	}
	target := st.spec.Mem.Available()
	if target > maxChildTableBytes {
		target = maxChildTableBytes
	}
	if target < minChildTableBytes {
		target = minChildTableBytes
	}
	// A table over n rows holds ≤ 32 bytes a slot (radix.TableBytes) in
	// ≤ 4n slots (power-of-two rounding of 2n), so n ≤ target/128 is
	// guaranteed to fit.
	rowsPerChild := int(target / 128)
	if rowsPerChild < 1 {
		rowsPerChild = 1
	}
	var extra uint
	for extra < maxExtra && buildRows>>extra > rowsPerChild {
		extra++
	}
	return extra
}

// resplitAndJoin re-scatters both extents on the next `extra` hash
// digits below skip and joins each child pair recursively. It reports
// false — pair not joined — when the scatter made no progress (every
// entry of both sides landed in one child: all-equal hashes), in which
// case the caller falls through to the forced path. The re-scatter is
// done with pooled kernel scratch; the refined layouts are copied back
// into the parent extents so the scratch can be released before
// recursing (children re-split with their own pooled partitioners).
func (st *pairState) resplitAndJoin(inner, outer []radix.TupleEntry, skip, extra uint, depth int) (int, bool) {
	cpl := radix.Plan{Bits: []uint{extra}}
	pr := radix.GetTuplePartitioner()
	ires, irel := pr.PartitionFrom(inner, cpl, skip, &st.sc.ctr)
	if len(ires) > 0 && &ires[0] != &inner[0] {
		copy(inner, ires)
	}
	ioffs := append(make([]int, 0, len(irel)), irel...)
	ores, orel := pr.PartitionFrom(outer, cpl, skip, &st.sc.ctr)
	if len(ores) > 0 && &ores[0] != &outer[0] {
		copy(outer, ores)
	}
	ooffs := append(make([]int, 0, len(orel)), orel...)
	radix.PutTuplePartitioner(pr)

	maxI, maxO := 0, 0
	for c := 0; c < cpl.Fanout(); c++ {
		if n := ioffs[c+1] - ioffs[c]; n > maxI {
			maxI = n
		}
		if n := ooffs[c+1] - ooffs[c]; n > maxO {
			maxO = n
		}
	}
	if maxI == len(inner) && maxO == len(outer) {
		return 0, false // nothing split: identical hashes straight down
	}
	st.resplits.Add(1)
	total := 0
	for c := 0; c < cpl.Fanout(); c++ {
		total += st.joinPair(inner[ioffs[c]:ioffs[c+1]], outer[ooffs[c]:ooffs[c+1]], skip+extra, depth+1)
	}
	return total, true
}

// buildProbe builds the flat table over build and probes it with probe,
// emitting (outer, inner) oriented rows: with reversed=false the build
// side is the inner relation, with reversed=true the roles are swapped
// and emission un-swaps them.
func (st *pairState) buildProbe(build, probe []radix.TupleEntry, reversed bool) int {
	sc := st.sc
	sc.rows += int64(len(build) + len(probe))
	tbl := radix.GetTable()
	if tbl.Reset(len(build)) {
		sc.ctr.AddAlloc(1)
	}
	for _, e := range build {
		tbl.Insert(e.H, e.P)
	}
	sc.ctr.AddMove(int64(len(build)))
	fb, fp := st.spec.InnerField, st.spec.OuterField
	if reversed {
		fb, fp = st.spec.OuterField, st.spec.InnerField
	}
	// One match closure per call, capturing the mutable probe key — a
	// per-tuple closure literal would heap-allocate on every probe.
	var ko storage.Value
	match := func(b *storage.Tuple) bool {
		sc.ctr.AddCompare(1)
		return storage.Equal(tupleindex.KeyOf(b, fb), ko)
	}
	n := 0
	matches := sc.keep
	sc.ctr.AddBatch(int64(1 + len(probe)/storage.BatchSize))
	for j := range probe {
		t := probe[j].P
		if ko = tupleindex.KeyOf(t, fp); ko.IsNull() {
			continue // a NULL key matches nothing
		}
		matches = tbl.ProbeAppend(probe[j].H, match, matches[:0])
		n += len(matches)
		if st.local != nil {
			if reversed {
				for _, b := range matches {
					st.local.AppendPair(b, t)
				}
			} else {
				for _, b := range matches {
					st.local.AppendPair(t, b)
				}
			}
		}
	}
	sc.keep = matches
	sc.ctr.AddHashProbe(tbl.InsertSteps())
	radix.PutTable(tbl)
	return n
}

// hashEntries fills es — a partitioner's pooled input array, one entry
// per tuple of src — with (hash, tuple) entries, one storage.Hash call
// per tuple, parallel over contiguous chunks: a chunk starts where the
// chunks before it end. It allocates no entries of its own.
func hashEntries(sq *sched.Query, src Chunked, es []radix.TupleEntry, field int, m *meter.Counters, pg *obs.Progress, w int) []radix.TupleEntry {
	chunks := src.Chunks(w * morselsPerWorker)
	m.Add(run(sq, pg, "radix join", w, len(chunks), func(c int, sc *scratch) {
		i := 0
		for _, prev := range chunks[:c] {
			i += prev.Len()
		}
		chunks[c].ScanBatches(sc.buf, func(block storage.TupleBatch) bool {
			sc.ctr.AddBatch(1)
			sc.ctr.AddHash(int64(len(block)))
			sc.rows += int64(len(block))
			for _, t := range block {
				es[i] = radix.TupleEntry{H: storage.Hash(tupleindex.KeyOf(t, field)), P: t}
				i++
			}
			return true
		})
	}))
	return es
}
