// Package agg implements vectorized grouped aggregation over temporary
// lists. The paper's workload stops at select/join/project; this operator
// extends the same §2.3 machinery — tuple-pointer rows in, a temporary list
// of each group's representative row plus computed key and aggregate
// columns out (Emit) — with the cache-conscious shape the radix
// join established: radix-partition the input on the group-key hash
// (internal/radix), then aggregate each partition through a flat
// open-addressing table that stays L2-resident. Groups cannot cross hash
// partitions, so no cross-partition merge is ever needed. The parallel
// executor's per-worker partials (RunRange) are merged the same way: by
// hash partition, one MergePartition per partition, from each group's
// cached hash and key.
//
// All scratch (the hash entries, the probe table, the per-group state
// cells) lives in a pooled Grouper: a warmed grouper aggregates an input
// with zero heap allocations. A cold one (fresh from the pool, or last used
// for a smaller query) grows its scratch by doubling, so it reaches its
// final size in a few allocations. Emitting the output is the only
// allocating step, priced at one row pointer per group (pooled chunks)
// plus one 8-byte payload per output column per group: an Int, Float or
// Bool column keeps only payloads (storage.TempList's computed columns),
// and a string key column keeps a 24-byte value besides.
//
// Aggregate semantics are SQL's: NULL inputs are skipped by every
// function including COUNT(col); COUNT(*) counts rows; a group whose
// inputs were all NULL yields NULL for SUM/MIN/MAX/AVG and 0 for COUNT.
package agg

import (
	"fmt"
	"sync"

	"repro/internal/meter"
	"repro/internal/radix"
	"repro/internal/storage"
)

// Kind is an aggregate function.
type Kind uint8

// The five aggregate functions.
const (
	Count Kind = iota // COUNT(*) when Col < 0, COUNT(col) otherwise
	Sum
	Min
	Max
	Avg
)

// String names the function as SQL spells it.
func (k Kind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return "AGG?"
	}
}

// Spec is one aggregate of a GROUP BY query: the function, the input
// column (an ordinal into the input list's descriptor columns; -1 for
// COUNT(*)), and the output column name.
type Spec struct {
	Kind Kind
	Col  int
	Name string
}

// Cell is the running state of one (group, aggregate) pair. N is the
// non-null input count (the COUNT value and the AVG divisor); sums
// accumulate integers in I and floats in F so mixed inputs keep integer
// exactness as long as they can; V carries the current MIN/MAX; T records
// the value type seen so SUM can come back out in its input's type.
type Cell struct {
	N int64
	I int64
	F float64
	V storage.Value
	T storage.Type
}

// absorb folds one non-null value into the cell. The caller has already
// applied null-skipping and counted c.N.
func (c *Cell) absorb(k Kind, v storage.Value, m *meter.Counters) {
	switch k {
	case Sum, Avg:
		switch v.Type() {
		case storage.Float:
			c.F += v.Float()
			c.T = storage.Float
		case storage.Int:
			c.I += v.Int()
			if c.T != storage.Float {
				c.T = storage.Int
			}
		}
	case Min:
		if c.N == 1 {
			c.V = v
		} else {
			m.AddCompare(1)
			if storage.Compare(v, c.V) < 0 {
				c.V = v
			}
		}
	case Max:
		if c.N == 1 {
			c.V = v
		} else {
			m.AddCompare(1)
			if storage.Compare(v, c.V) > 0 {
				c.V = v
			}
		}
	}
}

// Merge folds another cell of the same (group key, aggregate) into c —
// the partial-aggregate combine of the parallel executor's merge phase
// (MergePartition). Every aggregate here is decomposable: counts and
// sums add, MIN/MAX compare, AVG merges as (sum, count).
func (c *Cell) Merge(k Kind, o Cell, m *meter.Counters) {
	if o.N == 0 {
		return
	}
	switch k {
	case Min:
		if c.N == 0 {
			c.V = o.V
		} else {
			m.AddCompare(1)
			if storage.Compare(o.V, c.V) < 0 {
				c.V = o.V
			}
		}
	case Max:
		if c.N == 0 {
			c.V = o.V
		} else {
			m.AddCompare(1)
			if storage.Compare(o.V, c.V) > 0 {
				c.V = o.V
			}
		}
	default:
		c.I += o.I
		c.F += o.F
		if o.T == storage.Float {
			c.T = storage.Float
		} else if c.T != storage.Float && o.T == storage.Int {
			c.T = storage.Int
		}
	}
	c.N += o.N
}

// Final produces the aggregate's output value from a finished cell.
func Final(k Kind, c Cell) storage.Value {
	switch k {
	case Count:
		return storage.IntValue(c.N)
	case Sum:
		if c.N == 0 {
			return storage.Value{}
		}
		if c.T == storage.Float {
			return storage.FloatValue(c.F)
		}
		return storage.IntValue(c.I)
	case Avg:
		if c.N == 0 {
			return storage.Value{}
		}
		return storage.FloatValue((float64(c.I) + c.F) / float64(c.N))
	default: // Min, Max
		if c.N == 0 {
			return storage.Value{}
		}
		return c.V
	}
}

// Result is a finished aggregation: one entry per distinct group, in the
// order the operator discovered them (first-occurrence order within each
// radix partition, partitions in hash order). Reps[g] is the input row
// that first exhibited group g's key, and Emit takes it as the group's
// output row. Hashes[g] is that key's hash (exec.KeyHash) and
// Keys[g*nkey:(g+1)*nkey] its key values, cached when the group was
// found — the merge of parallel partials reads keys from them, never
// through a row. Cells is group-major: group g's state for spec s is
// Cells[g*len(specs)+s]. Concat's result carries Reps and Cells only.
// The slices alias the Grouper's pooled scratch: consume them (or Emit)
// before Put.
type Result struct {
	Reps   []int32
	Hashes []uint64
	Keys   []storage.Value
	Cells  []Cell
	Stats  radix.Stats
}

// Groups is the distinct-group count.
func (r Result) Groups() int { return len(r.Reps) }

// Grouper holds the operator's reusable scratch: the (hash, row) entries
// handed to the radix partitioner, the open-addressing probe table, the
// group reps/hashes/keys/cells, and the batched column/hash/ordinal
// buffers. Get/Put recycle groupers through a pool; a warmed
// grouper runs allocation-free.
type Grouper struct {
	ent     []radix.RowEntry
	slots   []int32 // group ordinal +1; 0 = empty
	hashes  []uint64
	reps    []int32
	cells   []Cell
	repkeys []storage.Value   // group-major cached key values (groups × nkey)
	vbufs   [][]storage.Value // gathered column batches, one per distinct input column
	hbuf    []uint64          // per-batch row hashes
	ords    []int32           // per-batch group ordinals
	rowbuf  []int32           // per-batch row ids (partitioned path)
	cols    []int             // distinct input columns: group keys first, then aggregate inputs
	specCol []int             // spec ordinal → index into cols/vbufs; -1 for COUNT(*)
	specDup []int             // spec ordinal → earlier spec whose cell state it can share; -1 if none
	sz      int               // active probe-table prefix of slots (power of two)
	szMax   int               // full table size for this run's row count (growth stops here)
	ordBase int               // first group ordinal belonging to the active table
	// High-water lengths of cells and repkeys since the last Put: how far
	// this grouper's runs wrote values that may pin strings or tuples.
	cellsHW, keysHW int
}

// aggBatch is the width of the vectorized kernel's batches: wide enough to
// amortize the per-batch column gathers, narrow enough that the gathered
// buffers (batch × columns × 24-byte values) stay cache-resident.
const aggBatch = 1024

var grouperPool = sync.Pool{New: func() any { return new(Grouper) }}

// Get borrows a pooled grouper.
func Get() *Grouper { return grouperPool.Get().(*Grouper) }

// Put clears the value-holding scratch (cells, gathered batches and cached
// keys may pin strings and tuple refs through storage.Value) and recycles
// the grouper. Only what the runs since the last Put wrote is cleared —
// the high-water mark of cells and keys — so a small run on a grouper an
// earlier large one grew does not pay for clearing the large run's arrays
// again.
func Put(g *Grouper) {
	g.reset()
	clear(g.cells[:g.cellsHW])
	clear(g.repkeys[:g.keysHW])
	g.cellsHW, g.keysHW = 0, 0
	for _, vb := range g.vbufs {
		clear(vb[:cap(vb)])
	}
	grouperPool.Put(g)
}

// reset empties the per-group scratch for a new run, first raising the
// high-water marks to what the last run wrote.
func (g *Grouper) reset() {
	g.cellsHW = max(g.cellsHW, len(g.cells))
	g.keysHW = max(g.keysHW, len(g.repkeys))
	g.reps = g.reps[:0]
	g.hashes = g.hashes[:0]
	g.cells = g.cells[:0]
	g.repkeys = g.repkeys[:0]
}

// result is the run's groups as a Result, aliasing the scratch.
func (g *Grouper) result() Result {
	return Result{Reps: g.reps, Hashes: g.hashes, Keys: g.repkeys, Cells: g.cells}
}

// planCols computes the distinct input columns a run touches — group keys
// first (so vbufs[0:nkey] are the key batches), then aggregate inputs,
// each column gathered once per batch no matter how many specs share it —
// and sizes the batch scratch.
func (g *Grouper) planCols(groupCols []int, specs []Spec) {
	g.cols = append(g.cols[:0], groupCols...)
	g.specCol = g.specCol[:0]
	for i := range specs {
		c := specs[i].Col
		if c < 0 {
			g.specCol = append(g.specCol, -1)
			continue
		}
		idx := -1
		for j, have := range g.cols {
			if have == c {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(g.cols)
			g.cols = append(g.cols, c)
		}
		g.specCol = append(g.specCol, idx)
	}
	// Duplicate-state detection: SUM and AVG over the same column fold the
	// identical (N, I, F, T) state, and COUNT(col) reads only the N those
	// loops already maintain — so the later spec skips its accumulate pass
	// entirely and copies the canonical spec's cells at the end. A query
	// like SELECT COUNT(x), SUM(x), AVG(x) folds x exactly once.
	g.specDup = g.specDup[:0]
	for i := range specs {
		dup := -1
		if specs[i].Col >= 0 {
			for j := 0; j < i; j++ {
				if specs[j].Col == specs[i].Col && g.specDup[j] < 0 && canShareCell(specs[i].Kind, specs[j].Kind) {
					dup = j
					break
				}
			}
		}
		g.specDup = append(g.specDup, dup)
	}
	for len(g.vbufs) < len(g.cols) {
		g.vbufs = append(g.vbufs, make([]storage.Value, aggBatch))
	}
	if g.hbuf == nil {
		g.hbuf = make([]uint64, aggBatch)
		g.ords = make([]int32, aggBatch)
		g.rowbuf = make([]int32, aggBatch)
	}
}

// canShareCell reports whether a spec of kind dup, over the same input
// column as an earlier spec of kind canon, can read its finished state
// straight out of canon's cells. SUM and AVG accumulate identically (they
// differ only in Final); COUNT(col) needs only the non-null count N that
// SUM/AVG/COUNT all maintain. MIN/MAX share only with their own kind.
func canShareCell(dup, canon Kind) bool {
	if dup == canon {
		return true
	}
	switch dup {
	case Count:
		return canon == Sum || canon == Avg
	case Sum:
		return canon == Avg
	case Avg:
		return canon == Sum
	default:
		return false
	}
}

// finishShared copies each state-sharing spec's cells from its canonical
// twin once the fold is complete.
func (g *Grouper) finishShared(nspec int) {
	for s := 0; s < nspec; s++ {
		t := g.specDup[s]
		if t < 0 {
			continue
		}
		for grp := 0; grp < len(g.reps); grp++ {
			g.cells[grp*nspec+s] = g.cells[grp*nspec+t]
		}
	}
}

// Run aggregates list grouped by groupCols. bits is the radix plan from
// plan.ChooseAggMethod: nil runs the whole input through one flat table
// (the degenerate single-partition plan); otherwise the input is
// partitioned on the top bits of the group-key hash first and each
// partition aggregated through its own L2-resident table.
//
// Metering: one HashCalls per row (the key hash), AggProbes per
// open-addressing slot visited, Comparisons for key checks and MIN/MAX
// updates, Groups for distinct groups out, plus the radix kernel's
// RadixPasses/Partitions/DataMoves when a partitioning plan ran.
func (g *Grouper) Run(list *storage.TempList, groupCols []int, specs []Spec, bits []uint, m *meter.Counters) Result {
	n := list.Len()
	g.reset()
	if n == 0 {
		return g.result()
	}

	g.planCols(groupCols, specs)
	if len(bits) == 0 {
		// Flat: batch rows straight into one table, no entry staging.
		g.ensureSlots(n)
		g.startTable(n)
		g.runFlat(list, 0, n, groupCols, specs, m)
		g.finishShared(len(specs))
		m.AddGroup(int64(len(g.reps)))
		return g.result()
	}

	// Partitioned: hash every row once, scatter (hash, row) entries on the
	// top bits, then aggregate partition by partition. The per-partition
	// table is sized for that partition alone, so it stays cache-resident
	// by construction.
	if cap(g.ent) < n {
		g.ent = make([]radix.RowEntry, n)
	}
	ent := g.ent[:n]
	nkey := len(groupCols)
	for b := 0; b < n; b += aggBatch {
		bn := aggBatch
		if n-b < bn {
			bn = n - b
		}
		for k := 0; k < nkey; k++ {
			list.GatherColumn(groupCols[k], b, b+bn, g.vbufs[k][:bn])
		}
		g.hashBatch(nkey, bn, m)
		for i := 0; i < bn; i++ {
			ent[b+i] = radix.RowEntry{H: g.hbuf[i], P: int32(b + i)}
		}
	}
	part := radix.GetRowPartitioner()
	ents, offs := part.Partition(ent, radix.Plan{Bits: bits}, m)
	stats := radix.StatsOf(radix.Plan{Bits: bits}, offs)
	g.ensureSlots(stats.MaxPart)
	for p := 0; p+1 < len(offs); p++ {
		lo, hi := offs[p], offs[p+1]
		if lo == hi {
			continue
		}
		g.startTable(hi - lo)
		for b := lo; b < hi; b += aggBatch {
			bn := aggBatch
			if hi-b < bn {
				bn = hi - b
			}
			for i := 0; i < bn; i++ {
				e := ents[b+i]
				g.rowbuf[i] = e.P
				g.hbuf[i] = e.H
			}
			for k, c := range g.cols {
				list.GatherColumnRows(c, g.rowbuf[:bn], g.vbufs[k][:bn])
			}
			g.processBatch(bn, 0, true, groupCols, specs, m)
		}
	}
	radix.PutRowPartitioner(part)
	g.finishShared(len(specs))
	m.AddGroup(int64(len(g.reps)))
	res := g.result()
	res.Stats = stats
	return res
}

// FNV-1a fold constants — the batched hash below must produce exactly
// exec.KeyHash's value for the same key vector, so flat, partitioned,
// merged and projected paths always agree bit-for-bit on key identity.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashBatch folds the gathered key batches vbufs[0:nkey] into per-row
// hashes (column-at-a-time, one meter tick per row as exec.KeyHash does).
func (g *Grouper) hashBatch(nkey, bn int, m *meter.Counters) {
	hb := g.hbuf[:bn]
	for i := range hb {
		hb[i] = fnvOffset64
	}
	for k := 0; k < nkey; k++ {
		storage.HashFold(g.vbufs[k][:bn], hb)
	}
	m.AddHash(int64(bn))
}

// runFlat drives the batched kernel over rows [lo, hi) against the current
// table: gather every needed column, hash the keys, probe, accumulate.
func (g *Grouper) runFlat(list *storage.TempList, lo, hi int, groupCols []int, specs []Spec, m *meter.Counters) {
	nkey := len(groupCols)
	for b := lo; b < hi; b += aggBatch {
		bn := aggBatch
		if hi-b < bn {
			bn = hi - b
		}
		for k, c := range g.cols {
			list.GatherColumn(c, b, b+bn, g.vbufs[k][:bn])
		}
		g.hashBatch(nkey, bn, m)
		g.processBatch(bn, b, false, groupCols, specs, m)
	}
}

// repKeysEqual compares batch row i's gathered key against group ord's
// cached rep key — both sides are dense arrays, so the steady-state probe
// never dereferences a tuple.
func (g *Grouper) repKeysEqual(ord, i, nkey int, m *meter.Counters) bool {
	rk := g.repkeys[ord*nkey : ord*nkey+nkey]
	for k := 0; k < nkey; k++ {
		m.AddCompare(1)
		if !storage.Equal(g.vbufs[k][i], rk[k]) {
			return false
		}
	}
	return true
}

// processBatch probes each gathered row to its group ordinal and then
// folds each aggregate input column ordinal-wise — the per-spec dispatch
// happens once per batch, not once per value. When pre is set, the batch
// came from the partitioner: row ids are in rowbuf and hbuf already holds
// the pre-partition hashes; otherwise rows are base+i and hashBatch ran.
func (g *Grouper) processBatch(bn, base int, pre bool, groupCols []int, specs []Spec, m *meter.Counters) {
	nkey := len(groupCols)
	nspec := len(specs)
	var key0 []storage.Value // first key column batch; nil for global aggregates
	if nkey > 0 {
		key0 = g.vbufs[0]
	}
	for i := 0; i < bn; i++ {
		h := g.hbuf[i]
		row := int32(base + i)
		if pre {
			row = g.rowbuf[i]
		}
		mask := uint64(g.sz - 1)
		idx := h & mask
		for {
			m.AddAggProbe(1)
			s := g.slots[idx]
			if s == 0 {
				ord := len(g.reps)
				g.slots[idx] = int32(ord + 1)
				g.reps = append(grow(g.reps, 1), row)
				g.hashes = append(grow(g.hashes, 1), h)
				g.cells = appendZeroCells(g.cells, nspec)
				g.repkeys = grow(g.repkeys, nkey)
				for k := 0; k < nkey; k++ {
					g.repkeys = append(g.repkeys, g.vbufs[k][i])
				}
				g.ords[i] = int32(ord)
				if 2*(len(g.reps)-g.ordBase) >= g.sz && g.sz < g.szMax {
					g.growTable(m)
				}
				break
			}
			ord := int(s - 1)
			if g.hashes[ord] == h {
				// Single-key groupings (the common case) compare in place:
				// storage.Equal inlines here, so an int-keyed probe is two
				// register compares with no call.
				var eq bool
				if nkey == 1 {
					m.AddCompare(1)
					eq = storage.Equal(key0[i], g.repkeys[ord])
				} else {
					eq = g.repKeysEqual(ord, i, nkey, m)
				}
				if eq {
					g.ords[i] = int32(ord)
					break
				}
			}
			idx = (idx + 1) & mask
		}
	}
	for s := range specs {
		sp := &specs[s]
		if g.specDup[s] >= 0 {
			continue // state shared with an earlier spec; copied at finish
		}
		ci := g.specCol[s]
		if ci < 0 { // COUNT(*): every row counts
			for i := 0; i < bn; i++ {
				g.cells[int(g.ords[i])*nspec+s].N++
			}
			continue
		}
		buf := g.vbufs[ci][:bn]
		switch sp.Kind {
		case Count:
			for i := range buf {
				if !buf[i].IsNull() {
					g.cells[int(g.ords[i])*nspec+s].N++
				}
			}
		case Sum, Avg:
			for i := range buf {
				v := buf[i]
				if v.IsNull() {
					continue
				}
				c := &g.cells[int(g.ords[i])*nspec+s]
				c.N++
				switch v.Type() {
				case storage.Float:
					c.F += v.Float()
					c.T = storage.Float
				case storage.Int:
					c.I += v.Int()
					if c.T != storage.Float {
						c.T = storage.Int
					}
				}
			}
		case Min:
			for i := range buf {
				v := buf[i]
				if v.IsNull() {
					continue
				}
				c := &g.cells[int(g.ords[i])*nspec+s]
				c.N++
				if c.N == 1 {
					c.V = v
				} else {
					m.AddCompare(1)
					if storage.Compare(v, c.V) < 0 {
						c.V = v
					}
				}
			}
		case Max:
			for i := range buf {
				v := buf[i]
				if v.IsNull() {
					continue
				}
				c := &g.cells[int(g.ords[i])*nspec+s]
				c.N++
				if c.N == 1 {
					c.V = v
				} else {
					m.AddCompare(1)
					if storage.Compare(v, c.V) > 0 {
						c.V = v
					}
				}
			}
		}
	}
}

// RunRange is the flat-table aggregation over rows [lo, hi) of list — the
// per-worker partial the parallel executor runs over its chunk. Its
// result carries each group's hash and key values, which is all
// MergePartition reads of it.
func (g *Grouper) RunRange(list *storage.TempList, lo, hi int, groupCols []int, specs []Spec, m *meter.Counters) Result {
	g.reset()
	n := hi - lo
	if n <= 0 {
		return g.result()
	}
	g.planCols(groupCols, specs)
	g.ensureSlots(n)
	g.startTable(n)
	g.runFlat(list, lo, hi, groupCols, specs, m)
	g.finishShared(len(specs))
	m.AddGroup(int64(len(g.reps)))
	return g.result()
}

// partitionOf is the merge partition, of parts, that a group of key hash
// h belongs to: the top 32 bits of h scaled to [0, parts), so any count
// works, not only powers of two, and the choice is independent of the
// low bits the probe tables index by.
func partitionOf(h uint64, parts int) int {
	return int((h >> 32) * uint64(parts) >> 32)
}

// MergePartition folds partition part (of parts, by partitionOf) of the
// worker partials into this grouper's table — one merger of the parallel
// executor's second phase; the parts mergers run concurrently, each on
// its own grouper. Partials are visited in slice order, the order of the
// chunks they cover, so a group's representative is its first occurrence
// in the input, as in a serial run. Group identity comes from each
// partial's cached hashes and key values (nkey per group); cells combine
// with Cell.Merge. No input row is read.
//
// The partials' group count in the partition bounds the merged groups, so
// the scratch is reserved once, and the probe table grows to at most that
// bound's size as groups appear. Partition 0's merger is the grouper
// Concat appends the other partitions to, so it reserves reps and cells
// for every partial group.
func (g *Grouper) MergePartition(partials []Result, part, parts, nkey int, specs []Spec, m *meter.Counters) Result {
	g.reset()
	nspec := len(specs)
	bound, all := 0, 0
	for i := range partials {
		all += len(partials[i].Hashes)
		for _, h := range partials[i].Hashes {
			if partitionOf(h, parts) == part {
				bound++
			}
		}
	}
	if bound == 0 {
		return g.result()
	}
	out := bound
	if part == 0 {
		out = all
	}
	g.reps = grow(g.reps, out)
	g.hashes = grow(g.hashes, bound)
	g.repkeys = grow(g.repkeys, bound*nkey)
	g.cells = grow(g.cells, out*nspec)
	g.ensureSlots(bound)
	g.startTable(bound)
	for i := range partials {
		p := &partials[i]
		for pg, h := range p.Hashes {
			if partitionOf(h, parts) != part {
				continue
			}
			key := p.Keys[pg*nkey : pg*nkey+nkey]
			src := p.Cells[pg*nspec : pg*nspec+nspec]
			mask := uint64(g.sz - 1)
			idx := h & mask
			for {
				m.AddAggProbe(1)
				s := g.slots[idx]
				if s == 0 {
					g.slots[idx] = int32(len(g.reps) + 1)
					g.reps = append(g.reps, p.Reps[pg])
					g.hashes = append(g.hashes, h)
					g.repkeys = append(g.repkeys, key...)
					g.cells = append(g.cells, src...)
					if 2*(len(g.reps)-g.ordBase) >= g.sz && g.sz < g.szMax {
						g.growTable(m)
					}
					break
				}
				ord := int(s - 1)
				if g.hashes[ord] == h && sameKey(g.repkeys[ord*nkey:ord*nkey+nkey], key, m) {
					dst := g.cells[ord*nspec : ord*nspec+nspec]
					for s := range dst {
						dst[s].Merge(specs[s].Kind, src[s], m)
					}
					break
				}
				idx = (idx + 1) & mask
			}
		}
	}
	m.AddGroup(int64(len(g.reps)))
	return g.result()
}

// sameKey compares two cached key vectors value by value.
func sameKey(a, b []storage.Value, m *meter.Counters) bool {
	for k := range a {
		m.AddCompare(1)
		if !storage.Equal(a[k], b[k]) {
			return false
		}
	}
	return true
}

// Concat joins merged partitions in partition order into one result:
// parts[0] must be the result of this grouper's last run, and the groups
// of parts[1:] are appended to its reps and cells. The returned Result
// carries Reps and Cells only.
func (g *Grouper) Concat(parts []Result, nspec int) Result {
	total := 0
	for _, p := range parts[1:] {
		total += p.Groups()
	}
	g.reps = grow(g.reps, total)
	g.cells = grow(g.cells, total*nspec)
	for _, p := range parts[1:] {
		g.reps = append(g.reps, p.Reps...)
		g.cells = append(g.cells, p.Cells...)
	}
	return Result{Reps: g.reps, Cells: g.cells}
}

// tableSize is the open-addressing table size for n keys: the smallest
// power of two ≥ 2n, so the load factor never exceeds 1/2 and linear
// probes stay short.
func tableSize(n int) int {
	sz := 1
	for sz < 2*n {
		sz <<= 1
	}
	return sz
}

// startTable opens a fresh probe table for up to n rows. The table is
// sized for the groups it will actually hold, not the rows that flow
// through it: it opens at most aggTableStart slots (L1-resident) and
// growTable doubles it as distinct groups appear. Sizing by input rows —
// the obvious choice — wastes a table: at 1M rows and 1k groups a
// row-sized table is 8MB of 99.9% empty slots, so every probe and the
// upfront clear are cache misses over dead memory.
func (g *Grouper) startTable(n int) {
	g.szMax = tableSize(n)
	g.sz = g.szMax
	if g.sz > aggTableStart {
		g.sz = aggTableStart
	}
	g.clearSlots(g.sz)
	g.ordBase = len(g.reps)
}

// aggTableStart is the initial probe-table size: 1024 int32 slots = 4KB.
const aggTableStart = 1024

// growTable doubles the active probe table and reinserts the current
// table's groups by their cached hashes — input rows are never rescanned,
// so a full growth ladder costs O(groups · log groups) slot writes total.
func (g *Grouper) growTable(m *meter.Counters) {
	g.sz *= 2
	g.clearSlots(g.sz)
	mask := uint64(g.sz - 1)
	for ord := g.ordBase; ord < len(g.reps); ord++ {
		idx := g.hashes[ord] & mask
		for g.slots[idx] != 0 {
			m.AddAggProbe(1)
			idx = (idx + 1) & mask
		}
		g.slots[idx] = int32(ord + 1)
	}
	m.AddMove(int64(len(g.reps) - g.ordBase))
}

func (g *Grouper) ensureSlots(maxRows int) {
	if need := tableSize(maxRows); cap(g.slots) < need {
		g.slots = make([]int32, need)
	}
}

func (g *Grouper) clearSlots(sz int) {
	s := g.slots[:sz]
	for i := range s {
		s[i] = 0
	}
}

// appendZeroCells extends cells by n zeroed entries, reusing capacity.
func appendZeroCells(cells []Cell, n int) []Cell {
	cells = grow(cells, n)
	cells = cells[:len(cells)+n]
	clear(cells[len(cells)-n:])
	return cells
}

// grow returns s with room for n more elements. When it must reallocate it
// at least doubles the capacity, so scratch appended one group at a time
// costs O(log groups) allocations and under twice its final size, where
// append's growth, 1.25× for large slices, would copy it many more times.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	t := make([]T, len(s), max(len(s)+n, 2*cap(s)))
	copy(t, s)
	return t
}

// NaiveMapAgg is the baseline the bench experiment compares against: the
// straightforward Go implementation — a map keyed by the stringified
// group key, one heap-allocated state slice per group, first-occurrence
// group order. It produces the same Result shape (with a private backing
// array, not pooled scratch) so output identity can be asserted against
// the vectorized path.
func NaiveMapAgg(list *storage.TempList, groupCols []int, specs []Spec, m *meter.Counters) Result {
	nspec := len(specs)
	type group struct{ ord int }
	seen := make(map[string]group)
	var reps []int32
	var cells []Cell
	var keybuf []byte
	n := list.Len()
	for i := 0; i < n; i++ {
		keybuf = keybuf[:0]
		for _, c := range groupCols {
			keybuf = appendValueKey(keybuf, list.Value(i, c))
		}
		m.AddHash(1)
		gr, ok := seen[string(keybuf)]
		if !ok {
			gr = group{ord: len(reps)}
			seen[string(keybuf)] = gr
			reps = append(reps, int32(i))
			cells = appendZeroCells(cells, nspec)
		}
		base := gr.ord * nspec
		for s := range specs {
			sp := &specs[s]
			c := &cells[base+s]
			if sp.Col < 0 {
				c.N++
				continue
			}
			v := list.Value(i, sp.Col)
			if v.IsNull() {
				continue
			}
			c.N++
			c.absorb(sp.Kind, v, m)
		}
	}
	m.AddGroup(int64(len(reps)))
	return Result{Reps: reps, Cells: cells}
}

// appendValueKey encodes one value for the naive path's map key: a type
// tag plus the value's distinguishing bytes. Only equality matters here,
// so no order preservation is needed — but the tag keeps 1 and "1"
// distinct.
func appendValueKey(b []byte, v storage.Value) []byte {
	b = append(b, byte(v.Type()))
	switch v.Type() {
	case storage.Str:
		b = append(b, v.Str()...)
		b = append(b, 0)
	case storage.Null:
	default:
		u := storage.Hash(v)
		b = append(b, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32), byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return b
}

// Names names a grouped output's columns: the group keys, then the
// aggregates, each made unique by a _2, _3, … suffix ("col" when empty).
func Names(keys []string, specs []Spec) []string {
	names := make([]string, 0, len(keys)+len(specs))
	used := make(map[string]bool, cap(names))
	add := func(n string) {
		if n == "" {
			n = "col"
		}
		base, k := n, 2
		for used[n] {
			n = fmt.Sprintf("%s_%d", base, k)
			k++
		}
		used[n] = true
		names = append(names, n)
	}
	for _, n := range keys {
		add(n)
	}
	for _, s := range specs {
		add(s.Name)
	}
	return names
}

// emitBatch is how many key values Emit gathers at a time.
const emitBatch = 256

// Emit builds the aggregation's output from the working list it ran over:
// one row per group — the group's representative input row, taken from
// work by res.Reps over work's sources — whose columns are all computed:
// the group keys first, then one per aggregate holding Final of its cell,
// named by names (Names over the keys and specs). Nothing is inserted
// anywhere, and the output names no relation of its own.
//
// Keys are copied into their vectors rather than read through the
// representative tuple: a locked-path result points at live tuples, and
// a later UPDATE of a key would otherwise drift away from the aggregates
// computed under it. A held grouped result reads the same forever.
//
// Global aggregation (no group columns) over empty input still yields one
// row, per SQL: COUNT 0, the rest NULL. It has no representative, so its
// row pointers are nil; no column reads through them.
func Emit(work *storage.TempList, groupCols []int, specs []Spec, names []string, res Result) *storage.TempList {
	out := work.Take(res.Reps)
	groups := res.Groups()
	if len(groupCols) == 0 && groups == 0 {
		out.Append(make(storage.Row, out.Arity()))
		groups = 1
		res.Cells = make([]Cell, len(specs))
	}
	nspec := len(specs)
	cols := out.AddComputed(names...)
	// Keys are gathered a batch at a time, never through a group-sized
	// buffer of values.
	var buf [emitBatch]storage.Value
	for k, c := range groupCols {
		f := cols[k].Field
		for lo := 0; lo < groups; lo += emitBatch {
			b := buf[:min(emitBatch, groups-lo)]
			work.GatherColumnRows(c, res.Reps[lo:lo+len(b)], b)
			for j, v := range b {
				out.SetComputed(f, lo+j, v)
			}
		}
	}
	for s := range specs {
		f := cols[len(groupCols)+s].Field
		for g := 0; g < groups; g++ {
			out.SetComputed(f, g, Final(specs[s].Kind, res.Cells[g*nspec+s]))
		}
	}
	return out.Redescribe(storage.Descriptor{Sources: work.Descriptor().Sources, Cols: cols})
}
