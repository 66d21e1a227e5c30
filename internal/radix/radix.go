// Package radix is the cache-conscious partitioning kernel under the
// radix hash join and radix DISTINCT operators. Lehman & Carey's cost
// model (§3.1) prices comparisons and data movement; on modern hardware
// the dominant "movement" cost is cache and TLB misses, and the paper's
// chained-bucket hash join pointer-chases a cold heap node on every
// probe once the build table outgrows L2. Multi-pass radix partitioning
// (Cooperman et al.'s cache-efficient sort/join accelerators; Albutiu et
// al.'s MPSM partition-local processing) turns that random traffic into
// sequential streams: both inputs are scattered into partitions by bits
// of the join-key hash, each partition is small enough that a compact
// open-addressing table over it stays L2-resident, and every downstream
// access walks memory the scatter just wrote.
//
// The kernel is histogram-then-scatter: one counting pass sizes every
// partition exactly (outputs are exact-fit — no regrow-copy, ever),
// a prefix sum turns counts into write cursors, and the scatter pass
// stages entries in per-partition write-combining blocks of WCBlock
// entries, flushing each block with a single whole-cache-line copy when
// it fills. The scatter therefore issues one streaming write per
// partition per WCBlock entries instead of one random write per entry —
// the software write-combining trick from the radix-join literature.
// Multi-pass plans refine partitions most-significant-bits first, so no
// pass fans out wider than its write-combining buffers and TLB reach
// allow; the scatter is stable, so entries within a final partition keep
// their input order (the radix DISTINCT relies on this for
// first-occurrence semantics).
//
// Partitioner scratch (histograms, cursors, write-combining blocks, the
// input array handed out by Entries, the ping-pong buffer) is recycled
// through sync.Pool: a warmed partitioner fills and partitions an input
// with zero heap allocations.
package radix

import (
	"sync"

	"repro/internal/meter"
	"repro/internal/storage"
)

// WCBlock is the write-combining staging block: 64 entries per partition
// are gathered in a dense per-partition block and flushed with one copy
// when full. At 16 bytes per entry a block is 1 KiB — 16 cache lines
// written sequentially — so the scatter's random traffic is confined to
// the (cache-resident) staging area while main-memory writes stream.
const WCBlock = 64

// MaxBits caps a plan's total radix width: 2^16 partitions is already
// far past the point where per-partition bookkeeping dominates.
const MaxBits = 16

// Entry is one element of a partitioning run: a precomputed 64-bit key
// hash and an opaque payload (a tuple pointer for joins, a row index for
// DISTINCT). Partitioning consumes only H, so the payload is a type
// parameter and the kernel compiles to a tight loop for each shape.
type Entry[P any] struct {
	H uint64 // 64-bit key hash (storage.Hash / exec.KeyHash)
	P P      // payload carried alongside the hash
}

// TupleEntry is the join instantiation: hash plus tuple pointer.
type TupleEntry = Entry[*storage.Tuple]

// RowEntry is the DISTINCT instantiation: hash plus temp-list row index.
type RowEntry = Entry[int32]

// Plan is a multi-pass partitioning plan: Bits[k] is the radix width of
// pass k, most significant bits first. The partition index of an entry
// is the top TotalBits() bits of its hash — the high half, so the low
// bits stay random for the open-addressing tables (which mask with low
// bits) and decorrelated from the parallel executor's partition routing.
type Plan struct {
	Bits []uint
}

// TotalBits sums the per-pass widths.
func (p Plan) TotalBits() uint {
	var t uint
	for _, b := range p.Bits {
		t += b
	}
	return t
}

// Fanout is the final partition count, 2^TotalBits.
func (p Plan) Fanout() int { return 1 << p.TotalBits() }

// Passes is the number of scatter passes.
func (p Plan) Passes() int { return len(p.Bits) }

// Stats summarizes one partitioning run for traces and EXPLAIN ANALYZE.
type Stats struct {
	Passes  int // scatter passes executed
	Fanout  int // final partition count
	Rows    int // entries partitioned
	MaxPart int // largest final partition

	// Defense counters filled in by the budgeted join (zero on the
	// unbudgeted path): fat partitions recursively re-split because
	// their table would not fit the memory grant, and partition pairs
	// whose build/probe roles were reversed because the forecast build
	// side turned out larger after partitioning.
	Repartitions int
	Reversed     int
}

// StatsOf derives Stats from a plan and the partition offsets a
// Partition call returned.
func StatsOf(pl Plan, offs []int) Stats {
	s := Stats{Passes: pl.Passes(), Fanout: pl.Fanout()}
	for i := 0; i+1 < len(offs); i++ {
		n := offs[i+1] - offs[i]
		s.Rows += n
		if n > s.MaxPart {
			s.MaxPart = n
		}
	}
	return s
}

// Skew is the largest partition relative to the mean (1.0 = perfectly
// balanced; Fanout = everything landed in one partition). 0 when empty.
func (s Stats) Skew() float64 {
	if s.Rows == 0 || s.Fanout == 0 {
		return 0
	}
	mean := float64(s.Rows) / float64(s.Fanout)
	return float64(s.MaxPart) / mean
}

// SlotBytes is the slot array of a Table over n entries: the smallest
// power of two ≥ 2n (min 8) slots of 16 bytes each. It is all a
// duplicate-free build holds.
func SlotBytes(n int) int64 {
	need := 8
	for need < 2*n {
		need <<= 1
	}
	return int64(need) * 16
}

// TableBytes bounds the memory a Table over n entries holds, whatever
// share of them repeat a key: the slot array, plus, from the first
// duplicate on, an 8-byte chain header per slot and a 16-byte side entry
// per later entry, of which there are fewer than slots/2 (growDups never
// sizes the side array past that). Per slot that is 16 + 8 + 16/2 bytes,
// twice the slot array. This is the quantity the budgeted join grants
// before every partition build.
func TableBytes(n int) int64 {
	return 2 * SlotBytes(n)
}

// Partitioner holds the kernel's reusable scratch: per-pass histogram
// and cursor arrays, the write-combining staging area, the input array
// Entries hands out, the ping-pong output buffer, and two
// partition-boundary arrays. All of it grows to the largest plan/input
// seen and is then reused allocation-free; Get/Put recycle whole
// partitioners through a pool.
type Partitioner[P any] struct {
	hist []int      // per-pass partition counts
	cur  []int      // per-pass write cursors
	wcn  []int      // write-combining fill counts
	wc   []Entry[P] // write-combining staging, fanout×WCBlock entries
	in   []Entry[P] // input array handed out by Entries
	buf  []Entry[P] // ping-pong scatter buffer, len(input) entries
	bndA []int      // partition boundaries (ping)
	bndB []int      // partition boundaries (pong)
}

// Entries returns the partitioner's own input array, resized to n
// entries, for the caller to fill and pass to Partition: the scatter then
// ping-pongs between two arrays the partitioner owns, and a warm pooled
// partitioner hands out a join side's entries without allocating. The
// contents are stale until overwritten; the slice stays valid until Put.
func (p *Partitioner[P]) Entries(n int) []Entry[P] {
	if cap(p.in) < n {
		p.in = make([]Entry[P], n)
	}
	return p.in[:n]
}

// ensure grows the scratch for the given plan and input size.
func (p *Partitioner[P]) ensure(pl Plan, n int) {
	maxF := 1
	for _, b := range pl.Bits {
		if f := 1 << b; f > maxF {
			maxF = f
		}
	}
	if cap(p.hist) < maxF {
		p.hist = make([]int, maxF)
		p.cur = make([]int, maxF)
		p.wcn = make([]int, maxF)
	}
	if cap(p.wc) < maxF*WCBlock {
		p.wc = make([]Entry[P], maxF*WCBlock)
	}
	if cap(p.buf) < n {
		p.buf = make([]Entry[P], n)
	}
	if need := pl.Fanout() + 1; cap(p.bndA) < need {
		p.bndA = make([]int, 0, need)
		p.bndB = make([]int, 0, need)
	}
}

// Partition scatters entries into the plan's 2^TotalBits partitions and
// returns the partitioned layout plus Fanout()+1 boundary offsets:
// partition i is result[offs[i]:offs[i+1]]. The scatter is stable —
// entries within a partition keep their input order. The returned slices
// alias either the input or the partitioner's internal buffer and stay
// valid until the next Partition call or Put on this partitioner; the
// input slice's order is clobbered either way (the kernel ping-pongs
// between the two buffers). The input may be the caller's own slice or
// the one Entries returned; with the latter both buffers are pooled.
//
// Each pass is metered as one RadixPass and one DataMove per entry; the
// final fanout is metered as Partitions. A nil meter is free.
func (p *Partitioner[P]) Partition(entries []Entry[P], pl Plan, m *meter.Counters) ([]Entry[P], []int) {
	return p.PartitionFrom(entries, pl, 0, m)
}

// PartitionFrom is Partition with the radix digits taken below the top
// `skip` hash bits: pass k of the plan consumes bits
// [64-skip-cum(k) .. 64-skip-cum(k-1)). It is the recursive-repartition
// entry point — a fat partition produced by a skip=0 run over B bits has
// identical top-B hash bits throughout, so re-splitting it with
// skip=B+… consumes the next-finer digits and refines it in place. A
// skip of 0 is exactly Partition.
func (p *Partitioner[P]) PartitionFrom(entries []Entry[P], pl Plan, skip uint, m *meter.Counters) ([]Entry[P], []int) {
	if pl.TotalBits() > MaxBits {
		panic("radix: plan exceeds MaxBits")
	}
	if skip+pl.TotalBits() > 64 {
		panic("radix: skip + plan exceeds hash width")
	}
	n := len(entries)
	p.ensure(pl, n)
	fanout := pl.Fanout()
	if pl.Passes() == 0 || fanout <= 1 || n == 0 {
		// Degenerate: one partition (or nothing). Boundaries are all
		// zeros followed by n so callers can still index every partition.
		bnd := p.bndA[:0]
		for i := 0; i < fanout; i++ {
			bnd = append(bnd, 0)
		}
		bnd = append(bnd, n)
		p.bndA = bnd
		return entries, bnd
	}

	src, dst := entries, p.buf[:n]
	cur := append(p.bndA[:0], 0, n)
	next := p.bndB
	var cum uint
	for _, b := range pl.Bits {
		cum += b
		f := 1 << b
		shift := 64 - skip - cum
		mask := uint64(f - 1)
		next = next[:0]
		for j := 0; j+1 < len(cur); j++ {
			next = p.scatter(src, dst, cur[j], cur[j+1], shift, mask, f, next)
		}
		next = append(next, n)
		cur, next = next, cur
		src, dst = dst, src
		m.AddRadixPass(1)
		m.AddMove(int64(n))
	}
	p.bndA, p.bndB = cur[:len(cur):cap(cur)], next[:0:cap(next)]
	m.AddPartition(int64(fanout))
	return src, cur
}

// scatter partitions src[lo:hi] into dst[lo:hi] on (H>>shift)&mask:
// histogram, prefix-sum into exact write cursors (appending each child
// partition's start to bounds), then a stable scatter through the
// write-combining blocks — full blocks flush as one sequential copy.
func (p *Partitioner[P]) scatter(src, dst []Entry[P], lo, hi int, shift uint, mask uint64, f int, bounds []int) []int {
	hist := p.hist[:f]
	for i := range hist {
		hist[i] = 0
	}
	seg := src[lo:hi]
	for i := range seg {
		hist[(seg[i].H>>shift)&mask]++
	}
	curs := p.cur[:f]
	pos := lo
	for c := 0; c < f; c++ {
		bounds = append(bounds, pos)
		curs[c] = pos
		pos += hist[c]
	}
	wcn := p.wcn[:f]
	for i := range wcn {
		wcn[i] = 0
	}
	wc := p.wc
	for i := range seg {
		c := int((seg[i].H >> shift) & mask)
		base := c * WCBlock
		wc[base+wcn[c]] = seg[i]
		wcn[c]++
		if wcn[c] == WCBlock {
			copy(dst[curs[c]:curs[c]+WCBlock], wc[base:base+WCBlock])
			curs[c] += WCBlock
			wcn[c] = 0
		}
	}
	for c := 0; c < f; c++ {
		if k := wcn[c]; k > 0 {
			base := c * WCBlock
			copy(dst[curs[c]:curs[c]+k], wc[base:base+k])
			curs[c] += k
		}
	}
	return bounds
}

// Pools. One pool per payload shape so Get returns ready-typed scratch;
// Put drops any payload pointers so a pooled partitioner never pins dead
// tuples across queries.

var tuplePartPool = sync.Pool{New: func() any { return new(Partitioner[*storage.Tuple]) }}
var rowPartPool = sync.Pool{New: func() any { return new(Partitioner[int32]) }}

// GetTuplePartitioner returns a pooled partitioner for join entries.
func GetTuplePartitioner() *Partitioner[*storage.Tuple] {
	return tuplePartPool.Get().(*Partitioner[*storage.Tuple])
}

// PutTuplePartitioner clears the tuple pointers held in the staging,
// input and ping-pong buffers and recycles the partitioner.
func PutTuplePartitioner(p *Partitioner[*storage.Tuple]) {
	clear(p.wc)
	clear(p.in[:cap(p.in)])
	clear(p.buf[:cap(p.buf)])
	tuplePartPool.Put(p)
}

// GetRowPartitioner returns a pooled partitioner for row-index entries.
func GetRowPartitioner() *Partitioner[int32] {
	return rowPartPool.Get().(*Partitioner[int32])
}

// PutRowPartitioner recycles a row-index partitioner (no pointers to
// clear).
func PutRowPartitioner(p *Partitioner[int32]) {
	rowPartPool.Put(p)
}
