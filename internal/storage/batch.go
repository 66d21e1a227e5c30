package storage

import "sync"

// Batch-at-a-time execution support. Lehman & Carey's cost model (§3.1)
// prices comparisons and data movement; on modern hardware data movement
// means cache misses and allocator traffic. Operators therefore move
// tuple pointers in fixed-size blocks — a TupleBatch — instead of one
// indirect callback per tuple, and temporary lists are backed by chunked,
// pool-recycled arena segments (see templist.go) so the emit hot path
// performs no per-row allocation and no regrow-copy.

// BatchSize is the number of tuple pointers per block: 256 pointers is
// 2 KiB on a 64-bit layout — a handful of cache lines, small enough to
// stay L1/L2-resident while an operator's inner loop runs over it, large
// enough to amortize the per-block dispatch to ~1/256 of a call per
// tuple. TempList chunks hold the same number of rows so a list chunk
// can serve directly as a scan block for single-source lists.
const BatchSize = 256

// TupleBatch is a block of tuple pointers — the unit operators hand
// around in batch-at-a-time execution. It is a plain slice: append to it,
// range over it, subslice it. Use GetBatch/PutBatch to recycle backing
// arrays through a pool instead of allocating per operator.
type TupleBatch = []*Tuple

// Pooled blocks travel through their sync.Pool as array pointers: a
// pointer fits the pool's interface word, so neither Get nor Put
// allocates (a *[]*Tuple would cost one slice header per Put).

// batchPool recycles BatchSize-capacity tuple-pointer blocks.
var batchPool = sync.Pool{New: func() any { return new([BatchSize]*Tuple) }}

// GetBatch returns an empty batch with capacity BatchSize from the pool.
// Release it with PutBatch when the operator finishes.
func GetBatch() TupleBatch {
	return batchPool.Get().(*[BatchSize]*Tuple)[:0]
}

// PutBatch clears b (so pooled blocks do not pin dead tuples) and returns
// its backing array to the pool. Only full-capacity blocks are pooled;
// odd-sized slices are left for the GC.
func PutBatch(b TupleBatch) {
	if cap(b) != BatchSize {
		return
	}
	a := (*[BatchSize]*Tuple)(b[:BatchSize])
	clear(a[:])
	batchPool.Put(a)
}

// chunkPools recycles TempList arena chunks, one pool per source arity
// (the overwhelmingly common cases are 1 — selections — and 2 — two-way
// joins). Each pooled chunk holds ChunkRows rows = ChunkRows*arity tuple
// pointers. Wider arities fall through to plain allocation.
var chunkPools = [4]sync.Pool{
	{New: func() any { return new([1 * ChunkRows]*Tuple) }},
	{New: func() any { return new([2 * ChunkRows]*Tuple) }},
	{New: func() any { return new([3 * ChunkRows]*Tuple) }},
	{New: func() any { return new([4 * ChunkRows]*Tuple) }},
}

// getChunk returns an empty full-size chunk for the given arity.
func getChunk(arity int) []*Tuple {
	switch arity {
	case 1:
		return chunkPools[0].Get().(*[1 * ChunkRows]*Tuple)[:0]
	case 2:
		return chunkPools[1].Get().(*[2 * ChunkRows]*Tuple)[:0]
	case 3:
		return chunkPools[2].Get().(*[3 * ChunkRows]*Tuple)[:0]
	case 4:
		return chunkPools[3].Get().(*[4 * ChunkRows]*Tuple)[:0]
	}
	return make([]*Tuple, 0, ChunkRows*arity)
}

// putChunk clears a chunk and returns it to its arity pool. Chunks that
// are not full-size (the exact-fit chunks small CapacityHints allocate)
// are left for the GC — pooling them would poison the pool with short
// blocks.
func putChunk(c []*Tuple, arity int) {
	if arity < 1 || arity > len(chunkPools) || cap(c) != ChunkRows*arity {
		return
	}
	c = c[:cap(c)]
	clear(c)
	switch arity { // the array type is the pool's; see getChunk
	case 1:
		chunkPools[0].Put((*[1 * ChunkRows]*Tuple)(c))
	case 2:
		chunkPools[1].Put((*[2 * ChunkRows]*Tuple)(c))
	case 3:
		chunkPools[2].Put((*[3 * ChunkRows]*Tuple)(c))
	case 4:
		chunkPools[3].Put((*[4 * ChunkRows]*Tuple)(c))
	}
}
