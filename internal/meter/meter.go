// Package meter provides lightweight operation counters.
//
// Lehman and Carey validated their implementations by "recording and
// examining the number of comparisons, the amount of data movement, the
// number of hash function calls, and other miscellaneous operations"
// (§3.1). This package is the equivalent instrumentation: index structures
// and query operators increment a Counters value so tests can assert that
// an algorithm does exactly the work it is supposed to do — neither more
// nor less. Counters are plain integer fields; incrementing a nil *Counters
// is legal and free, which is the moral equivalent of the paper compiling
// the counters out for the timed runs.
//
// Concurrency contract: a plain Counters value is single-goroutine — the
// goroutine executing an operator owns its Counters exclusively for that
// operator's lifetime. Operators that can run under concurrent readers
// must either receive a private Counters per execution (the query layer
// does this) or roll results into a SharedCounters, the atomic sibling
// with the same Add* API, which the obs registry uses as its engine-wide
// §3.1 accumulator. The partition-parallel executor follows the same
// rule per worker: every worker accumulates into a private Counters,
// folds it into one SharedCounters when it finishes, and the operator
// adds the folded snapshot to the caller's Counters after all workers
// join — so a parallel operator reports its total §3.1 work exactly the
// way a serial one does.
package meter

import "fmt"

// Counters accumulates the operation counts the paper tracked, plus the
// cache-conscious extensions (batch handoffs and radix partitioning work)
// the modern operators report through the same channel.
type Counters struct {
	Comparisons  int64 // key/value comparisons
	DataMoves    int64 // element copies or shifts (slots moved)
	HashCalls    int64 // hash function evaluations
	NodesVisited int64 // index nodes touched
	Allocations  int64 // nodes or buckets allocated
	Rotations    int64 // tree rebalance rotations
	Batches      int64 // tuple-pointer blocks handed between operators
	RadixPasses  int64 // radix partitioning passes executed
	Partitions   int64 // radix partitions produced (fan-out total)
	SortPasses   int64 // radix-sort scatter passes executed
	SortRuns     int64 // comparator-sorted runs (small runs + tie-breaks)
	KeyBytes     int64 // normalized sort-key bytes encoded
	Groups       int64 // distinct groups produced by grouped aggregation
	AggProbes    int64 // agg-table probe steps (open-addressing slot visits)
	HeapPushes   int64 // bounded top-k heap insertions (sift operations)
	HashProbes   int64 // radix.Table build steps (slot visits and chain links)
}

// AddCompare records n comparisons. Safe on a nil receiver.
func (c *Counters) AddCompare(n int64) {
	if c != nil {
		c.Comparisons += n
	}
}

// AddMove records n element moves. Safe on a nil receiver.
func (c *Counters) AddMove(n int64) {
	if c != nil {
		c.DataMoves += n
	}
}

// AddHash records n hash-function calls. Safe on a nil receiver.
func (c *Counters) AddHash(n int64) {
	if c != nil {
		c.HashCalls += n
	}
}

// AddNode records n node visits. Safe on a nil receiver.
func (c *Counters) AddNode(n int64) {
	if c != nil {
		c.NodesVisited += n
	}
}

// AddAlloc records n structure allocations. Safe on a nil receiver.
func (c *Counters) AddAlloc(n int64) {
	if c != nil {
		c.Allocations += n
	}
}

// AddRotation records n rebalance rotations. Safe on a nil receiver.
func (c *Counters) AddRotation(n int64) {
	if c != nil {
		c.Rotations += n
	}
}

// AddBatch records n tuple-batch handoffs. Batch-at-a-time operators
// count one batch per block of tuple pointers moved between stages, so
// Batches/DataMoves exposes the amortization factor the batch layer buys.
// Safe on a nil receiver.
func (c *Counters) AddBatch(n int64) {
	if c != nil {
		c.Batches += n
	}
}

// AddRadixPass records n radix partitioning passes. Each pass streams
// every input entry through the write-combining scatter once, so
// RadixPasses×rows approximates the data movement the radix kernel adds
// in exchange for cache-resident build tables. Safe on a nil receiver.
func (c *Counters) AddRadixPass(n int64) {
	if c != nil {
		c.RadixPasses += n
	}
}

// AddPartition records n radix partitions produced. Safe on a nil
// receiver.
func (c *Counters) AddPartition(n int64) {
	if c != nil {
		c.Partitions += n
	}
}

// AddSortPass records n radix-sort scatter passes. Each pass streams one
// key range through the write-combining scatter once, so SortPasses×rows
// approximates the extra sequential data movement the normalized-key sort
// trades for the comparator calls it removes. Safe on a nil receiver.
func (c *Counters) AddSortPass(n int64) {
	if c != nil {
		c.SortPasses += n
	}
}

// AddSortRun records n comparator-sorted runs: short partitions the MSD
// radix sort hands to insertion/quicksort, plus equal-prefix runs that
// needed a comparator tie-break. Safe on a nil receiver.
func (c *Counters) AddSortRun(n int64) {
	if c != nil {
		c.SortRuns += n
	}
}

// AddKeyBytes records n bytes of normalized sort keys encoded. Safe on a
// nil receiver.
func (c *Counters) AddKeyBytes(n int64) {
	if c != nil {
		c.KeyBytes += n
	}
}

// AddGroup records n distinct groups produced by a grouped aggregation.
// Safe on a nil receiver.
func (c *Counters) AddGroup(n int64) {
	if c != nil {
		c.Groups += n
	}
}

// AddAggProbe records n open-addressing probe steps in an aggregation
// table: one per slot visited while locating a group, so AggProbes/rows
// exposes the table's effective load factor the way the paper's hash
// counts exposed chain length. Safe on a nil receiver.
func (c *Counters) AddAggProbe(n int64) {
	if c != nil {
		c.AggProbes += n
	}
}

// AddHeapPush records n bounded-heap insertions performed by a top-k
// operator: each is one sift through a k-element heap, so HeapPushes
// against rows-in exposes how much of the input survived the heap's
// threshold cutoff. Safe on a nil receiver.
func (c *Counters) AddHeapPush(n int64) {
	if c != nil {
		c.HeapPushes += n
	}
}

// AddHashProbe records n build steps of a flat join table
// (radix.Table.InsertSteps): one per slot visited and one per duplicate
// linked onto a chain, so HashProbes/build rows stays near 1.5 however
// skewed the build keys are. Safe on a nil receiver.
func (c *Counters) AddHashProbe(n int64) {
	if c != nil {
		c.HashProbes += n
	}
}

// Reset zeroes every counter. Safe on a nil receiver.
func (c *Counters) Reset() {
	if c != nil {
		*c = Counters{}
	}
}

// Add accumulates other into c. Safe on a nil receiver.
func (c *Counters) Add(other Counters) {
	if c == nil {
		return
	}
	c.Comparisons += other.Comparisons
	c.DataMoves += other.DataMoves
	c.HashCalls += other.HashCalls
	c.NodesVisited += other.NodesVisited
	c.Allocations += other.Allocations
	c.Rotations += other.Rotations
	c.Batches += other.Batches
	c.RadixPasses += other.RadixPasses
	c.Partitions += other.Partitions
	c.SortPasses += other.SortPasses
	c.SortRuns += other.SortRuns
	c.KeyBytes += other.KeyBytes
	c.Groups += other.Groups
	c.AggProbes += other.AggProbes
	c.HeapPushes += other.HeapPushes
	c.HashProbes += other.HashProbes
}

// String renders the counters in a compact single line.
func (c *Counters) String() string {
	if c == nil {
		return "meter(nil)"
	}
	return fmt.Sprintf("cmp=%d move=%d hash=%d node=%d alloc=%d rot=%d batch=%d rpass=%d part=%d spass=%d srun=%d keyB=%d grp=%d aprobe=%d hpush=%d",
		c.Comparisons, c.DataMoves, c.HashCalls, c.NodesVisited, c.Allocations, c.Rotations, c.Batches,
		c.RadixPasses, c.Partitions, c.SortPasses, c.SortRuns, c.KeyBytes, c.Groups, c.AggProbes, c.HeapPushes)
}
