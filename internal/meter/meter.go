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
// Counters.At is the one list of the counters: String loops over it, and
// so do the registry's deltas, the trace's counter list and the metrics
// exposition in internal/obs. Add reads the struct as an array of its
// NumFields counters. A new counter is a struct field, its Add* method
// and one row of At.
//
// Concurrency contract: a Counters value is single-goroutine — the
// goroutine executing an operator owns its Counters exclusively for that
// operator's lifetime. Operators that can run under concurrent readers
// receive a private Counters per execution (the query layer does this),
// and the partition-parallel executor gives every worker a private
// Counters and adds them into the caller's after the workers join, so a
// parallel operator reports its total §3.1 work exactly the way a serial
// one does. The obs registry folds each finished query's Counters into
// its engine-wide total under a mutex.
package meter

import (
	"strconv"
	"strings"
	"unsafe"
)

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

// Field names one counter: its trace name, as in "cmp=12", and its
// Prometheus series and help text.
type Field struct {
	Name, Prom, Help string
}

// NumFields is the number of counters in Counters.
const NumFields = 16

// At is the counter table: row i, 0 ≤ i < NumFields, is the i-th field
// of Counters in declaration order — where it lives in c, and its names.
// It returns a pointer into c rather than calling a function stored in a
// table, so a caller's Counters stays on its stack.
func (c *Counters) At(i int) (*int64, Field) {
	switch i {
	case 0:
		return &c.Comparisons, Field{"cmp", "mmdb_ops_comparisons_total", "Key/value comparisons (paper §3.1)."}
	case 1:
		return &c.DataMoves, Field{"move", "mmdb_ops_data_moves_total", "Element copies or shifts (paper §3.1)."}
	case 2:
		return &c.HashCalls, Field{"hash", "mmdb_ops_hash_calls_total", "Hash function evaluations (paper §3.1)."}
	case 3:
		return &c.NodesVisited, Field{"node", "mmdb_ops_nodes_visited_total", "Index nodes touched (paper §3.1)."}
	case 4:
		return &c.Allocations, Field{"alloc", "mmdb_ops_allocations_total", "Index nodes or buckets allocated (paper §3.1)."}
	case 5:
		return &c.Rotations, Field{"rot", "mmdb_ops_rotations_total", "Tree rebalance rotations (paper §3.1)."}
	case 6:
		return &c.Batches, Field{"batch", "mmdb_ops_batches_total", "Tuple-pointer batches handed between operators."}
	case 7:
		return &c.RadixPasses, Field{"rpass", "mmdb_ops_radix_passes_total", "Radix partitioning passes executed."}
	case 8:
		return &c.Partitions, Field{"part", "mmdb_ops_partitions_total", "Radix partitions produced (fan-out total)."}
	case 9:
		return &c.SortPasses, Field{"spass", "mmdb_ops_sort_passes_total", "Radix-sort scatter passes executed."}
	case 10:
		return &c.SortRuns, Field{"srun", "mmdb_ops_sort_runs_total", "Comparator-sorted runs (small runs and tie-breaks)."}
	case 11:
		return &c.KeyBytes, Field{"keyB", "mmdb_ops_key_bytes_total", "Normalized sort-key bytes encoded."}
	case 12:
		return &c.Groups, Field{"grp", "mmdb_ops_groups_total", "Distinct groups produced by grouped aggregation."}
	case 13:
		return &c.AggProbes, Field{"aprobe", "mmdb_ops_agg_probes_total", "Aggregation-table probe steps (slot visits)."}
	case 14:
		return &c.HeapPushes, Field{"hpush", "mmdb_ops_heap_pushes_total", "Bounded top-k heap insertions."}
	case 15:
		return &c.HashProbes, Field{"hprobe", "mmdb_ops_hash_probes_total", "Flat join-table build steps (slot visits and chain links)."}
	}
	panic("meter: no counter " + strconv.Itoa(i))
}

// counterArray is Counters as the array of its NumFields int64 fields, in
// declaration order: the layout Go gives a struct of int64 fields alone.
type counterArray = [NumFields]int64

// The conversions in Add are sound only while Counters is exactly its
// NumFields int64 fields; a field of another size fails this line.
var _ = [1]struct{}{}[unsafe.Sizeof(Counters{})-unsafe.Sizeof(counterArray{})]

// Add accumulates other into c, one loop over the counters as an array.
// Safe on a nil receiver.
func (c *Counters) Add(other Counters) {
	if c == nil {
		return
	}
	dst, src := (*counterArray)(unsafe.Pointer(c)), (*counterArray)(unsafe.Pointer(&other))
	for i := range dst {
		dst[i] += src[i]
	}
}

// String renders every counter on one line, "cmp=1 move=0 …", in table
// order.
func (c *Counters) String() string {
	if c == nil {
		return "meter(nil)"
	}
	parts := make([]string, NumFields)
	for i := range parts {
		p, f := c.At(i)
		parts[i] = f.Name + "=" + strconv.FormatInt(*p, 10)
	}
	return strings.Join(parts, " ")
}
