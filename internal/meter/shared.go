package meter

import "sync/atomic"

// SharedCounters is the thread-safe sibling of Counters: the same six §3.1
// operation counts, each backed by an atomic, so concurrent query
// executions can roll their per-query Counters into one engine-wide
// accumulator (the obs registry's rollup). The plain Counters struct stays
// the per-operator hot-path instrument — a single goroutine owns it for
// the duration of one operator — and SharedCounters is the aggregation
// point those private counters are folded into when the operator
// finishes.
//
// All methods are safe on a nil receiver, mirroring Counters: a nil
// *SharedCounters is the disabled registry's zero-cost no-op.
type SharedCounters struct {
	comparisons  atomic.Int64
	dataMoves    atomic.Int64
	hashCalls    atomic.Int64
	nodesVisited atomic.Int64
	allocations  atomic.Int64
	rotations    atomic.Int64
	batches      atomic.Int64
	radixPasses  atomic.Int64
	partitions   atomic.Int64
	sortPasses   atomic.Int64
	sortRuns     atomic.Int64
	keyBytes     atomic.Int64
	groups       atomic.Int64
	aggProbes    atomic.Int64
	heapPushes   atomic.Int64
	hashProbes   atomic.Int64
}

// AddCompare records n comparisons. Safe on a nil receiver.
func (c *SharedCounters) AddCompare(n int64) {
	if c != nil {
		c.comparisons.Add(n)
	}
}

// AddMove records n element moves. Safe on a nil receiver.
func (c *SharedCounters) AddMove(n int64) {
	if c != nil {
		c.dataMoves.Add(n)
	}
}

// AddHash records n hash-function calls. Safe on a nil receiver.
func (c *SharedCounters) AddHash(n int64) {
	if c != nil {
		c.hashCalls.Add(n)
	}
}

// AddNode records n node visits. Safe on a nil receiver.
func (c *SharedCounters) AddNode(n int64) {
	if c != nil {
		c.nodesVisited.Add(n)
	}
}

// AddAlloc records n structure allocations. Safe on a nil receiver.
func (c *SharedCounters) AddAlloc(n int64) {
	if c != nil {
		c.allocations.Add(n)
	}
}

// AddRotation records n rebalance rotations. Safe on a nil receiver.
func (c *SharedCounters) AddRotation(n int64) {
	if c != nil {
		c.rotations.Add(n)
	}
}

// AddBatch records n tuple-batch handoffs. Safe on a nil receiver.
func (c *SharedCounters) AddBatch(n int64) {
	if c != nil {
		c.batches.Add(n)
	}
}

// AddRadixPass records n radix partitioning passes. Safe on a nil receiver.
func (c *SharedCounters) AddRadixPass(n int64) {
	if c != nil {
		c.radixPasses.Add(n)
	}
}

// AddPartition records n radix partitions produced. Safe on a nil receiver.
func (c *SharedCounters) AddPartition(n int64) {
	if c != nil {
		c.partitions.Add(n)
	}
}

// AddSortPass records n radix-sort scatter passes. Safe on a nil receiver.
func (c *SharedCounters) AddSortPass(n int64) {
	if c != nil {
		c.sortPasses.Add(n)
	}
}

// AddSortRun records n comparator-sorted runs. Safe on a nil receiver.
func (c *SharedCounters) AddSortRun(n int64) {
	if c != nil {
		c.sortRuns.Add(n)
	}
}

// AddKeyBytes records n normalized sort-key bytes encoded. Safe on a nil
// receiver.
func (c *SharedCounters) AddKeyBytes(n int64) {
	if c != nil {
		c.keyBytes.Add(n)
	}
}

// AddGroup records n distinct groups produced. Safe on a nil receiver.
func (c *SharedCounters) AddGroup(n int64) {
	if c != nil {
		c.groups.Add(n)
	}
}

// AddAggProbe records n agg-table probe steps. Safe on a nil receiver.
func (c *SharedCounters) AddAggProbe(n int64) {
	if c != nil {
		c.aggProbes.Add(n)
	}
}

// AddHeapPush records n bounded-heap insertions. Safe on a nil receiver.
func (c *SharedCounters) AddHeapPush(n int64) {
	if c != nil {
		c.heapPushes.Add(n)
	}
}

// AddHashProbe records n flat join-table build steps. Safe on a nil
// receiver.
func (c *SharedCounters) AddHashProbe(n int64) {
	if c != nil {
		c.hashProbes.Add(n)
	}
}

// Add atomically folds a finished operator's private Counters into the
// shared accumulator. Safe on a nil receiver.
func (c *SharedCounters) Add(other Counters) {
	if c == nil {
		return
	}
	c.comparisons.Add(other.Comparisons)
	c.dataMoves.Add(other.DataMoves)
	c.hashCalls.Add(other.HashCalls)
	c.nodesVisited.Add(other.NodesVisited)
	c.allocations.Add(other.Allocations)
	c.rotations.Add(other.Rotations)
	c.batches.Add(other.Batches)
	c.radixPasses.Add(other.RadixPasses)
	c.partitions.Add(other.Partitions)
	c.sortPasses.Add(other.SortPasses)
	c.sortRuns.Add(other.SortRuns)
	c.keyBytes.Add(other.KeyBytes)
	c.groups.Add(other.Groups)
	c.aggProbes.Add(other.AggProbes)
	c.heapPushes.Add(other.HeapPushes)
	c.hashProbes.Add(other.HashProbes)
}

// Reset zeroes every counter. Safe on a nil receiver. Not atomic with
// respect to concurrent adds as a set, but each field individually is.
func (c *SharedCounters) Reset() {
	if c == nil {
		return
	}
	c.comparisons.Store(0)
	c.dataMoves.Store(0)
	c.hashCalls.Store(0)
	c.nodesVisited.Store(0)
	c.allocations.Store(0)
	c.rotations.Store(0)
	c.batches.Store(0)
	c.radixPasses.Store(0)
	c.partitions.Store(0)
	c.sortPasses.Store(0)
	c.sortRuns.Store(0)
	c.keyBytes.Store(0)
	c.groups.Store(0)
	c.aggProbes.Store(0)
	c.heapPushes.Store(0)
	c.hashProbes.Store(0)
}

// Snapshot returns a point-in-time copy as a plain Counters value. Safe on
// a nil receiver (returns zeros).
func (c *SharedCounters) Snapshot() Counters {
	if c == nil {
		return Counters{}
	}
	return Counters{
		Comparisons:  c.comparisons.Load(),
		DataMoves:    c.dataMoves.Load(),
		HashCalls:    c.hashCalls.Load(),
		NodesVisited: c.nodesVisited.Load(),
		Allocations:  c.allocations.Load(),
		Rotations:    c.rotations.Load(),
		Batches:      c.batches.Load(),
		RadixPasses:  c.radixPasses.Load(),
		Partitions:   c.partitions.Load(),
		SortPasses:   c.sortPasses.Load(),
		SortRuns:     c.sortRuns.Load(),
		KeyBytes:     c.keyBytes.Load(),
		Groups:       c.groups.Load(),
		AggProbes:    c.aggProbes.Load(),
		HeapPushes:   c.heapPushes.Load(),
		HashProbes:   c.hashProbes.Load(),
	}
}

// String renders a snapshot in the same compact form as Counters.
func (c *SharedCounters) String() string {
	if c == nil {
		return "meter(nil)"
	}
	s := c.Snapshot()
	return s.String()
}
