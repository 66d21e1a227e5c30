package storage

import (
	"math"
	"sync/atomic"
)

// DefaultSlotsPerPartition and DefaultHeapPerPartition size a partition at
// roughly "one or two disk tracks" (§2.1), the paper's unit of recovery.
const (
	DefaultSlotsPerPartition = 256
	DefaultHeapPerPartition  = 48 * 1024
)

// Config controls partition sizing for a relation.
type Config struct {
	SlotsPerPartition int // tuple slots per partition, at most math.MaxInt32
	HeapPerPartition  int // heap-space bytes per partition (var-length fields)
}

func (c Config) withDefaults() Config {
	if c.SlotsPerPartition <= 0 {
		c.SlotsPerPartition = DefaultSlotsPerPartition
	}
	// A tuple header keeps its slot number in 32 bits.
	c.SlotsPerPartition = min(c.SlotsPerPartition, math.MaxInt32)
	if c.HeapPerPartition <= 0 {
		c.HeapPerPartition = DefaultHeapPerPartition
	}
	return c
}

// Partition is the unit of recovery and locking: a group of tuple slots
// plus heap space for variable-length fields. Tuples are grouped in
// partitions for space management and recovery, not for clustering —
// direct addressability makes physical contiguity irrelevant to query
// processing (§2.1).
type Partition struct {
	id       int
	rel      *Relation
	slots    []*Tuple
	free     []int32 // indexes of reusable slots
	live     int
	heapCap  int
	heapUsed int
	lsn      uint64 // highest log sequence number applied; used by recovery
	// snapDirty marks that DML touched this partition since the last
	// snapshot publication, so the next publish cannot share the previous
	// snapshot's clone array as it is (see snapshot.go). snapReshaped
	// narrows how: an insert, delete or move changed which tuples the
	// partition's scan yields, so the array is re-cloned in full; with
	// only snapDirty set every change was an in-place update and the
	// array is patched. Written under the engine's exclusive locks, read
	// and cleared by the publisher under S(relation), which excludes them.
	snapDirty    bool
	snapReshaped bool
}

// ID returns the partition's position within its relation.
func (p *Partition) ID() int { return p.id }

// Relation returns the owning relation.
func (p *Partition) Relation() *Relation { return p.rel }

// Live returns the number of live tuples in the partition.
func (p *Partition) Live() int { return p.live }

// LSN returns the highest log sequence number applied to this partition.
func (p *Partition) LSN() uint64 { return atomic.LoadUint64(&p.lsn) }

// SetLSN records the highest log sequence number applied to this
// partition; the recovery manager calls this after each propagated update.
func (p *Partition) SetLSN(lsn uint64) { atomic.StoreUint64(&p.lsn, lsn) }

// hasRoomFor reports whether the partition can take one more tuple with
// the given heap footprint.
func (p *Partition) hasRoomFor(heapBytes int) bool {
	if p.heapUsed+heapBytes > p.heapCap {
		return false
	}
	return len(p.free) > 0 || len(p.slots) < cap(p.slots)
}

// place stores a tuple into a free slot. The caller guarantees room.
func (p *Partition) place(t *Tuple) {
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[slot] = t
	} else {
		slot = int32(len(p.slots))
		p.slots = append(p.slots, t)
	}
	t.part = p
	t.slot = slot
	p.live++
	p.heapUsed += t.heapBytes()
	p.snapDirty, p.snapReshaped = true, true
}

// remove frees the tuple's slot and heap space. The tuple struct itself
// survives as long as indices point at it; only the partition bookkeeping
// changes.
func (p *Partition) remove(t *Tuple) {
	p.slots[t.slot] = nil
	p.free = append(p.free, t.slot)
	p.live--
	p.heapUsed -= t.heapBytes()
	p.snapDirty, p.snapReshaped = true, true
}

// Gather appends the partition's live tuples to the block buf (a
// BatchSize block when buf has no capacity), handing buf to fn each time
// it fills. It returns the block with the tuples not yet handed out, and
// false once fn stops the scan; a caller scanning several partitions
// passes the block on, so blocks run full across partition boundaries.
// This is the partition-granularity scan the executor consumes: each
// partition is an independently scannable morsel, so workers can divide a
// relation at partition boundaries without coordinating per tuple.
// Callers must hold at least a shared lock on the relation (or partition)
// for the duration of the scan.
func (p *Partition) Gather(buf TupleBatch, fn func(TupleBatch) bool) (TupleBatch, bool) {
	if cap(buf) == 0 {
		buf = make(TupleBatch, 0, BatchSize)
	}
	for _, t := range p.slots {
		if !visible(t) {
			continue
		}
		buf = append(buf, t)
		if len(buf) == cap(buf) {
			if !fn(buf) {
				return buf, false
			}
			buf = buf[:0]
		}
	}
	return buf, true
}

// visible reports whether the slot holds a tuple a scan yields: not empty,
// not deleted, not the forwarding stub of a tuple that moved away.
func visible(t *Tuple) bool { return t != nil && !t.dead && t.forward == nil }

// scan visits every live tuple in the partition (forwarding stubs are
// skipped: the tuple is visited at its current home).
func (p *Partition) scan(fn func(*Tuple) bool) bool {
	for _, t := range p.slots {
		if !visible(t) {
			continue
		}
		if !fn(t) {
			return false
		}
	}
	return true
}
