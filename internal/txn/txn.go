// Package txn implements the MM-DBMS transaction protocol sketched in
// §2.4: deferred updates with strict two-phase locking at partition
// granularity. All log information is written into the stable log buffer
// before the actual update is done to the database (as in IMS FASTPATH);
// an abort simply removes the log entries — no undo is ever needed — and a
// commit applies the updates and releases them to the active log device.
//
// No undo is needed because Commit decides before it applies: its
// validation pass checks every buffered op against the database and the
// ops before it — dead tuples, and every key an insert or key update
// claims on a unique index (keys.go) — so the apply pass that follows
// cannot fail, and a commit that returns an error has changed nothing.
//
// Lock protocol. Locks form a two-level hierarchy in which a relation
// lock covers the relation's partitions:
//
//   - A writer (Insert, Update, Delete) takes X(relation) first, then
//     X(partition) for the tuple it changes. X(relation) is what protects
//     the structures that span partitions — indices, the slab arenas, the
//     marks the next snapshot publication reads.
//   - A selection takes S(relation) only (LockRelationShared). So does a
//     snapshot reader, and only while it republishes a stale snapshot.
//   - A pointer read (Read) takes S(partition) only. It touches one tuple
//     and no index, so it runs beside inserts and beside writers of other
//     partitions; this is what partition locks are still for.
//
// Invariant: no transaction holds X(partition) without X(relation) on the
// partition's relation. Therefore S(relation) excludes every writer of
// every partition, and a reader needs one lock per table, not one per
// partition. Every X(partition) request in this package is preceded by
// the X(relation) request in the same function, and locks are only
// released all at once; TestExclusivePartitionImpliesExclusiveRelation
// enforces it. Writers of one relation therefore serialize; intention
// modes (IS/IX) that would let them overlap need a relation-level latch
// around index, slab and snapshot mutation, and are not implemented.
package txn

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// ErrDone is returned when a finished transaction is used again.
var ErrDone = errors.New("txn: transaction already committed or aborted")

// Observer receives transaction lifecycle events. The obs registry
// implements it; the interface lives here so the transaction layer does
// not depend on the metrics layer. Implementations must be safe for
// concurrent use.
type Observer interface {
	TxnBegin()
	TxnCommit()
	TxnAbort()
}

// Manager creates transactions over a shared lock manager and log.
type Manager struct {
	Locks *lock.Manager
	Log   *recovery.Manager
	// Obs, when non-nil, receives begin/commit/abort events. Wire it
	// before the manager serves traffic; it is read without
	// synchronization afterwards.
	Obs  Observer
	next uint64
}

// NewManager wires a transaction manager. log may be nil for a database
// running without durability.
func NewManager(locks *lock.Manager, log *recovery.Manager) *Manager {
	if locks == nil {
		locks = lock.NewManager()
	}
	return &Manager{Locks: locks, Log: log}
}

// Begin starts a transaction. Its first four buffered ops and the first
// relation it writes live in the same allocation as the transaction
// itself; more spill by append.
func (m *Manager) Begin() *Txn {
	if m.Obs != nil {
		m.Obs.TxnBegin()
	}
	w := &struct {
		Txn
		ops   [4]op
		xrels [1]xrel
	}{Txn: Txn{m: m, id: atomic.AddUint64(&m.next, 1)}}
	w.Txn.ops, w.Txn.xrels = w.ops[:0], w.xrels[:0]
	return &w.Txn
}

// BeginUntracked starts a transaction that bypasses the observer — for
// internal ephemeral readers (e.g. the query layer's lock-holding
// pseudo-transaction) whose begin/abort pairs would distort transaction
// metrics, and which buffer no ops, so none are set aside for them.
// Locking and logging behave exactly as in Begin.
func (m *Manager) BeginUntracked() *Txn {
	return &Txn{m: m, id: atomic.AddUint64(&m.next, 1), untracked: true}
}

type opKind uint8

const (
	opInsert opKind = iota
	opUpdate
	opDelete
)

// op is one buffered write. tuple is an insert's staged tuple, or the
// tuple an update or delete targets; field and val are an update's.
type op struct {
	rel   *storage.Relation
	tuple *storage.Tuple
	val   storage.Value
	field int32
	kind  opKind
}

// xrel is a relation the transaction holds X on, with the relation's slab
// cursor as it stood when the lock was granted.
type xrel struct {
	rel  *storage.Relation
	mark storage.SlabMark
}

// Txn is a deferred-update transaction. Writes are buffered until Commit;
// reads see the pre-transaction state of the database (no
// read-your-writes), which is the natural consequence of §2.4's
// no-undo design.
//
// A buffered insert is not a copy kept aside: its values go straight into
// the relation's slabs as a staged tuple no reader can reach (Stage), under
// the X(relation) it holds, and Commit installs that tuple as it stands.
// xrels remembers where each relation's slab cursor stood when the lock
// was granted — nobody else stages into the relation while the lock is
// held — so an abort (explicit, failed validation, deadlock victim)
// rewinds the cursor there and the next rows land where the first staged
// one did.
type Txn struct {
	m         *Manager
	id        uint64
	ops       []op
	xrels     []xrel
	inserts   int // insert ops in ops
	done      bool
	untracked bool // ephemeral reader: skip observer events
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

func (t *Txn) lockID() lock.TxnID { return lock.TxnID(t.id) }

// Read returns the tuple's field values under a shared partition lock —
// no relation lock, so it conflicts only with a writer of this partition.
func (t *Txn) Read(tp *storage.Tuple) ([]storage.Value, error) {
	if t.done {
		return nil, ErrDone
	}
	if err := t.m.Locks.Lock(t.lockID(), tp.Partition(), lock.Shared); err != nil {
		return nil, t.failLock(err)
	}
	return tp.Values(), nil
}

// LockRelationShared takes the read lock a selection needs: S(relation),
// and nothing else. Under the covering hierarchy (see the package comment)
// it excludes every writer of the relation, so the index traversal and
// every tuple the selection touches are stable without a lock per
// partition — the statement's locking cost does not grow with the table.
func (t *Txn) LockRelationShared(rel *storage.Relation) error {
	if t.done {
		return ErrDone
	}
	if err := t.m.Locks.Lock(t.lockID(), rel, lock.Shared); err != nil {
		return t.failLock(err)
	}
	return nil
}

// LockRelationExclusive takes X(relation) up front. A transaction that
// will read and then write the same relation (SQL UPDATE/DELETE … WHERE)
// calls it before the read: two such transactions that each took
// S(relation) first would both block upgrading, and one would be the
// deadlock victim; with the exclusive lock first they serialize.
func (t *Txn) LockRelationExclusive(rel *storage.Relation) error {
	if t.done {
		return ErrDone
	}
	return t.lockX(rel)
}

// lockX takes X(rel) unless the transaction holds it already, in which
// case the lock manager is not asked again.
func (t *Txn) lockX(rel *storage.Relation) error {
	for i := range t.xrels {
		if t.xrels[i].rel == rel {
			return nil
		}
	}
	if err := t.m.Locks.Lock(t.lockID(), rel, lock.Exclusive); err != nil {
		return t.failLock(err)
	}
	t.xrels = append(t.xrels, xrel{rel: rel, mark: rel.SlabMark()})
	return nil
}

// TryLockRelationShared is LockRelationShared without blocking: it
// reports false (the caller aborts the ephemeral transaction) when
// S(relation) is not immediately grantable. Statistics exposition uses
// it to avoid stalling behind writers.
func (t *Txn) TryLockRelationShared(rel *storage.Relation) bool {
	return !t.done && t.m.Locks.TryLock(t.lockID(), rel, lock.Shared)
}

// Insert buffers an insert. Schema validation happens immediately, before
// any lock is taken; then, under X(relation), the values are copied into
// the relation's slabs as a staged tuple, which Commit installs (deferred
// update), so its pointer is returned by Commit, not here.
func (t *Txn) Insert(rel *storage.Relation, vals []storage.Value) error {
	if t.done {
		return ErrDone
	}
	if err := rel.Schema().Validate(vals); err != nil {
		return err
	}
	if err := t.lockX(rel); err != nil {
		return err
	}
	t.ops = append(t.ops, op{kind: opInsert, rel: rel, tuple: rel.Stage(vals)})
	t.inserts++
	return nil
}

// Update buffers a field update under an exclusive partition lock.
func (t *Txn) Update(rel *storage.Relation, tp *storage.Tuple, field int, v storage.Value) error {
	if t.done {
		return ErrDone
	}
	if field < 0 || field >= rel.Schema().Arity() {
		return fmt.Errorf("txn: field %d out of range", field)
	}
	if err := rel.Schema().CheckField(field, v); err != nil {
		return fmt.Errorf("txn: %w", err)
	}
	// The relation lock covers the index repositioning the update causes;
	// the partition lock covers the tuple itself.
	if err := t.lockX(rel); err != nil {
		return err
	}
	if err := t.m.Locks.Lock(t.lockID(), tp.Partition(), lock.Exclusive); err != nil {
		return t.failLock(err)
	}
	t.ops = append(t.ops, op{kind: opUpdate, rel: rel, tuple: tp, field: int32(field), val: v})
	return nil
}

// Delete buffers a tuple delete under exclusive relation and partition
// locks (the relation lock covers the index removals).
func (t *Txn) Delete(rel *storage.Relation, tp *storage.Tuple) error {
	if t.done {
		return ErrDone
	}
	if err := t.lockX(rel); err != nil {
		return err
	}
	if err := t.m.Locks.Lock(t.lockID(), tp.Partition(), lock.Exclusive); err != nil {
		return t.failLock(err)
	}
	t.ops = append(t.ops, op{kind: opDelete, rel: rel, tuple: tp})
	return nil
}

// logRecords builds the commit's log, one record per op, and writes it
// into the stable log buffer as one block. Placement an op decides when
// it is applied — an insert's tuple ID and partition, the partition an
// update or delete finds its tuple in after the ops before it — is
// patched in by apply.
func (t *Txn) logRecords() []recovery.Record {
	// The records are one block, and the images of the updates' new
	// values another; an insert's record holds its staged row by
	// reference, so inserts need no images.
	updates := 0
	for _, o := range t.ops {
		if o.kind == opUpdate {
			updates++
		}
	}
	var imgs []storage.ValueImage
	if updates > 0 {
		imgs = make([]storage.ValueImage, updates)
	}
	recs := make([]recovery.Record, len(t.ops))
	for i, o := range t.ops {
		rec := &recs[i]
		rec.Rel = o.rel.Name()
		switch o.kind {
		case opInsert:
			rec.Op, rec.Row = recovery.OpInsert, o.tuple.FieldArray()
		case opUpdate:
			imgs[0] = storage.ImageOf(o.val)
			rec.Op, rec.Tuple, rec.Field, rec.Vals = recovery.OpUpdate, o.tuple.ID(), o.field, imgs[:1:1]
			imgs = imgs[1:]
		case opDelete:
			rec.Op, rec.Tuple = recovery.OpDelete, o.tuple.ID()
		}
	}
	t.m.Log.AppendBlock(t.id, recs)
	return recs
}

// failLock aborts the transaction on a lock failure (deadlock victim).
func (t *Txn) failLock(err error) error {
	t.Abort()
	return err
}

// Abort discards the buffered updates and log entries, gives the slab
// space of its staged inserts back, and releases all locks; the database
// is untouched, so no undo is needed.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	for _, x := range t.xrels {
		x.rel.Rewind(x.mark)
	}
	t.ops, t.xrels = nil, nil
	if t.m.Log != nil {
		t.m.Log.Abort(t.id)
	}
	t.m.Locks.ReleaseAll(t.lockID())
	if t.m.Obs != nil && !t.untracked {
		t.m.Obs.TxnAbort()
	}
}

// Commit validates the buffered updates, writes their log records into the
// stable log buffer as one block, applies the updates to the in-memory
// database, then releases the records to the log device and drops all
// locks. It returns the tuples created by this transaction's inserts, in
// order. A commit that fails validation applies nothing and aborts the
// transaction.
func (t *Txn) Commit() ([]*storage.Tuple, error) {
	if t.done {
		return nil, ErrDone
	}
	// Validation pass: fail before anything is applied.
	var keys keyCheck
	for i := range t.ops {
		if err := keys.check(t.ops, i); err != nil {
			t.Abort()
			return nil, fmt.Errorf("txn %d: %w", t.id, err)
		}
	}
	// Apply pass: the log first, then the in-memory updates. Validation
	// has ruled out every failure the relation reports. From here on the
	// staged tuples are the relation's, so nothing rewinds past them.
	t.xrels = nil
	var inserted []*storage.Tuple
	if t.inserts > 0 {
		inserted = make([]*storage.Tuple, 0, t.inserts)
	}
	// The log records are one block; the log manager keeps it.
	var recs []recovery.Record
	if t.m.Log != nil {
		recs = t.logRecords()
	}
	for i, o := range t.ops {
		var rec *recovery.Record
		if recs != nil {
			rec = &recs[i]
		}
		switch o.kind {
		case opInsert:
			tp := o.tuple
			o.rel.Install(tp)
			if rec != nil {
				rec.Tuple, rec.Part = tp.ID(), tp.Partition().ID()
			}
			inserted = append(inserted, tp)
		case opUpdate:
			if rec != nil {
				rec.Part = o.tuple.Partition().ID()
			}
			if err := o.rel.Update(o.tuple, int(o.field), o.val); err != nil {
				t.Abort()
				return nil, err
			}
			if rec != nil && o.tuple.Partition().ID() != rec.Part {
				// The value outgrew the partition's heap and the tuple
				// moved: log the row it now has where it went.
				rec.Op, rec.From, rec.Part = recovery.OpMove, rec.Part, o.tuple.Partition().ID()
				rec.Vals, rec.Row = nil, o.tuple.FieldArray()
			}
		case opDelete:
			if rec != nil {
				rec.Part = o.tuple.Partition().ID()
			}
			if err := o.rel.Delete(o.tuple); err != nil {
				t.Abort()
				return nil, err
			}
		}
	}
	t.done = true
	if t.m.Log != nil {
		t.m.Log.Commit(t.id)
	}
	// Nothing is published here: the updates above advanced each touched
	// relation's snapshot epoch and marked its partitions, and the first
	// snapshot reader of the new epoch pays for the refresh (see
	// storage/snapshot.go).
	t.m.Locks.ReleaseAll(t.lockID())
	if t.m.Obs != nil && !t.untracked {
		t.m.Obs.TxnCommit()
	}
	return inserted, nil
}
