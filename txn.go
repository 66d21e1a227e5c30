package mmdb

import (
	"fmt"

	"repro/internal/txn"
)

// Txn is a transaction: deferred updates under partition-level two-phase
// locking (§2.4). Log records reach the stable log buffer before any
// update touches the database; Abort discards them with no undo.
type Txn struct {
	db    *Database
	inner *txn.Txn
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.inner.ID() }

// Insert buffers a row insert. The created tuple pointers are returned by
// Commit in insert order.
func (t *Txn) Insert(table *Table, vals ...Value) error {
	return t.inner.Insert(table.rel, vals)
}

// Update buffers a single-column update.
func (t *Txn) Update(table *Table, tp *Tuple, column string, v Value) error {
	f := table.ColumnIndex(column)
	if f < 0 {
		return fmt.Errorf("mmdb: table %s has no column %q", table.Name(), column)
	}
	return t.inner.Update(table.rel, tp, f, v)
}

// Delete buffers a row delete.
func (t *Txn) Delete(table *Table, tp *Tuple) error {
	return t.inner.Delete(table.rel, tp)
}

// Read returns a tuple's values under a shared lock.
func (t *Txn) Read(tp *Tuple) ([]Value, error) {
	return t.inner.Read(tp)
}

// LockTableShared takes the table's shared relation lock — the lock a
// query takes. It covers every partition: writers hold the exclusive
// relation lock, so none runs until this transaction ends.
func (t *Txn) LockTableShared(table *Table) error {
	return t.inner.LockRelationShared(table.rel)
}

// Commit applies the buffered updates and returns inserted tuples.
func (t *Txn) Commit() ([]*Tuple, error) {
	return t.inner.Commit()
}

// Abort discards the buffered updates.
func (t *Txn) Abort() { t.inner.Abort() }
