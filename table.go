package mmdb

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// Table is a declared relation plus its indices. All query access to the
// table goes through an index (§2.1).
type Table struct {
	db      *Database
	rel     *storage.Relation
	indices []*Index // in creation order
	// byField[f] is the index a selection or join on field f probes: of
	// each structure family the first created, a unique one preferred.
	byField []fieldIndices
	primary *Index
	// sel is what every selection of the table emits under: all columns
	// under the table's name. Built once and shared read-only by the lists.
	sel storage.Descriptor
}

// Name returns the table name.
func (t *Table) Name() string { return t.rel.Name() }

// Cardinality returns the number of live tuples.
func (t *Table) Cardinality() int { return t.rel.Cardinality() }

// Schema returns the column definitions.
func (t *Table) Schema() []Field { return t.rel.Schema().Fields() }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int { return t.rel.Schema().FieldIndex(name) }

// Stats returns the table's sampled statistics — row count plus
// per-column distinct-value estimates. The snapshot refreshes lazily:
// it is reused until enough DML lands to plausibly move it (10% of the
// rows, floored at a few hundred writes), and reading it until then
// takes no lock. A refresh scans under a shared table lock, but never
// blocks behind a writer: when the lock is not immediately grantable,
// the previous snapshot is returned as-is (stale statistics beat a
// stalled metrics endpoint).
func (t *Table) Stats() (TableStat, error) {
	st, _, fresh := t.rel.CachedStats()
	if fresh {
		return TableStat(st), nil
	}
	tx := &Txn{db: t.db, inner: t.db.txns.BeginUntracked()}
	defer tx.Abort()
	if !tx.inner.TryLockRelationShared(t.rel) {
		return TableStat(st), nil
	}
	return TableStat(t.rel.Stats()), nil
}

// Index is a named index over one column of a table.
type Index struct {
	name    string
	column  string
	field   int
	kind    IndexKind
	unique  bool
	ordered tupleindex.Ordered // nil for hash structures
	hashed  tupleindex.Hashed  // nil for ordered structures
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Kind returns the index structure kind.
func (ix *Index) Kind() IndexKind { return ix.kind }

// Column returns the indexed column.
func (ix *Index) Column() string { return ix.column }

// Len returns the number of indexed entries.
func (ix *Index) Len() int {
	if ix.ordered != nil {
		return ix.ordered.Len()
	}
	return ix.hashed.Len()
}

// Stats returns the structure's storage shape.
func (ix *Index) Stats() index.Stats {
	if ix.ordered != nil {
		return ix.ordered.Stats()
	}
	return ix.hashed.Stats()
}

// CreateIndex adds a secondary index on the column and populates it from
// the table's current contents.
func (t *Table) CreateIndex(name, column string, kind IndexKind) (*Index, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.createIndexLocked(name, column, kind, false)
}

// CreateUniqueIndex adds a secondary unique index.
func (t *Table) CreateUniqueIndex(name, column string, kind IndexKind) (*Index, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.createIndexLocked(name, column, kind, true)
}

func (t *Table) createIndexLocked(name, column string, kind IndexKind, unique bool) (*Index, error) {
	for _, ix := range t.indices {
		if ix.name == name {
			return nil, fmt.Errorf("mmdb: index %q exists on %s", name, t.Name())
		}
	}
	field := t.rel.Schema().FieldIndex(column)
	if field < 0 {
		return nil, fmt.Errorf("mmdb: table %s has no column %q", t.Name(), column)
	}
	ix := &Index{name: name, column: column, field: field, kind: kind, unique: unique}
	if err := ix.build(t.rel); err != nil {
		return nil, err
	}
	if unique && field != tupleindex.SelfField {
		t.registerUniqueKey(ix)
	}
	t.indices = append(t.indices, ix)
	slot := &t.byField[field].hash
	if ix.ordered != nil {
		slot = &t.byField[field].tree
	}
	if *slot == nil || unique && !(*slot).unique {
		*slot = ix
	}
	if t.primary == nil {
		t.primary = ix
	}
	return ix, nil
}

// fieldIndices is the index of each structure family over one field.
type fieldIndices struct {
	hash, tree *Index
}

// registerUniqueKey hands the unique index to the relation's writers:
// a transaction checks every key its inserts and key updates claim
// against it before applying any of them. Null keys are exempt (no value
// to collide).
func (t *Table) registerUniqueKey(ix *Index) {
	p := &keyProbe{ix: ix, KeyPos: tupleindex.NewKeyPos(ix.field)}
	p.match = p.equal
	t.rel.AddUniqueKey(storage.UniqueKey{Name: ix.name, Field: ix.field, Lookup: p.lookup})
}

// keyProbe looks keys up in one unique index without allocating: the
// comparators the index calls are bound once (the ordered one is the
// embedded KeyPos), and each lookup sets the key they compare against.
// Keys are only checked by a transaction holding the relation's X lock,
// so one probe per index never serves two lookups at once.
type keyProbe struct {
	*tupleindex.KeyPos
	ix    *Index
	match func(*storage.Tuple) bool
}

func (p *keyProbe) equal(x *storage.Tuple) bool {
	return storage.Equal(tupleindex.KeyOf(x, p.ix.field), p.Key)
}

func (p *keyProbe) lookup(key storage.Value) (tp *storage.Tuple, ok bool) {
	p.Key = key
	if p.ix.ordered != nil {
		tp, ok = p.ix.ordered.Search(p.Pos)
	} else {
		tp, ok = p.ix.hashed.SearchKey(storage.Hash(key), p.match)
	}
	p.Key = storage.NullValue // hold no string past the lookup
	return tp, ok
}

// build (re)creates the underlying structure and populates it.
func (ix *Index) build(rel *storage.Relation) error {
	o := tupleindex.Options{Field: ix.field, Unique: ix.unique, Capacity: rel.Cardinality()}
	var err error
	if ix.kind.OrderPreserving() {
		ix.ordered, err = tupleindex.NewOrdered(ix.kind, o)
	} else {
		ix.hashed, err = tupleindex.NewHashed(ix.kind, o)
	}
	if err != nil {
		return err
	}
	failed := false
	rel.ScanPhysical(func(tp *storage.Tuple) bool {
		if !ix.insert(tp) {
			failed = true
			return false
		}
		return true
	})
	if failed {
		return fmt.Errorf("mmdb: unique violation building index %q", ix.name)
	}
	rel.Observe(ix.maintainer())
	return nil
}

func (ix *Index) insert(tp *storage.Tuple) bool {
	if ix.ordered != nil {
		return ix.ordered.Insert(tp)
	}
	return ix.hashed.Insert(tp)
}

func (ix *Index) remove(tp *storage.Tuple) bool {
	if ix.ordered != nil {
		return ix.ordered.Delete(tp)
	}
	return ix.hashed.Delete(tp)
}

// maintainer reads the structure through ix on every call, so swapping in
// a fresh structure during recovery rebuild does not strand it.
func (ix *Index) maintainer() storage.Observer {
	return &tupleindex.Maintainer{Field: ix.field, Insert: ix.insert, Remove: ix.remove}
}

// rebuildIndices reconstructs every index from the relation's contents —
// the final step of recovery (reloaded tuples bypass observers).
func (t *Table) rebuildIndices() {
	for _, ix := range t.indices {
		o := tupleindex.Options{Field: ix.field, Unique: ix.unique, Capacity: t.rel.Cardinality()}
		if ix.kind.OrderPreserving() {
			ix.ordered, _ = tupleindex.NewOrdered(ix.kind, o)
		} else {
			ix.hashed, _ = tupleindex.NewHashed(ix.kind, o)
		}
		t.rel.ScanPhysical(func(tp *storage.Tuple) bool {
			ix.insert(tp)
			return true
		})
		// The maintainer registered at creation dispatches through ix, so
		// it now feeds the new structure; re-registering would double-fire.
	}
}

// Indexes lists the table's indices sorted by name.
func (t *Table) Indexes() []*Index {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	out := make([]*Index, 0, len(t.indices))
	for _, ix := range t.indices {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// indexOn returns the index over the field that a probe uses (see
// byField), or nil: ordered=true an order-preserving structure, false a
// hash structure. Tuple identity (tupleindex.SelfField) is never indexed.
func (t *Table) indexOn(field int, ordered bool) *Index {
	if field == tupleindex.SelfField {
		return nil
	}
	if ordered {
		return t.byField[field].tree
	}
	return t.byField[field].hash
}

// scanSource returns the table's cheapest full-scan source: the paper
// scans relations through an index; any index serves, and every tuple
// index is an exec.Source.
func (t *Table) scanSource() exec.Source {
	if t.primary.ordered != nil {
		return t.primary.ordered
	}
	return t.primary.hashed
}

// Insert stores a row in its own transaction.
func (t *Table) Insert(vals ...Value) (*Tuple, error) {
	tx := t.db.Begin()
	if err := tx.Insert(t, vals...); err != nil {
		return nil, err
	}
	ins, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	return ins[0], nil
}

// Update changes one column of a row in its own transaction.
func (t *Table) Update(tp *Tuple, column string, v Value) error {
	tx := t.db.Begin()
	if err := tx.Update(t, tp, column, v); err != nil {
		return err
	}
	_, err := tx.Commit()
	return err
}

// Delete removes a row in its own transaction.
func (t *Table) Delete(tp *Tuple) error {
	tx := t.db.Begin()
	if err := tx.Delete(t, tp); err != nil {
		return err
	}
	_, err := tx.Commit()
	return err
}
