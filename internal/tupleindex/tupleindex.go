// Package tupleindex instantiates the generic index structures over tuple
// pointers, the MM-DBMS arrangement of §2.2: an index never stores
// attribute values, only *storage.Tuple entries whose comparisons and
// hashes dereference the indexed field on demand. Entry identity is
// pointer identity, so deleting a tuple removes exactly its pointer even
// among key-equal duplicates.
//
// Tuples leave a tuple index through the block methods of index.Ordered
// and index.Hashed. storage.TupleBatch is []*storage.Tuple, so every
// tuple index is an exec.Source as it stands: operators call its
// ScanBatches, SearchAllAppend and SearchKeyAppend directly.
package tupleindex

import (
	"cmp"
	"fmt"
	"sync"

	"repro/internal/index"
	"repro/internal/index/avltree"
	"repro/internal/index/btree"
	"repro/internal/index/chainhash"
	"repro/internal/index/exthash"
	"repro/internal/index/linearhash"
	"repro/internal/index/mlh"
	"repro/internal/index/sortedarray"
	"repro/internal/index/ttree"
	"repro/internal/meter"
	"repro/internal/storage"
)

// SelfField is the pseudo field index whose "value" is the tuple's own
// identity (a Ref to itself). Indexing or joining on SelfField compares
// tuple pointers — the pointer-based join of §2.1 Query 2.
const SelfField = -1

// KeyOf extracts the indexed key of a tuple: field f, or the tuple's own
// identity for SelfField.
func KeyOf(t *storage.Tuple, f int) storage.Value {
	if f == SelfField {
		return storage.RefValue(t)
	}
	return t.Field(f)
}

// Ordered and Hashed are the tuple-level index interfaces.
type (
	Ordered = index.Ordered[*storage.Tuple]
	Hashed  = index.Hashed[*storage.Tuple]
)

// Options configures a tuple index.
type Options struct {
	Field    int // indexed field; SelfField for identity
	Unique   bool
	NodeSize int
	Capacity int // hint for static / presized structures
	Meter    *meter.Counters
}

// Config builds the generic index configuration for the options. In a
// unique index two NULL keys never compare equal — NULL is no value, so
// it cannot collide — and the structure keeps every NULL-keyed tuple:
// Cmp breaks a tie between NULL keys on tuple ID, which keeps them
// adjacent, and Eq calls no NULL key equal to another.
func Config(o Options) index.Config[*storage.Tuple] {
	f, unique := o.Field, o.Unique
	return index.Config[*storage.Tuple]{
		Cmp: func(a, b *storage.Tuple) int {
			ka := KeyOf(a, f)
			if c := storage.Compare(ka, KeyOf(b, f)); c != 0 || !unique || !ka.IsNull() {
				return c
			}
			return cmp.Compare(a.ID(), b.ID())
		},
		Hash: func(t *storage.Tuple) uint64 {
			return storage.Hash(KeyOf(t, f))
		},
		Eq: func(a, b *storage.Tuple) bool {
			ka := KeyOf(a, f)
			return storage.Equal(ka, KeyOf(b, f)) && !(unique && ka.IsNull())
		},
		Same:         func(a, b *storage.Tuple) bool { return a.Canonical() == b.Canonical() },
		Unique:       o.Unique,
		NodeSize:     o.NodeSize,
		CapacityHint: o.Capacity,
		Meter:        o.Meter,
	}
}

// PosFor returns the ordered-search position function for key k on field f.
func PosFor(k storage.Value, f int) index.Pos[*storage.Tuple] {
	return func(t *storage.Tuple) int {
		return storage.Compare(KeyOf(t, f), k)
	}
}

// KeyPos is PosFor's position function bound once to a reusable value
// instead of built as a closure per key: Pos compares a tuple's field
// with Key, which the owner sets before each search. Searches through
// one KeyPos must not overlap, and an owner clears Key after a search so
// that it holds no string past it. GetKeyPos lends one for a single
// probe.
type KeyPos struct {
	Key   storage.Value
	Pos   index.Pos[*storage.Tuple] // p.compare, bound by NewKeyPos
	field int
}

// NewKeyPos returns a KeyPos over field f with a NULL key.
func NewKeyPos(f int) *KeyPos {
	p := &KeyPos{field: f}
	p.Pos = p.compare
	return p
}

func (p *KeyPos) compare(t *storage.Tuple) int {
	return storage.Compare(KeyOf(t, p.field), p.Key)
}

var keyPosPool = sync.Pool{New: func() any { return NewKeyPos(0) }}

// GetKeyPos takes a pooled KeyPos for key k on field f; PutKeyPos
// returns it once the search is over (an index keeps no position
// function past its search).
func GetKeyPos(k storage.Value, f int) *KeyPos {
	p := keyPosPool.Get().(*KeyPos)
	p.Key, p.field = k, f
	return p
}

// PutKeyPos clears p's key and returns p to the pool.
func PutKeyPos(p *KeyPos) {
	p.Key = storage.NullValue
	keyPosPool.Put(p)
}

// NewTTree builds an empty T Tree over tuples.
func NewTTree(o Options) *ttree.Tree[*storage.Tuple] { return ttree.New(Config(o)) }

// NewAVL builds an empty AVL tree over tuples.
func NewAVL(o Options) *avltree.Tree[*storage.Tuple] { return avltree.New(Config(o)) }

// NewBTree builds an empty B Tree over tuples.
func NewBTree(o Options) *btree.Tree[*storage.Tuple] { return btree.New(Config(o)) }

// NewArray builds an empty sorted-array index over tuples.
func NewArray(o Options) *sortedarray.Array[*storage.Tuple] { return sortedarray.New(Config(o)) }

// BuildArray bulk-loads a sorted-array index (append + quicksort), the
// construction path of the Sort Merge join.
func BuildArray(o Options, tuples []*storage.Tuple) *sortedarray.Array[*storage.Tuple] {
	return sortedarray.Build(Config(o), tuples)
}

// NewChainHash builds a static chained-bucket hash table over tuples.
func NewChainHash(o Options) *chainhash.Table[*storage.Tuple] { return chainhash.New(Config(o)) }

// NewExtendible builds an extendible hash table over tuples.
func NewExtendible(o Options) *exthash.Table[*storage.Tuple] { return exthash.New(Config(o)) }

// NewLinearHash builds a linear hash table over tuples.
func NewLinearHash(o Options) *linearhash.Table[*storage.Tuple] { return linearhash.New(Config(o)) }

// NewMLH builds a modified linear hash table over tuples.
func NewMLH(o Options) *mlh.Table[*storage.Tuple] { return mlh.New(Config(o)) }

// NewOrdered builds an order-preserving index of the given kind.
func NewOrdered(k index.Kind, o Options) (Ordered, error) {
	switch k {
	case index.KindArray:
		return NewArray(o), nil
	case index.KindAVL:
		return NewAVL(o), nil
	case index.KindBTree:
		return NewBTree(o), nil
	case index.KindTTree:
		return NewTTree(o), nil
	default:
		return nil, fmt.Errorf("tupleindex: %v is not order-preserving", k)
	}
}

// NewHashed builds a hash index of the given kind.
func NewHashed(k index.Kind, o Options) (Hashed, error) {
	switch k {
	case index.KindChainedHash:
		return NewChainHash(o), nil
	case index.KindExtendible:
		return NewExtendible(o), nil
	case index.KindLinearHash:
		return NewLinearHash(o), nil
	case index.KindModLinearHash:
		return NewMLH(o), nil
	default:
		return nil, fmt.Errorf("tupleindex: %v is not a hash structure", k)
	}
}

// Maintainer keeps an index in sync with its relation through the
// storage.Observer hooks. Register it with Relation.Observe.
type Maintainer struct {
	Field  int
	Insert func(*storage.Tuple) bool
	Remove func(*storage.Tuple) bool
}

// TupleInserted implements storage.Observer.
func (m *Maintainer) TupleInserted(t *storage.Tuple) { m.Insert(t) }

// TupleDeleted implements storage.Observer.
func (m *Maintainer) TupleDeleted(t *storage.Tuple) { m.Remove(t) }

// TupleUpdating implements storage.Observer: before an indexed field
// changes, the entry is removed while its current key is still observable
// — afterwards the entry would dereference to the new value and become
// unfindable at its old tree position.
func (m *Maintainer) TupleUpdating(t *storage.Tuple, f int, v storage.Value) {
	if m.Field == SelfField || f != m.Field {
		return
	}
	if storage.Equal(t.Field(f), v) {
		return
	}
	m.Remove(t)
}

// TupleUpdated implements storage.Observer: after an indexed field
// changed, the entry (removed by TupleUpdating) is re-inserted at its new
// position.
func (m *Maintainer) TupleUpdated(t *storage.Tuple, old storage.Version) {
	if m.Field == SelfField {
		return // identity never changes on update
	}
	if storage.Equal(old.At(m.Field), t.Field(m.Field)) {
		return
	}
	m.Insert(t)
}
