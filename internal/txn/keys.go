package txn

import (
	"fmt"

	"repro/internal/storage"
)

// keyCheck is Commit's validation pass over the buffered ops, in buffer
// order. It fails the commit before anything is applied when an op would
// fail as it applied: a write to a tuple that is dead, of another
// relation, or deleted by an earlier op, or a key that a unique index
// already holds at the point the op would apply. A key is held by a
// committed tuple unless an earlier op deleted that tuple or moved it off
// the key, and by an earlier op that claimed it and still holds it.
//
// Most transactions never need the ledger of their own claims and frees.
// While no op has freed a key, a claim on a key above every key the
// transaction claimed earlier on the same index cannot collide with its
// own ops, so only the committed index is asked — one lookup, as the
// apply-time check it replaces made. The first op that breaks this (a key
// update or delete with ops after it, or a key not above the earlier
// claims) replays the ops before it into the ledger, which from then on
// records every claim and free.
type keyCheck struct {
	tops [2]topKey // highest key claimed per unique index, while led is nil
	ntop int
	led  *ledger
}

// topKey is the highest key the transaction claimed on one unique index.
type topKey struct {
	rel   *storage.Relation
	field int
	key   storage.Value
}

// ledger records what the ops before the one being checked did to the
// unique keys and tuples they touched.
type ledger struct {
	claims map[uint64][]claim          // by storage.Hash of the key
	moved  map[slotRef]storage.Value   // pending value of a committed tuple's unique field
	gone   map[*storage.Tuple]struct{} // committed tuples deleted
}

// claim is a key an earlier op took: an insert's (owner nil) or a key
// update's (owner the canonical tuple, holding it until moved again).
type claim struct {
	rel   *storage.Relation
	field int
	key   storage.Value
	owner *storage.Tuple
}

type slotRef struct {
	tp    *storage.Tuple
	field int
}

// check validates ops[i] against the committed state and ops[:i].
func (c *keyCheck) check(ops []op, i int) error {
	o := &ops[i]
	more := i < len(ops)-1
	switch o.kind {
	case opInsert:
		for _, k := range o.rel.UniqueKeys() {
			if key := o.tuple.Field(k.Field); !key.IsNull() {
				if err := c.claim(ops, i, o.rel, k, key, nil); err != nil {
					return fmt.Errorf("insert into %s: %w", o.rel.Name(), err)
				}
			}
		}
	case opUpdate, opDelete:
		tp := o.tuple.Canonical()
		if !o.tuple.Live() {
			return fmt.Errorf("tuple %d is dead", o.tuple.ID())
		}
		if tp.Partition().Relation() != o.rel {
			return fmt.Errorf("tuple %d belongs to another relation than %s", tp.ID(), o.rel.Name())
		}
		if c.led != nil {
			if _, ok := c.led.gone[tp]; ok {
				return fmt.Errorf("tuple %d is deleted earlier in the transaction", tp.ID())
			}
		}
		if o.kind == opDelete {
			if more && c.led == nil {
				c.start(ops[:i])
			}
			break
		}
		for _, k := range o.rel.UniqueKeys() {
			if k.Field != int(o.field) {
				continue
			}
			if more && c.led == nil {
				c.start(ops[:i]) // the update frees the tuple's key
			}
			if !o.val.IsNull() {
				if err := c.claim(ops, i, o.rel, k, o.val, tp); err != nil {
					return fmt.Errorf("update %s: %w", o.rel.Name(), err)
				}
			}
		}
	}
	if c.led != nil {
		c.led.note(o)
	}
	return nil
}

// claim checks that key is free on unique index k for owner (nil for an
// insert), at op i.
func (c *keyCheck) claim(ops []op, i int, rel *storage.Relation, k storage.UniqueKey, key storage.Value, owner *storage.Tuple) error {
	if c.led == nil && !c.ascends(rel, k.Field, key) {
		c.start(ops[:i])
	}
	held, found := k.Lookup(key)
	if found {
		h := held.Canonical()
		if h != owner && (c.led == nil || !c.led.freed(h, k.Field, key)) {
			return fmt.Errorf("unique index %q: duplicate key %s", k.Name, key)
		}
	}
	if c.led != nil && c.led.claimed(rel, k.Field, key, owner) {
		return fmt.Errorf("unique index %q: duplicate key %s", k.Name, key)
	}
	return nil
}

// ascends reports whether key lies above every key claimed earlier on the
// index, and records it as the highest. It reports false when it cannot
// tell: the index is one more than tops has room for.
func (c *keyCheck) ascends(rel *storage.Relation, field int, key storage.Value) bool {
	for j := range c.tops[:c.ntop] {
		t := &c.tops[j]
		if t.rel == rel && t.field == field {
			if storage.Compare(key, t.key) <= 0 {
				return false
			}
			t.key = key
			return true
		}
	}
	if c.ntop == len(c.tops) {
		return false
	}
	c.tops[c.ntop] = topKey{rel: rel, field: field, key: key}
	c.ntop++
	return true
}

// start turns the ledger on, replaying the ops already checked.
func (c *keyCheck) start(done []op) {
	c.led = &ledger{
		claims: map[uint64][]claim{},
		moved:  map[slotRef]storage.Value{},
		gone:   map[*storage.Tuple]struct{}{},
	}
	for j := range done {
		c.led.note(&done[j])
	}
}

// note records what o, already checked, claims and frees.
func (l *ledger) note(o *op) {
	switch o.kind {
	case opInsert:
		for _, k := range o.rel.UniqueKeys() {
			if key := o.tuple.Field(k.Field); !key.IsNull() {
				l.add(claim{rel: o.rel, field: k.Field, key: key})
			}
		}
	case opUpdate:
		for _, k := range o.rel.UniqueKeys() {
			if k.Field != int(o.field) {
				continue
			}
			tp := o.tuple.Canonical()
			l.moved[slotRef{tp, k.Field}] = o.val
			if !o.val.IsNull() {
				l.add(claim{rel: o.rel, field: k.Field, key: o.val, owner: tp})
			}
		}
	case opDelete:
		l.gone[o.tuple.Canonical()] = struct{}{}
	}
}

func (l *ledger) add(cl claim) {
	h := storage.Hash(cl.key)
	l.claims[h] = append(l.claims[h], cl)
}

// freed reports whether committed tuple tp, which holds key on field,
// gave the key up in an earlier op.
func (l *ledger) freed(tp *storage.Tuple, field int, key storage.Value) bool {
	if _, ok := l.gone[tp]; ok {
		return true
	}
	v, ok := l.moved[slotRef{tp, field}]
	return ok && !storage.Equal(v, key)
}

// claimed reports whether an earlier op other than owner's own claimed
// key on the index and still holds it.
func (l *ledger) claimed(rel *storage.Relation, field int, key storage.Value, owner *storage.Tuple) bool {
	for _, cl := range l.claims[storage.Hash(key)] {
		if cl.rel != rel || cl.field != field || !storage.Equal(cl.key, key) {
			continue
		}
		if cl.owner == nil {
			return true // an inserted row holds it
		}
		if cl.owner == owner {
			continue
		}
		if _, ok := l.gone[cl.owner]; ok {
			continue
		}
		if v := l.moved[slotRef{cl.owner, field}]; storage.Equal(v, key) {
			return true
		}
	}
	return false
}
