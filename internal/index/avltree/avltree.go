// Package avltree implements the AVL Tree [AHU74] as studied in §3.2: a
// height-balanced binary tree with one element per node. Searching is fast
// — one comparison then a pointer follow, with no arithmetic — but storage
// utilization is poor: two node pointers for every data item (the paper's
// storage factor of 3).
package avltree

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/meter"
)

// Tree is an AVL tree. The zero value is not usable; call New.
type Tree[E any] struct {
	cfg  index.Config[E]
	cmp  func(a, b E) int
	same func(a, b E) bool
	m    *meter.Counters
	root *node[E]
	size int
}

type node[E any] struct {
	left, right *node[E]
	item        E
	height      int
}

// New creates an empty AVL tree. cfg.Cmp is required; NodeSize is ignored
// (every node holds exactly one item).
func New[E any](cfg index.Config[E]) *Tree[E] {
	if cfg.Cmp == nil {
		panic("avltree: Config.Cmp is required")
	}
	return &Tree[E]{cfg: cfg, cmp: cfg.Cmp, same: cfg.SameOrEq(), m: cfg.Meter}
}

// Len returns the number of entries.
func (t *Tree[E]) Len() int { return t.size }

func height[E any](n *node[E]) int {
	if n == nil {
		return 0
	}
	return n.height
}

func (n *node[E]) update() {
	l, r := height(n.left), height(n.right)
	if l > r {
		n.height = l + 1
	} else {
		n.height = r + 1
	}
}

// Insert adds e; false when unique and a key-equal entry exists.
func (t *Tree[E]) Insert(e E) bool {
	root, ok := t.insert(t.root, e)
	if ok {
		t.root = root
		t.size++
	}
	return ok
}

func (t *Tree[E]) insert(n *node[E], e E) (*node[E], bool) {
	if n == nil {
		t.m.AddAlloc(1)
		return &node[E]{item: e, height: 1}, true
	}
	t.m.AddNode(1)
	t.m.AddCompare(1)
	c := t.cmp(e, n.item)
	if c == 0 && t.cfg.Unique {
		return n, false
	}
	var ok bool
	if c < 0 {
		var sub *node[E]
		sub, ok = t.insert(n.left, e)
		if !ok {
			return n, false
		}
		n.left = sub
	} else {
		var sub *node[E]
		sub, ok = t.insert(n.right, e)
		if !ok {
			return n, false
		}
		n.right = sub
	}
	return t.balance(n), true
}

// Delete removes the entry identical to e among key-equal entries.
func (t *Tree[E]) Delete(e E) bool {
	root, ok := t.delete(t.root, e)
	if ok {
		t.root = root
		t.size--
	}
	return ok
}

func (t *Tree[E]) delete(n *node[E], e E) (*node[E], bool) {
	if n == nil {
		return nil, false
	}
	t.m.AddNode(1)
	t.m.AddCompare(1)
	switch c := t.cmp(e, n.item); {
	case c < 0:
		sub, ok := t.delete(n.left, e)
		if !ok {
			return n, false
		}
		n.left = sub
	case c > 0:
		sub, ok := t.delete(n.right, e)
		if !ok {
			return n, false
		}
		n.right = sub
	default:
		if t.same(n.item, e) {
			return t.removeNode(n), true
		}
		// Key-equal duplicates may hide in either subtree.
		if sub, ok := t.delete(n.left, e); ok {
			n.left = sub
			break
		}
		sub, ok := t.delete(n.right, e)
		if !ok {
			return n, false
		}
		n.right = sub
	}
	return t.balance(n), true
}

func (t *Tree[E]) removeNode(n *node[E]) *node[E] {
	switch {
	case n.left == nil:
		return n.right
	case n.right == nil:
		return n.left
	default:
		// Replace with in-order successor, then delete it from the right
		// subtree.
		sub, succ := t.removeMin(n.right)
		n.item = succ
		n.right = sub
		t.m.AddMove(1)
		return t.balance(n)
	}
}

func (t *Tree[E]) removeMin(n *node[E]) (*node[E], E) {
	if n.left == nil {
		return n.right, n.item
	}
	sub, min := t.removeMin(n.left)
	n.left = sub
	return t.balance(n), min
}

func (t *Tree[E]) balance(n *node[E]) *node[E] {
	n.update()
	switch b := height(n.left) - height(n.right); {
	case b > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = t.rotateLeft(n.left)
		}
		return t.rotateRight(n)
	case b < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = t.rotateRight(n.right)
		}
		return t.rotateLeft(n)
	default:
		return n
	}
}

func (t *Tree[E]) rotateRight(a *node[E]) *node[E] {
	t.m.AddRotation(1)
	b := a.left
	a.left = b.right
	b.right = a
	a.update()
	b.update()
	return b
}

func (t *Tree[E]) rotateLeft(a *node[E]) *node[E] {
	t.m.AddRotation(1)
	b := a.right
	a.right = b.left
	b.left = a
	a.update()
	b.update()
	return b
}

// Search returns an entry matching pos: one comparison per node, then a
// pointer follow — the "hardwired" binary search of §3.2.2.
func (t *Tree[E]) Search(pos index.Pos[E]) (E, bool) {
	n := t.root
	for n != nil {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		switch c := pos(n.item); {
		case c == 0:
			return n.item, true
		case c > 0:
			n = n.left
		default:
			n = n.right
		}
	}
	var zero E
	return zero, false
}

// iter is an explicit-stack in-order iterator (AVL nodes carry no parent
// pointers).
type iter[E any] struct{ stack []*node[E] }

func (it *iter[E]) pushLeft(n *node[E]) {
	for n != nil {
		it.stack = append(it.stack, n)
		n = n.left
	}
}

func (it *iter[E]) next() (*node[E], bool) {
	if len(it.stack) == 0 {
		return nil, false
	}
	n := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	it.pushLeft(n.right)
	return n, true
}

// lowerBound positions an iterator at the first entry with pos(e) >= 0.
// The descent stacks at most one node per level, so the stack is sized
// once for the tree's height.
func (t *Tree[E]) lowerBound(pos index.Pos[E]) iter[E] {
	it := iter[E]{stack: make([]*node[E], 0, height(t.root))}
	n := t.root
	for n != nil {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if pos(n.item) >= 0 {
			it.stack = append(it.stack, n)
			n = n.left
		} else {
			n = n.right
		}
	}
	return it
}

// SearchAllAppend appends every entry matching pos to out, ascending: the
// lowerBound descent (one node and one comparison per level), then an
// in-order walk of the equal run.
func (t *Tree[E]) SearchAllAppend(pos index.Pos[E], out []E) []E {
	it := t.lowerBound(pos)
	for {
		n, ok := it.next()
		if !ok || pos(n.item) != 0 {
			return out
		}
		out = append(out, n.item)
	}
}

// Range visits entries between the keys described by lo and hi, ascending.
func (t *Tree[E]) Range(lo, hi index.Pos[E], fn func(E) bool) {
	it := t.lowerBound(lo)
	for {
		n, ok := it.next()
		if !ok || hi(n.item) > 0 {
			return
		}
		if !fn(n.item) {
			return
		}
	}
}

// ScanBatches hands all entries to fn in ascending blocks gathered into
// buf (a 256-entry block when buf has no capacity). The block is reused
// between calls; fn must not retain it.
func (t *Tree[E]) ScanBatches(buf []E, fn func(block []E) bool) {
	if cap(buf) == 0 {
		buf = make([]E, 0, 256)
	}
	if buf, ok := scanNode(t.root, buf[:0], fn); ok && len(buf) > 0 {
		fn(buf)
	}
}

// scanNode gathers the subtree of n in order into buf, handing buf to fn
// each time it fills; it reports false once fn stops the scan.
func scanNode[E any](n *node[E], buf []E, fn func(block []E) bool) ([]E, bool) {
	if n == nil {
		return buf, true
	}
	buf, ok := scanNode(n.left, buf, fn)
	if !ok {
		return buf, false
	}
	buf = append(buf, n.item)
	if len(buf) == cap(buf) {
		if !fn(buf) {
			return buf, false
		}
		buf = buf[:0]
	}
	return scanNode(n.right, buf, fn)
}

// Stats reports the structure's shape: one entry, two child pointers per
// node. The balance information hides in otherwise-unused pointer bits, as
// the paper's factor-of-3 accounting assumes.
func (t *Tree[E]) Stats() index.Stats {
	return index.Stats{
		Entries:    t.size,
		EntrySlots: t.size,
		Nodes:      t.size,
		ChildPtrs:  2 * t.size,
	}
}

// checkInvariants verifies AVL ordering and balance; exported to tests.
func (t *Tree[E]) checkInvariants() error {
	count := 0
	var prev *E
	var walk func(n *node[E]) error
	walk = func(n *node[E]) error {
		if n == nil {
			return nil
		}
		if err := walk(n.left); err != nil {
			return err
		}
		if prev != nil && t.cmp(*prev, n.item) > 0 {
			return fmt.Errorf("order violated")
		}
		item := n.item
		prev = &item
		count++
		lh, rh := height(n.left), height(n.right)
		want := lh
		if rh > want {
			want = rh
		}
		if n.height != want+1 {
			return fmt.Errorf("stale height")
		}
		if b := lh - rh; b > 1 || b < -1 {
			return fmt.Errorf("unbalanced node (balance %d)", b)
		}
		return walk(n.right)
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d nodes", t.size, count)
	}
	return nil
}
