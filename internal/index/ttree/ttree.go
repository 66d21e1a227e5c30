// Package ttree implements the T Tree of Lehman & Carey (§3.2.1): a
// balanced binary tree whose nodes hold many elements, combining the
// intrinsic binary-search structure of the AVL Tree with the storage and
// update behaviour of the B Tree.
//
// Terminology follows the paper. A node with two subtrees is an internal
// node; one NIL child makes a half-leaf; two NIL children make a leaf. A
// node N "bounds" value x when min(N) <= x <= max(N). Internal nodes keep
// their occupancy between a minimum and maximum count whose small gap
// ("on the order of one or two items") absorbs inserts and deletes without
// tree rotations; leaves and half-leaves range from zero to the maximum.
// Overflowing an internal node transfers its minimum element down to
// become the new greatest lower bound; underflow borrows the greatest
// lower bound back from a leaf (footnote 5: moving the minimum /
// borrowing the GLB is cheaper than the symmetric choice).
package ttree

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/meter"
)

// DefaultNodeSize is the default maximum node occupancy; the index study
// found medium node sizes give the T Tree both good performance and a low
// storage factor.
const DefaultNodeSize = 30

// DefaultMinGap is how far the minimum count sits below the maximum for
// internal nodes ("usually differ by just a small amount, on the order of
// one or two items").
const DefaultMinGap = 2

// Tree is a T Tree. The zero value is not usable; call New.
type Tree[E any] struct {
	cfg      index.Config[E]
	cmp      func(a, b E) int
	same     func(a, b E) bool
	m        *meter.Counters
	root     *node[E]
	size     int
	maxCount int
	minCount int
	// last is the rightmost node, the one holding the maximum. Only
	// writers set it; Search reads it, so readers that run beside each
	// other (never beside a writer) share it safely.
	last *node[E]
}

type node[E any] struct {
	parent, left, right *node[E]
	items               []E // sorted; len in [1, maxCount] except transiently
	height              int // leaf = 1
}

// New creates an empty T Tree. cfg.Cmp is required; cfg.NodeSize sets the
// maximum node occupancy (default DefaultNodeSize, minimum 2).
func New[E any](cfg index.Config[E]) *Tree[E] {
	return NewWithGap(cfg, DefaultMinGap)
}

// NewWithGap creates a T Tree whose internal-node minimum count sits gap
// items below the maximum. The paper observes that a gap of one or two
// items is "enough to significantly reduce the need for tree rotations";
// the ablation benchmark sweeps this parameter.
func NewWithGap[E any](cfg index.Config[E], gap int) *Tree[E] {
	if cfg.Cmp == nil {
		panic("ttree: Config.Cmp is required")
	}
	max := cfg.NodeSize
	if max <= 0 {
		max = DefaultNodeSize
	}
	if max < 2 {
		max = 2
	}
	if gap < 0 {
		gap = 0
	}
	min := max - gap
	if min < 1 {
		min = 1
	}
	return &Tree[E]{
		cfg:      cfg,
		cmp:      cfg.Cmp,
		same:     cfg.SameOrEq(),
		m:        cfg.Meter,
		maxCount: max,
		minCount: min,
	}
}

// Len returns the number of entries.
func (t *Tree[E]) Len() int { return t.size }

func (n *node[E]) min() E { return n.items[0] }
func (n *node[E]) max() E { return n.items[len(n.items)-1] }

func height[E any](n *node[E]) int {
	if n == nil {
		return 0
	}
	return n.height
}

func (n *node[E]) updateHeight() {
	l, r := height(n.left), height(n.right)
	if l > r {
		n.height = l + 1
	} else {
		n.height = r + 1
	}
}

func (n *node[E]) balance() int { return height(n.left) - height(n.right) }

// Insert adds e. With a unique tree, it returns false when an equal entry
// exists. A key above the maximum goes straight to the rightmost node:
// the descent from the root would end there too, at the same
// insertAtEdge call, so an ascending load pays one compare an entry
// instead of two per level.
func (t *Tree[E]) Insert(e E) bool {
	if t.root == nil {
		t.root = t.newNode(nil, e)
		t.last = t.root
		t.size++
		return true
	}
	t.m.AddNode(1)
	t.m.AddCompare(1)
	if t.cmp(e, t.last.max()) > 0 {
		return t.insertAtEdge(t.last, e, false)
	}
	n := t.root
	for {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if t.cmp(e, n.min()) < 0 {
			if n.left == nil {
				return t.insertAtEdge(n, e, true)
			}
			n = n.left
			continue
		}
		t.m.AddCompare(1)
		if t.cmp(e, n.max()) > 0 {
			if n.right == nil {
				return t.insertAtEdge(n, e, false)
			}
			n = n.right
			continue
		}
		return t.insertBounded(n, e)
	}
}

// insertAtEdge handles an unbounded insert that ended at node n going left
// (front=true) or right (front=false) with no child on that side.
func (t *Tree[E]) insertAtEdge(n *node[E], e E, front bool) bool {
	// e is strictly outside n's range, so no unique-violation is possible.
	if len(n.items) < t.maxCount {
		if front {
			n.items = append(n.items, e) // grow
			copy(n.items[1:], n.items)
			n.items[0] = e
			t.m.AddMove(int64(len(n.items)))
		} else {
			n.items = append(n.items, e)
			t.m.AddMove(1)
		}
		t.size++
		return true
	}
	// Node full: a new leaf is added and the tree is rebalanced.
	leaf := t.newNode(n, e)
	if front {
		n.left = leaf
	} else {
		n.right = leaf
		if n == t.last {
			t.last = leaf
		}
	}
	t.size++
	t.rebalanceFrom(n)
	return true
}

// insertBounded inserts e into its bounding node n, transferring n's
// minimum element to the greatest-lower-bound leaf on overflow.
func (t *Tree[E]) insertBounded(n *node[E], e E) bool {
	pos := t.searchNode(n, func(x E) int { return t.cmp(x, e) })
	if t.cfg.Unique && pos < len(n.items) && t.cmp(n.items[pos], e) == 0 {
		t.m.AddCompare(1)
		return false
	}
	if len(n.items) < t.maxCount {
		n.items = append(n.items, e)
		copy(n.items[pos+1:], n.items[pos:])
		n.items[pos] = e
		t.m.AddMove(int64(len(n.items) - pos))
		t.size++
		return true
	}
	// Overflow: the minimum element moves down to become the new greatest
	// lower bound of this node. When e is key-equal to the current
	// minimum (pos == 0, duplicates), e itself plays that role and the
	// node is untouched.
	t.size++
	if pos == 0 {
		t.pushDownGLB(n, e)
		return true
	}
	min := n.items[0]
	copy(n.items[:pos], n.items[1:pos])
	n.items[pos-1] = e
	t.m.AddMove(int64(pos))
	t.pushDownGLB(n, min)
	return true
}

// pushDownGLB stores m as the new greatest lower bound of n: appended to
// the rightmost node of n's left subtree, or as a new left child.
func (t *Tree[E]) pushDownGLB(n *node[E], m E) {
	if n.left == nil {
		leaf := t.newNode(n, m)
		n.left = leaf
		t.rebalanceFrom(n)
		return
	}
	g := n.left
	for g.right != nil {
		t.m.AddNode(1)
		g = g.right
	}
	if len(g.items) < t.maxCount {
		g.items = append(g.items, m)
		t.m.AddMove(1)
		return
	}
	leaf := t.newNode(g, m)
	g.right = leaf
	t.rebalanceFrom(g)
}

// Delete removes the entry identical to e (per Config.Same) among the
// entries key-equal to e. It returns false when none matches.
func (t *Tree[E]) Delete(e E) bool {
	n, i := t.findIdentical(e)
	if n == nil {
		return false
	}
	t.removeAt(n, i)
	return true
}

// findIdentical locates the (node, index) of the entry identical to e.
func (t *Tree[E]) findIdentical(e E) (*node[E], int) {
	c := t.lowerBound(func(x E) int { return t.cmp(x, e) })
	for c.valid() {
		x := c.entry()
		t.m.AddCompare(1)
		if t.cmp(x, e) != 0 {
			return nil, 0
		}
		if t.same(x, e) {
			return c.n, c.i
		}
		c.next()
	}
	return nil, 0
}

// removeAt deletes items[i] from node n, applying the paper's underflow
// rules.
func (t *Tree[E]) removeAt(n *node[E], i int) {
	copy(n.items[i:], n.items[i+1:])
	n.items = n.items[:len(n.items)-1]
	t.m.AddMove(int64(len(n.items) - i + 1))
	t.size--

	if n.left != nil && n.right != nil {
		// Internal node: keep occupancy at or above the minimum count by
		// borrowing the greatest lower bound from a leaf.
		if len(n.items) < t.minCount {
			g := n.left
			for g.right != nil {
				t.m.AddNode(1)
				g = g.right
			}
			glb := g.items[len(g.items)-1]
			g.items = g.items[:len(g.items)-1]
			n.items = append(n.items, glb)
			copy(n.items[1:], n.items)
			n.items[0] = glb
			t.m.AddMove(int64(len(n.items)) + 1)
			if len(g.items) == 0 {
				t.removeNode(g)
			}
		}
		return
	}
	// Leaf or half-leaf: may drain to empty, then the node is removed.
	if len(n.items) == 0 {
		t.removeNode(n)
	}
}

// removeNode splices out a node with at most one child and rebalances.
// Rotations keep the in-order sequence, so only splicing out the rightmost
// node itself moves it.
func (t *Tree[E]) removeNode(n *node[E]) {
	child := n.left
	if child == nil {
		child = n.right
	}
	if child != nil {
		child.parent = n.parent
	}
	p := n.parent
	switch {
	case p == nil:
		t.root = child
	case p.left == n:
		p.left = child
	default:
		p.right = child
	}
	n.parent, n.left, n.right = nil, nil, nil
	if p != nil {
		t.rebalanceFrom(p)
	}
	if n == t.last {
		t.last = t.rightmost()
	}
}

// rightmost walks the right spine from the root; nil for an empty tree.
func (t *Tree[E]) rightmost() *node[E] {
	n := t.root
	for n != nil && n.right != nil {
		n = n.right
	}
	return n
}

// rebalanceFrom walks from n to the root, refreshing heights and rotating
// wherever the AVL balance condition breaks.
func (t *Tree[E]) rebalanceFrom(n *node[E]) {
	for n != nil {
		n.updateHeight()
		switch b := n.balance(); {
		case b > 1:
			if height(n.left.left) >= height(n.left.right) {
				n = t.rotateRight(n)
			} else {
				n = t.rotateLeftRight(n)
			}
		case b < -1:
			if height(n.right.right) >= height(n.right.left) {
				n = t.rotateLeft(n)
			} else {
				n = t.rotateRightLeft(n)
			}
		}
		n = n.parent
	}
}

// rotateRight performs the LL rotation; returns the subtree's new root.
func (t *Tree[E]) rotateRight(a *node[E]) *node[E] {
	t.m.AddRotation(1)
	b := a.left
	t.replaceChild(a, b)
	a.left = b.right
	if a.left != nil {
		a.left.parent = a
	}
	b.right = a
	a.parent = b
	a.updateHeight()
	b.updateHeight()
	return b
}

// rotateLeft performs the RR rotation; returns the subtree's new root.
func (t *Tree[E]) rotateLeft(a *node[E]) *node[E] {
	t.m.AddRotation(1)
	b := a.right
	t.replaceChild(a, b)
	a.right = b.left
	if a.right != nil {
		a.right.parent = a
	}
	b.left = a
	a.parent = b
	a.updateHeight()
	b.updateHeight()
	return b
}

// rotateLeftRight performs the LR double rotation. When the promoted node
// is a nearly-empty leaf, elements slide into it from the old parent so it
// satisfies the internal-node minimum count — the special T Tree rotation
// of [LeC85].
func (t *Tree[E]) rotateLeftRight(a *node[E]) *node[E] {
	b := a.left
	c := b.right
	// The slide is only order-safe when nothing sits between b's items and
	// c's items — i.e. c has no left subtree (the paper's special case
	// rotates up a leaf).
	if c.left == nil {
		t.slideInto(c, b, true)
	}
	t.rotateLeft(b)
	return t.rotateRight(a)
}

// rotateRightLeft is the mirror RL double rotation.
func (t *Tree[E]) rotateRightLeft(a *node[E]) *node[E] {
	b := a.right
	c := b.left
	if c.right == nil {
		t.slideInto(c, b, false)
	}
	t.rotateRight(b)
	return t.rotateLeft(a)
}

// slideInto tops up c (about to become an internal node) from b. fromMax
// selects b's tail (b precedes c in order) or head (c precedes b). The
// caller guarantees no subtree lies between b's and c's item ranges.
func (t *Tree[E]) slideInto(c, b *node[E], fromMax bool) {
	for len(c.items) < t.minCount && len(b.items) > 1 {
		if fromMax {
			m := b.items[len(b.items)-1]
			b.items = b.items[:len(b.items)-1]
			c.items = append(c.items, m)
			copy(c.items[1:], c.items)
			c.items[0] = m
			t.m.AddMove(int64(len(c.items)))
		} else {
			m := b.items[0]
			copy(b.items, b.items[1:])
			b.items = b.items[:len(b.items)-1]
			c.items = append(c.items, m)
			t.m.AddMove(int64(len(b.items)) + 1)
		}
	}
}

func (t *Tree[E]) replaceChild(old, new *node[E]) {
	p := old.parent
	new.parent = p
	switch {
	case p == nil:
		t.root = new
	case p.left == old:
		p.left = new
	default:
		p.right = new
	}
}

func (t *Tree[E]) newNode(parent *node[E], e E) *node[E] {
	t.m.AddAlloc(1)
	n := &node[E]{parent: parent, items: make([]E, 1, t.maxCount), height: 1}
	n.items[0] = e
	return n
}

// searchNode binary-searches a node for the first index whose item is not
// less than the target described by pos (pos(e) >= 0).
func (t *Tree[E]) searchNode(n *node[E], pos index.Pos[E]) int {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t.m.AddCompare(1)
		if pos(n.items[mid]) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Search returns an entry matching pos: a binary tree search on node
// bounds followed by a binary search of the final node (§3.2.1). A key
// above the maximum is reported absent after one compare against the
// rightmost node — the unique check of an ascending insert.
func (t *Tree[E]) Search(pos index.Pos[E]) (E, bool) {
	var zero E
	if t.last != nil {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if pos(t.last.max()) < 0 {
			return zero, false
		}
	}
	n := t.root
	for n != nil {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if pos(n.min()) > 0 {
			n = n.left
			continue
		}
		t.m.AddCompare(1)
		if pos(n.max()) < 0 {
			n = n.right
			continue
		}
		i := t.searchNode(n, pos)
		if i < len(n.items) && pos(n.items[i]) == 0 {
			t.m.AddCompare(1)
			return n.items[i], true
		}
		return zero, false
	}
	return zero, false
}

// SearchAllAppend appends every entry matching pos to out and returns the
// extended slice. The lowerBound descent stops at the first matching
// entry; key-equal entries are logically contiguous (§3.3.4 Test 6) and
// contiguous within each node, so the scan of the equal run is one block
// append per node touched.
func (t *Tree[E]) SearchAllAppend(pos index.Pos[E], out []E) []E {
	c := t.lowerBound(pos)
	for c.valid() {
		items := c.n.items
		j := c.i
		for j < len(items) && pos(items[j]) == 0 {
			j++
		}
		out = append(out, items[c.i:j]...)
		if j < len(items) {
			return out
		}
		c.i = len(items) - 1
		c.next()
	}
	return out
}

// Range visits, ascending, every entry between the keys described by lo
// and hi (inclusive).
func (t *Tree[E]) Range(lo, hi index.Pos[E], fn func(E) bool) {
	c := t.lowerBound(lo)
	for c.valid() {
		e := c.entry()
		if hi(e) > 0 {
			return
		}
		if !fn(e) {
			return
		}
		c.next()
	}
}

// ScanBatches visits all entries in ascending order, handing them to fn
// in blocks gathered into buf (allocating a 256-entry block when buf has
// no capacity). Each T Tree node's items are already a sorted contiguous
// run, so gathering is one block copy per node rather than one callback
// per entry. The block is reused between calls; fn must not retain it.
func (t *Tree[E]) ScanBatches(buf []E, fn func(block []E) bool) {
	if cap(buf) == 0 {
		buf = make([]E, 0, 256)
	}
	buf = buf[:0]
	var walk func(n *node[E]) bool
	walk = func(n *node[E]) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		items := n.items
		for len(items) > 0 {
			take := cap(buf) - len(buf)
			if take > len(items) {
				take = len(items)
			}
			buf = append(buf, items[:take]...)
			items = items[take:]
			if len(buf) == cap(buf) {
				if !fn(buf) {
					return false
				}
				buf = buf[:0]
			}
		}
		return walk(n.right)
	}
	if walk(t.root) && len(buf) > 0 {
		fn(buf)
	}
}

// lowerBound returns a cursor at the first entry e (ascending) with
// pos(e) >= 0, or an invalid cursor when every entry is below the key.
func (t *Tree[E]) lowerBound(pos index.Pos[E]) cursor[E] {
	n := t.root
	var best cursor[E]
	for n != nil {
		t.m.AddNode(1)
		t.m.AddCompare(1)
		if pos(n.min()) >= 0 {
			// The whole node is at or above the key; remember its first
			// item and look for something smaller on the left.
			best = cursor[E]{n: n, i: 0}
			n = n.left
			continue
		}
		t.m.AddCompare(1)
		if pos(n.max()) < 0 {
			n = n.right
			continue
		}
		// The boundary falls inside this node.
		return cursor[E]{n: n, i: t.searchNode(n, pos)}
	}
	return best
}

// cursor is an in-order position (node, item index).
type cursor[E any] struct {
	n *node[E]
	i int
}

func (c *cursor[E]) valid() bool { return c.n != nil }
func (c *cursor[E]) entry() E    { return c.n.items[c.i] }

func (c *cursor[E]) next() {
	c.i++
	if c.i < len(c.n.items) {
		return
	}
	if c.n.right != nil {
		n := c.n.right
		for n.left != nil {
			n = n.left
		}
		c.n, c.i = n, 0
		return
	}
	n := c.n
	for n.parent != nil && n.parent.right == n {
		n = n.parent
	}
	c.n, c.i = n.parent, 0
}

// Cursor is an exported in-order iterator used by the Tree Merge join to
// co-iterate two T Trees. Mutating the tree invalidates cursors.
type Cursor[E any] struct{ c cursor[E] }

// First returns a cursor at the smallest entry.
func (t *Tree[E]) First() Cursor[E] {
	n := t.root
	if n == nil {
		return Cursor[E]{}
	}
	for n.left != nil {
		n = n.left
	}
	return Cursor[E]{cursor[E]{n: n, i: 0}}
}

// Valid reports whether the cursor addresses an entry.
func (c *Cursor[E]) Valid() bool { return c.c.valid() }

// Entry returns the current entry.
func (c *Cursor[E]) Entry() E { return c.c.entry() }

// Next advances to the next entry in ascending order.
func (c *Cursor[E]) Next() { c.c.next() }

// Stats reports the structure's allocated shape. Each node carries three
// pointers (parent, left, right — Figure 4) and two control words (count
// and height).
func (t *Tree[E]) Stats() index.Stats {
	s := index.Stats{Entries: t.size}
	var walk func(n *node[E])
	walk = func(n *node[E]) {
		if n == nil {
			return
		}
		s.Nodes++
		s.EntrySlots += cap(n.items)
		s.ChildPtrs += 3
		s.ControlWords += 2
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return s
}

// checkInvariants verifies the T Tree structural invariants; tests call
// this through the Validate export in export_test.go.
func (t *Tree[E]) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("empty tree with size %d", t.size)
		}
		if t.last != nil {
			return fmt.Errorf("empty tree keeps a last pointer")
		}
		return nil
	}
	if t.root.parent != nil {
		return fmt.Errorf("root has a parent")
	}
	if r := t.rightmost(); t.last != r {
		return fmt.Errorf("last pointer is not the rightmost node")
	}
	count := 0
	var prev *E
	var walk func(n *node[E]) error
	walk = func(n *node[E]) error {
		if n == nil {
			return nil
		}
		if n.left != nil && n.left.parent != n {
			return fmt.Errorf("broken parent pointer (left)")
		}
		if n.right != nil && n.right.parent != n {
			return fmt.Errorf("broken parent pointer (right)")
		}
		if err := walk(n.left); err != nil {
			return err
		}
		if len(n.items) == 0 {
			return fmt.Errorf("empty node in tree")
		}
		if len(n.items) > t.maxCount {
			return fmt.Errorf("node occupancy %d exceeds max %d", len(n.items), t.maxCount)
		}
		// Internal nodes target [minCount, maxCount] occupancy; rotations
		// that promote a thin leaf can transiently leave an internal node
		// below the minimum (slideInto narrows but cannot always close the
		// gap), so only emptiness is a hard structural error.
		for i, e := range n.items {
			e := e
			if prev != nil && t.cmp(*prev, e) > 0 {
				return fmt.Errorf("order violated at node item %d", i)
			}
			prev = &e
			count++
		}
		lh, rh := height(n.left), height(n.right)
		want := lh
		if rh > lh {
			want = rh
		}
		if n.height != want+1 {
			return fmt.Errorf("stale height: have %d, want %d", n.height, want+1)
		}
		if b := lh - rh; b > 1 || b < -1 {
			return fmt.Errorf("unbalanced node: balance %d", b)
		}
		return walk(n.right)
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d items found", t.size, count)
	}
	return nil
}
