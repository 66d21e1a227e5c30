// Package btree implements the original B Tree [Com79] studied in §3.2 —
// not the B+ Tree: data items live in internal nodes too, so there are
// many data items per node pointer and storage utilization is good
// (footnote 3 reports the B+ Tree used more storage in main memory with
// no performance gain). Search does one binary search per node on the
// path, which the paper found slower than the "hardwired" single-compare
// descent of the AVL and T Trees.
package btree

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/meter"
)

// DefaultNodeSize is the default maximum items per node.
const DefaultNodeSize = 30

// Tree is a B Tree. The zero value is not usable; call New.
type Tree[E any] struct {
	cfg      index.Config[E]
	cmp      func(a, b E) int
	same     func(a, b E) bool
	m        *meter.Counters
	root     *node[E]
	height   int // levels from the root to the leaves; 0 when empty
	size     int
	maxItems int
	minItems int
}

type node[E any] struct {
	items    []E        // sorted; cap maxItems+1 (one slot of split slack)
	children []*node[E] // nil for leaves; len == len(items)+1 otherwise
}

func (n *node[E]) leaf() bool { return n.children == nil }

// New creates an empty B Tree. cfg.Cmp is required; cfg.NodeSize is the
// maximum items per node (minimum 2; default DefaultNodeSize).
func New[E any](cfg index.Config[E]) *Tree[E] {
	if cfg.Cmp == nil {
		panic("btree: Config.Cmp is required")
	}
	max := cfg.NodeSize
	if max <= 0 {
		max = DefaultNodeSize
	}
	if max < 2 {
		max = 2
	}
	return &Tree[E]{
		cfg:      cfg,
		cmp:      cfg.Cmp,
		same:     cfg.SameOrEq(),
		m:        cfg.Meter,
		maxItems: max,
		minItems: max / 2,
	}
}

// Len returns the number of entries.
func (t *Tree[E]) Len() int { return t.size }

func (t *Tree[E]) newNode(leaf bool) *node[E] {
	t.m.AddAlloc(1)
	n := &node[E]{items: make([]E, 0, t.maxItems+1)}
	if !leaf {
		n.children = make([]*node[E], 0, t.maxItems+2)
	}
	return n
}

// lowerBoundIn returns the first index in n.items whose item is not less
// than the key described by pos.
func (t *Tree[E]) lowerBoundIn(n *node[E], pos index.Pos[E]) int {
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

// Insert adds e; false when unique and a key-equal entry exists.
func (t *Tree[E]) Insert(e E) bool {
	if t.root == nil {
		t.root = t.newNode(true)
		t.height = 1
	}
	ok := t.insert(t.root, e)
	if !ok {
		return false
	}
	t.size++
	if len(t.root.items) > t.maxItems {
		// Split the root: the tree grows a level.
		mid, right := t.split(t.root)
		newRoot := t.newNode(false)
		newRoot.items = append(newRoot.items, mid)
		newRoot.children = append(newRoot.children, t.root, right)
		t.root = newRoot
		t.height++
	}
	return true
}

func (t *Tree[E]) insert(n *node[E], e E) bool {
	t.m.AddNode(1)
	i := t.lowerBoundIn(n, func(x E) int { return t.cmp(x, e) })
	if t.cfg.Unique && i < len(n.items) && t.cmp(n.items[i], e) == 0 {
		t.m.AddCompare(1)
		return false
	}
	if n.leaf() {
		n.items = append(n.items, e)
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = e
		t.m.AddMove(int64(len(n.items) - i))
		return true
	}
	if !t.insert(n.children[i], e) {
		return false
	}
	if len(n.children[i].items) > t.maxItems {
		mid, right := t.split(n.children[i])
		n.items = append(n.items, mid)
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = mid
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
		t.m.AddMove(int64(2*(len(n.items)-i) + 1))
	}
	return true
}

// split divides an overfull node around its median, returning the median
// and the new right sibling.
func (t *Tree[E]) split(n *node[E]) (E, *node[E]) {
	mid := len(n.items) / 2
	median := n.items[mid]
	right := t.newNode(n.leaf())
	right.items = append(right.items, n.items[mid+1:]...)
	n.items = n.items[:mid]
	t.m.AddMove(int64(len(right.items) + 1))
	if !n.leaf() {
		right.children = append(right.children, n.children[mid+1:]...)
		n.children = n.children[:mid+1]
	}
	return median, right
}

// Delete removes the entry identical to e among key-equal entries.
func (t *Tree[E]) Delete(e E) bool {
	if t.root == nil {
		return false
	}
	if !t.delete(t.root, e) {
		return false
	}
	t.size--
	if len(t.root.items) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
		t.height--
	}
	return true
}

// delete removes the identical entry from the subtree under n. Key-equal
// duplicates may straddle several children, so the equal range and the
// children interleaved with it are all candidates.
func (t *Tree[E]) delete(n *node[E], e E) bool {
	t.m.AddNode(1)
	i := t.lowerBoundIn(n, func(x E) int { return t.cmp(x, e) })
	for j := i; ; j++ {
		if !n.leaf() && t.delete(n.children[j], e) {
			t.fixChild(n, j)
			return true
		}
		if j >= len(n.items) {
			return false
		}
		t.m.AddCompare(1)
		if t.cmp(n.items[j], e) != 0 {
			return false
		}
		if t.same(n.items[j], e) {
			t.removeItem(n, j)
			return true
		}
	}
}

// removeItem deletes items[j] from n; in an internal node the predecessor
// from the left child takes its place.
func (t *Tree[E]) removeItem(n *node[E], j int) {
	if n.leaf() {
		copy(n.items[j:], n.items[j+1:])
		n.items = n.items[:len(n.items)-1]
		t.m.AddMove(int64(len(n.items) - j + 1))
		return
	}
	n.items[j] = t.deleteMax(n.children[j])
	t.m.AddMove(1)
	t.fixChild(n, j)
}

// deleteMax removes and returns the largest entry in the subtree.
func (t *Tree[E]) deleteMax(n *node[E]) E {
	if n.leaf() {
		e := n.items[len(n.items)-1]
		n.items = n.items[:len(n.items)-1]
		t.m.AddMove(1)
		return e
	}
	last := len(n.children) - 1
	e := t.deleteMax(n.children[last])
	t.fixChild(n, last)
	return e
}

// fixChild restores children[i]'s minimum occupancy by borrowing from a
// sibling or merging with one.
func (t *Tree[E]) fixChild(n *node[E], i int) {
	c := n.children[i]
	if len(c.items) >= t.minItems {
		return
	}
	if i > 0 && len(n.children[i-1].items) > t.minItems {
		// Borrow from the left sibling through the separator.
		l := n.children[i-1]
		c.items = append(c.items, n.items[i-1])
		copy(c.items[1:], c.items)
		c.items[0] = n.items[i-1]
		n.items[i-1] = l.items[len(l.items)-1]
		l.items = l.items[:len(l.items)-1]
		if !c.leaf() {
			c.children = append(c.children, nil)
			copy(c.children[1:], c.children)
			c.children[0] = l.children[len(l.children)-1]
			l.children = l.children[:len(l.children)-1]
		}
		t.m.AddMove(int64(len(c.items) + 2))
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > t.minItems {
		// Borrow from the right sibling through the separator.
		r := n.children[i+1]
		c.items = append(c.items, n.items[i])
		n.items[i] = r.items[0]
		copy(r.items, r.items[1:])
		r.items = r.items[:len(r.items)-1]
		if !c.leaf() {
			c.children = append(c.children, r.children[0])
			copy(r.children, r.children[1:])
			r.children = r.children[:len(r.children)-1]
		}
		t.m.AddMove(int64(len(r.items) + 2))
		return
	}
	// Merge with a sibling around the separator.
	if i == len(n.children)-1 {
		i--
	}
	l, r := n.children[i], n.children[i+1]
	l.items = append(l.items, n.items[i])
	l.items = append(l.items, r.items...)
	if !l.leaf() {
		l.children = append(l.children, r.children...)
	}
	t.m.AddMove(int64(len(r.items) + 1))
	copy(n.items[i:], n.items[i+1:])
	n.items = n.items[:len(n.items)-1]
	copy(n.children[i+1:], n.children[i+2:])
	n.children = n.children[:len(n.children)-1]
}

// Search runs one binary search per node along the root-to-match path.
func (t *Tree[E]) Search(pos index.Pos[E]) (E, bool) {
	n := t.root
	for n != nil {
		t.m.AddNode(1)
		i := t.lowerBoundIn(n, pos)
		if i < len(n.items) && pos(n.items[i]) == 0 {
			t.m.AddCompare(1)
			return n.items[i], true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	var zero E
	return zero, false
}

// frame is one pending position of the in-order iterator: items[i] of n is
// the next item this frame yields.
type frame[E any] struct {
	n *node[E]
	i int
}

type iter[E any] struct{ stack []frame[E] }

// pushLeftmost descends to the smallest entry of the subtree, stacking
// pending frames.
func (it *iter[E]) pushLeftmost(n *node[E]) {
	for n != nil && len(n.items) > 0 {
		it.stack = append(it.stack, frame[E]{n, 0})
		if n.leaf() {
			return
		}
		n = n.children[0]
	}
}

func (it *iter[E]) next() (E, bool) {
	var zero E
	if len(it.stack) == 0 {
		return zero, false
	}
	f := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	e := f.n.items[f.i]
	if f.i+1 < len(f.n.items) {
		it.stack = append(it.stack, frame[E]{f.n, f.i + 1})
	}
	if !f.n.leaf() {
		// Everything in children[i+1] comes before the frame we just
		// pushed, and it is stacked on top, so it pops first.
		it.pushLeftmost(f.n.children[f.i+1])
	}
	return e, true
}

// lowerBound builds an iterator positioned at the first entry with
// pos(e) >= 0. The iterator stacks at most one frame per level, so the
// stack is sized once for the tree's height.
func (t *Tree[E]) lowerBound(pos index.Pos[E]) iter[E] {
	it := iter[E]{stack: make([]frame[E], 0, t.height)}
	n := t.root
	for n != nil {
		t.m.AddNode(1)
		i := t.lowerBoundIn(n, pos)
		if i < len(n.items) {
			it.stack = append(it.stack, frame[E]{n, i})
		}
		if n.leaf() {
			return it
		}
		n = n.children[i]
	}
	return it
}

// SearchAllAppend appends every entry matching pos to out, ascending: the
// lowerBound descent (one node and a binary search per level), then an
// in-order walk of the equal run.
func (t *Tree[E]) SearchAllAppend(pos index.Pos[E], out []E) []E {
	it := t.lowerBound(pos)
	for {
		e, ok := it.next()
		if !ok || pos(e) != 0 {
			return out
		}
		out = append(out, e)
	}
}

// Range visits entries between the keys described by lo and hi, ascending.
func (t *Tree[E]) Range(lo, hi index.Pos[E], fn func(E) bool) {
	it := t.lowerBound(lo)
	for {
		e, ok := it.next()
		if !ok || hi(e) > 0 || !fn(e) {
			return
		}
	}
}

// ScanBatches hands all entries to fn in ascending blocks gathered into
// buf (a 256-entry block when buf has no capacity): a leaf's items move
// as one block copy. The block is reused between calls; fn must not
// retain it.
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
	if n.leaf() {
		return index.Gather(buf, n.items, fn)
	}
	ok := true
	for j := range n.items {
		if buf, ok = scanNode(n.children[j], buf, fn); !ok {
			return buf, false
		}
		if buf, ok = index.Gather(buf, n.items[j:j+1], fn); !ok {
			return buf, false
		}
	}
	return scanNode(n.children[len(n.items)], buf, fn)
}

// Stats reports the structure's shape: internal nodes carry N+1 child
// pointers for N items; leaves carry none (footnote 4).
func (t *Tree[E]) Stats() index.Stats {
	s := index.Stats{Entries: t.size}
	var walk func(n *node[E])
	walk = func(n *node[E]) {
		if n == nil {
			return
		}
		s.Nodes++
		s.EntrySlots += t.maxItems
		s.ControlWords++
		if !n.leaf() {
			s.ChildPtrs += t.maxItems + 1
			for _, c := range n.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return s
}

// checkInvariants verifies B Tree structure; exported to tests.
func (t *Tree[E]) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 || t.height != 0 {
			return fmt.Errorf("empty tree with size %d, height %d", t.size, t.height)
		}
		return nil
	}
	count := 0
	var prev *E
	var depth = -1
	var walk func(n *node[E], d int, isRoot bool) error
	walk = func(n *node[E], d int, isRoot bool) error {
		if len(n.items) == 0 {
			return fmt.Errorf("empty node")
		}
		if len(n.items) > t.maxItems {
			return fmt.Errorf("node has %d items, max %d", len(n.items), t.maxItems)
		}
		if !isRoot && len(n.items) < t.minItems {
			return fmt.Errorf("node has %d items, min %d", len(n.items), t.minItems)
		}
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("leaves at depths %d and %d", depth, d)
			}
			for _, e := range n.items {
				e := e
				if prev != nil && t.cmp(*prev, e) > 0 {
					return fmt.Errorf("order violated")
				}
				prev = &e
				count++
			}
			return nil
		}
		if len(n.children) != len(n.items)+1 {
			return fmt.Errorf("internal node: %d items, %d children", len(n.items), len(n.children))
		}
		for j, c := range n.children {
			if err := walk(c, d+1, false); err != nil {
				return err
			}
			if j < len(n.items) {
				e := n.items[j]
				if prev != nil && t.cmp(*prev, e) > 0 {
					return fmt.Errorf("order violated at separator")
				}
				ecopy := e
				prev = &ecopy
				count++
			}
		}
		return nil
	}
	if err := walk(t.root, 0, true); err != nil {
		return err
	}
	if depth+1 != t.height {
		return fmt.Errorf("leaves at depth %d, height %d", depth, t.height)
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d items", t.size, count)
	}
	return nil
}
