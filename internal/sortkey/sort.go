package sortkey

import (
	"sync"

	"repro/internal/meter"
)

// The kernel sorts (prefix, payload) pairs: a fixed-width uint64
// normalized-key prefix plus an opaque payload (a tuple pointer, or a row
// ordinal). MSD radix sort partitions on the top prefix byte, scattering
// through 64-entry write-combining buffers exactly like the radix hash
// join's partitioner — the scatter writes land as full-cache-line block
// copies instead of 256-way random single-element stores. Short runs and
// exhausted prefixes fall back to a three-way quicksort / insertion sort
// on (prefix, tie-break) order, so skew and duplicates degrade gracefully
// instead of recursing into confetti.

const (
	// WCBlock is the write-combining buffer depth per byte bucket —
	// 64 × 16-byte entries = two pages of L1 per bucket, matching the
	// radix hash partitioner's geometry.
	WCBlock = 64

	// DefaultRunCutoff is the run length below which MSD recursion stops
	// and the comparator sort takes over: at ≤64 entries the whole run is
	// L1-resident and a branchy insertion/quicksort beats another 256-way
	// scatter pass.
	DefaultRunCutoff = 64

	// insertionCutoff is the comparator sort's insertion-sort threshold.
	insertionCutoff = 12

	topShift = 56 // first (most significant) byte of the uint64 prefix
)

// Entry is one sort element: K is the order-preserving prefix, P the
// payload carried along (tuple pointer or row ordinal).
type Entry[P any] struct {
	K uint64
	P P
}

// Tie breaks ties between payloads whose prefixes are equal. A nil Tie
// declares the prefixes decisive: equal K means equal sort key.
type Tie[P any] func(a, b P) int

// Sorter holds the kernel's scratch: the write-combining buffers, the
// scatter destination, and a staging slice callers can borrow for their
// entries. Reusing one Sorter across sorts (via the pools below) makes
// the steady-state hot path allocation-free.
type Sorter[P any] struct {
	wc  []Entry[P] // 256 × WCBlock write-combining staging
	buf []Entry[P] // scatter destination, len ≥ current input
	ent []Entry[P] // caller staging (Entries)
	cur [256]int   // next write offset per bucket during a scatter
	wcn [256]int   // fill level per write-combining block
}

// NewSorter returns a fresh kernel with its write-combining buffers
// allocated. Prefer the pools for steady-state use.
func NewSorter[P any]() *Sorter[P] {
	return &Sorter[P]{wc: make([]Entry[P], 256*WCBlock)}
}

// Entries returns a staging slice of length n for the caller to fill,
// reusing the sorter's scratch when it is large enough.
func (s *Sorter[P]) Entries(n int) []Entry[P] {
	if cap(s.ent) < n {
		s.ent = make([]Entry[P], n)
	}
	s.ent = s.ent[:n]
	return s.ent
}

// Sort orders e by (K, tie). With a nil tie, equal prefixes are treated
// as equal keys (the caller promised decisive prefixes). Counters: one
// SortPasses per radix scatter executed, one SortRuns per comparator-
// sorted run, Comparisons for comparator work, DataMoves for scatter
// traffic. All metering is nil-safe.
func (s *Sorter[P]) Sort(e []Entry[P], tie Tie[P], m *meter.Counters) {
	if len(e) < 2 {
		return
	}
	if cap(s.buf) < len(e) {
		s.buf = make([]Entry[P], len(e))
	}
	if s.wc == nil {
		s.wc = make([]Entry[P], 256*WCBlock)
	}
	s.msd(e, topShift, tie, m)
}

// msd is one MSD radix level: histogram the byte at shift, scatter into
// per-bucket regions through the write-combining blocks, then recurse
// into each bucket at the next byte. The histogram lives on the frame —
// recursion reuses cur/wcn/wc/buf, which are dead between scatters, but
// the bucket boundaries must survive the recursive calls.
func (s *Sorter[P]) msd(e []Entry[P], shift int, tie Tie[P], m *meter.Counters) {
	for {
		n := len(e)
		if n <= DefaultRunCutoff {
			s.runSort(e, tie, m)
			m.AddSortRun(1)
			return
		}
		if shift < 0 {
			// Prefix bytes exhausted: every K in the run is equal. With
			// decisive prefixes the run is already sorted; otherwise the
			// tie comparator finishes the job.
			if tie != nil {
				s.quickTie(e, tie, m)
				m.AddSortRun(1)
			}
			return
		}

		var hist [256]int
		for i := range e {
			hist[byte(e[i].K>>shift)]++
		}
		if hist[byte(e[0].K>>shift)] == n {
			// One bucket holds everything (constant byte — common for
			// small ints whose high bytes are all 0x80 00 00…): skip the
			// scatter and look at the next byte directly.
			shift -= 8
			continue
		}

		off := 0
		for b := 0; b < 256; b++ {
			s.cur[b] = off
			off += hist[b]
		}
		buf := s.buf[:n]
		wc := s.wc
		for i := range e {
			b := int(byte(e[i].K >> shift))
			w := s.wcn[b]
			wc[b*WCBlock+w] = e[i]
			w++
			if w == WCBlock {
				copy(buf[s.cur[b]:], wc[b*WCBlock:b*WCBlock+WCBlock])
				s.cur[b] += WCBlock
				w = 0
			}
			s.wcn[b] = w
		}
		for b := 0; b < 256; b++ {
			if w := s.wcn[b]; w > 0 {
				copy(buf[s.cur[b]:], wc[b*WCBlock:b*WCBlock+w])
				s.cur[b] += w
				s.wcn[b] = 0
			}
		}
		copy(e, buf)
		m.AddSortPass(1)
		m.AddMove(int64(2 * n)) // scatter out + copy back

		shift -= 8
		start := 0
		for b := 0; b < 256; b++ {
			if c := hist[b]; c > 1 {
				s.msd(e[start:start+c], shift, tie, m)
				start += c
			} else {
				start += c
			}
		}
		return
	}
}

// cmp orders two entries by (K, tie), metering one comparison.
func (s *Sorter[P]) cmp(a, b Entry[P], tie Tie[P], m *meter.Counters) int {
	m.AddCompare(1)
	if a.K < b.K {
		return -1
	}
	if a.K > b.K {
		return 1
	}
	if tie == nil {
		return 0
	}
	return tie(a.P, b.P)
}

// runSort sorts a short run: insertion sort outright when tiny, else the
// three-way quicksort.
func (s *Sorter[P]) runSort(e []Entry[P], tie Tie[P], m *meter.Counters) {
	if len(e) <= insertionCutoff {
		s.insertion(e, tie, m)
		return
	}
	s.quick(e, tie, m)
}

// quick is a three-way (Dutch-flag) quicksort on (K, tie): equal keys
// collapse into the middle partition in one pass, so massive duplicate
// runs — the case that drives classic quicksort quadratic — cost one
// linear partition. Recurses into the smaller side, loops on the larger.
func (s *Sorter[P]) quick(e []Entry[P], tie Tie[P], m *meter.Counters) {
	for len(e) > insertionCutoff {
		n := len(e)
		p := s.median3(e, tie, m)
		lt, i, gt := 0, 0, n
		for i < gt {
			switch c := s.cmp(e[i], p, tie, m); {
			case c < 0:
				e[lt], e[i] = e[i], e[lt]
				lt++
				i++
			case c > 0:
				gt--
				e[gt], e[i] = e[i], e[gt]
			default:
				i++
			}
		}
		if lt < n-gt {
			s.quick(e[:lt], tie, m)
			e = e[gt:]
		} else {
			s.quick(e[gt:], tie, m)
			e = e[:lt]
		}
	}
	s.insertion(e, tie, m)
}

// median3 picks the median of first/middle/last as the pivot value.
func (s *Sorter[P]) median3(e []Entry[P], tie Tie[P], m *meter.Counters) Entry[P] {
	a, b, c := e[0], e[len(e)/2], e[len(e)-1]
	if s.cmp(b, a, tie, m) < 0 {
		a, b = b, a
	}
	if s.cmp(c, b, tie, m) < 0 {
		b = c
		if s.cmp(b, a, tie, m) < 0 {
			b = a
		}
	}
	return b
}

// insertion is the short-run finisher.
func (s *Sorter[P]) insertion(e []Entry[P], tie Tie[P], m *meter.Counters) {
	for i := 1; i < len(e); i++ {
		v := e[i]
		j := i - 1
		for j >= 0 && s.cmp(e[j], v, tie, m) > 0 {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = v
	}
}

// quickTie sorts a run of equal prefixes by tie order alone.
func (s *Sorter[P]) quickTie(e []Entry[P], tie Tie[P], m *meter.Counters) {
	// Reuse the generic paths with a shift-exhausted view: K is equal
	// across the run, so cmp degenerates to the tie comparator.
	s.runSort(e, tie, m)
}

// Pool. Row-ordinal sorters are recycled like the radix partitioner's
// scratch.

var rowSorterPool = sync.Pool{
	New: func() any { return NewSorter[int32]() },
}

// GetRowSorter borrows a pooled sorter for row-ordinal payloads (ORDER
// BY sorts row numbers, not pointers).
func GetRowSorter() *Sorter[int32] {
	return rowSorterPool.Get().(*Sorter[int32])
}

// PutRowSorter returns a row-ordinal sorter to the pool. Ordinals hold no
// pointers, so nothing needs clearing.
func PutRowSorter(s *Sorter[int32]) {
	rowSorterPool.Put(s)
}
