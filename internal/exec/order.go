package exec

import (
	"repro/internal/meter"
	"repro/internal/plan"
	"repro/internal/sortkey"
	"repro/internal/sortutil"
	"repro/internal/storage"
)

// ORDER BY and top-k. The radix-key substrate is the normalized-key
// machinery of internal/sortkey: every row's key columns encode into an
// order-preserving byte string whose first 8 bytes drive the MSD radix
// kernel, with the value comparator breaking equal-prefix ties. DESC columns invert the bytes
// of their (self-delimiting, prefix-free) encoding — bytewise inversion
// reverses lexicographic order and preserves prefix-freeness, so mixed
// ASC/DESC composite keys concatenate exactly like all-ASC ones.
//
// Output order is fully deterministic: rows with equal keys tie-break on
// their input ordinal, for the full sort, the bounded heap, and the
// parallel heap merge alike.

// OrderKey is one ORDER BY term: an output-column ordinal of the list
// being ordered, and its direction.
type OrderKey struct {
	Col  int
	Desc bool
}

// CompareRows orders rows a and b of list by the key columns, DESC
// columns negated, final tie on the row ordinal. One Comparisons is
// metered per column examined.
func CompareRows(list *storage.TempList, keys []OrderKey, a, b int32, m *meter.Counters) int {
	for _, k := range keys {
		m.AddCompare(1)
		c := storage.Compare(list.Value(int(a), k.Col), list.Value(int(b), k.Col))
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return int(a) - int(b)
}

// rowPrefix computes the kernel prefix for row i: the single-column
// decisive fast path reads the value prefix directly (inverted for
// DESC); composite keys encode the full direction-adjusted byte string
// into buf and pack its head. Returns the prefix, whether it is decisive
// on its own, the encoded length (0 on the fast path), and the reused
// buffer.
func rowPrefix(list *storage.TempList, keys []OrderKey, i int, buf []byte) (uint64, bool, int, []byte) {
	if len(keys) == 1 {
		k, dec := sortkey.Prefix(list.Value(i, keys[0].Col))
		if keys[0].Desc {
			k = ^k
		}
		return k, dec, 0, buf
	}
	buf = buf[:0]
	for _, key := range keys {
		start := len(buf)
		buf = sortkey.Append(buf, list.Value(i, key.Col))
		if key.Desc {
			for j := start; j < len(buf); j++ {
				buf[j] = ^buf[j]
			}
		}
	}
	return sortkey.PrefixOfBytes(buf), false, len(buf), buf
}

// OrderRows returns list's row ordinals in ORDER BY order. method picks
// the substrate: plan.SortQuick runs the paper's comparator quicksort
// over the ordinals; plan.SortRadixKey encodes normalized-key prefixes
// and runs the MSD radix kernel, tie-breaking equal prefixes (and equal
// keys, by ordinal) through the comparator. Both produce the identical,
// deterministic order.
func OrderRows(list *storage.TempList, keys []OrderKey, method plan.SortMethod, m *meter.Counters) []int32 {
	n := list.Len()
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	if n < 2 {
		return rows
	}
	if method != plan.SortRadixKey {
		sortutil.SortCutoff(rows, func(a, b int32) int {
			return CompareRows(list, keys, a, b, m)
		}, sortutil.DefaultCutoff, m)
		return rows
	}

	s := sortkey.GetRowSorter()
	defer sortkey.PutRowSorter(s)
	ent := s.Entries(n)
	var buf []byte
	var keyBytes int64
	for i := 0; i < n; i++ {
		var k uint64
		var enc int
		k, _, enc, buf = rowPrefix(list, keys, i, buf)
		if enc == 0 {
			enc = sortkey.PrefixBytes
		}
		keyBytes += int64(enc)
		ent[i] = sortkey.Entry[int32]{K: k, P: int32(i)}
	}
	m.AddKeyBytes(keyBytes)
	// The ordinal tie-break makes equal keys deterministic, so the tie
	// comparator is always supplied — with a decisive single-column
	// prefix it degenerates to the ordinal compare.
	s.Sort(ent, func(a, b int32) int {
		return CompareRows(list, keys, a, b, m)
	}, m)
	m.AddMove(int64(n))
	for i := range ent {
		rows[i] = ent[i].P
	}
	return rows
}

// topkHeap is a bounded max-heap of (prefix, row) candidates: the root
// is the worst row currently kept, so a full heap rejects most of the
// stream with one root comparison. Prefixes order the fast path; the
// comparator (with its ordinal tie) settles equal prefixes, so the heap
// agrees with OrderRows on every boundary case.
type topkHeap struct {
	list *storage.TempList
	keys []OrderKey
	ent  []sortkey.Entry[int32]
	m    *meter.Counters
}

// worse reports whether a orders after b (a is a worse candidate).
func (h *topkHeap) worse(a, b sortkey.Entry[int32]) bool {
	h.m.AddCompare(1)
	if a.K != b.K {
		return a.K > b.K
	}
	return CompareRows(h.list, h.keys, a.P, b.P, h.m) > 0
}

func (h *topkHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(h.ent[i], h.ent[p]) {
			return
		}
		h.ent[i], h.ent[p] = h.ent[p], h.ent[i]
		i = p
	}
}

func (h *topkHeap) siftDown(i int) {
	n := len(h.ent)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && h.worse(h.ent[l], h.ent[w]) {
			w = l
		}
		if r < n && h.worse(h.ent[r], h.ent[w]) {
			w = r
		}
		if w == i {
			return
		}
		h.ent[i], h.ent[w] = h.ent[w], h.ent[i]
		i = w
	}
}

// offer pushes a candidate, evicting the current worst when full.
func (h *topkHeap) offer(e sortkey.Entry[int32], k int) {
	if len(h.ent) < k {
		h.ent = append(h.ent, e)
		h.m.AddHeapPush(1)
		h.siftUp(len(h.ent) - 1)
		return
	}
	if h.worse(e, h.ent[0]) {
		return // past the threshold: rejected with the root comparison
	}
	h.ent[0] = e
	h.m.AddHeapPush(1)
	h.siftDown(0)
}

// TopKRows returns the first k row ordinals of list in ORDER BY order —
// the bounded-heap ORDER BY + LIMIT operator. It streams every row
// through a k-element max-heap (HeapPushes counts survivors' sifts) and
// comparator-sorts the k finalists, so its output is the exact prefix of
// OrderRows' output.
func TopKRows(list *storage.TempList, keys []OrderKey, k int, m *meter.Counters) []int32 {
	return TopKRowsRange(list, keys, k, 0, list.Len(), m)
}

// TopKRowsRange is TopKRows over rows [lo, hi) — the per-worker heap the
// parallel executor runs over its chunk before merging.
func TopKRowsRange(list *storage.TempList, keys []OrderKey, k, lo, hi int, m *meter.Counters) []int32 {
	if k <= 0 {
		return nil
	}
	if n := hi - lo; k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	h := &topkHeap{list: list, keys: keys, ent: make([]sortkey.Entry[int32], 0, k), m: m}
	var buf []byte
	var keyBytes int64
	for i := lo; i < hi; i++ {
		var pk uint64
		var enc int
		pk, _, enc, buf = rowPrefix(list, keys, i, buf)
		if enc == 0 {
			enc = sortkey.PrefixBytes
		}
		keyBytes += int64(enc)
		h.offer(sortkey.Entry[int32]{K: pk, P: int32(i)}, k)
	}
	m.AddKeyBytes(keyBytes)
	return sortHeapFinalists(h)
}

// TopKMergeRows merges per-worker top-k candidate sets into the global
// top k: every candidate streams through one k-element heap, then the
// finalists sort. Each worker's set already survives its own heap, so
// the union (≤ workers×k rows) is tiny next to the input.
func TopKMergeRows(list *storage.TempList, keys []OrderKey, k int, cands [][]int32, m *meter.Counters) []int32 {
	if k <= 0 {
		return nil
	}
	h := &topkHeap{list: list, keys: keys, ent: make([]sortkey.Entry[int32], 0, k), m: m}
	var buf []byte
	for _, set := range cands {
		for _, r := range set {
			var pk uint64
			pk, _, _, buf = rowPrefix(list, keys, int(r), buf)
			h.offer(sortkey.Entry[int32]{K: pk, P: r}, k)
		}
	}
	return sortHeapFinalists(h)
}

// sortHeapFinalists orders a heap's surviving candidates into the final
// output order.
func sortHeapFinalists(h *topkHeap) []int32 {
	sortutil.SortCutoff(h.ent, func(a, b sortkey.Entry[int32]) int {
		if a.K != b.K {
			if a.K < b.K {
				return -1
			}
			return 1
		}
		return CompareRows(h.list, h.keys, a.P, b.P, h.m)
	}, sortutil.DefaultCutoff, h.m)
	rows := make([]int32, len(h.ent))
	for i := range h.ent {
		rows[i] = h.ent[i].P
	}
	return rows
}
