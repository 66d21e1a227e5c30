package exec

import (
	"repro/internal/meter"
	"repro/internal/plan"
	"repro/internal/sortkey"
	"repro/internal/sortutil"
	"repro/internal/storage"
)

// Projection in the MM-DBMS is mostly implicit: the result descriptor
// already names the output fields and no width reduction is ever done
// (§2.3). The only real work is duplicate elimination (§3.4), for which
// the paper compared Sort Scan [BBD83] and Hashing [DKO84].

// projectKey materializes the output-column values of a row — the values
// duplicate elimination compares.
func projectKey(list *storage.TempList, i int) []storage.Value {
	return list.RowValues(i)
}

// KeysEqual compares two projected-value vectors for equality, metering
// one comparison per column examined. Exported for the parallel
// duplicate-elimination path, which must agree exactly with the serial
// one on key identity.
func KeysEqual(a, b []storage.Value, m *meter.Counters) bool {
	for i := range a {
		m.AddCompare(1)
		if !storage.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func keysCompare(a, b []storage.Value, m *meter.Counters) int {
	for i := range a {
		m.AddCompare(1)
		if c := storage.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// KeyHash hashes a projected-value vector (FNV-style fold of the
// per-value hashes), metering one hash call. Exported alongside KeysEqual
// so partitioned hashing hashes keys identically to the serial path.
func KeyHash(a []storage.Value, m *meter.Counters) uint64 {
	m.AddHash(1)
	h := uint64(14695981039346656037)
	for _, v := range a {
		h ^= storage.Hash(v)
		h *= 1099511628211
	}
	return h
}

// ProjectHash eliminates duplicate result rows with a hash table sized at
// |R|/2 slots (§3.4); duplicates are discarded as they are encountered, so
// high duplicate percentages make it faster, not slower.
func ProjectHash(list *storage.TempList, m *meter.Counters) *storage.TempList {
	// The survivor count is at most |R|, so presizing the output at the
	// input cardinality (directory only — chunks are pooled on demand)
	// means the emit path never grows mid-scan.
	out := storage.MustTempListHint(list.Descriptor(), list.Len())
	nslots := list.Len() / 2
	if nslots < 1 {
		nslots = 1
	}
	type entry struct {
		key  []storage.Value
		next *entry
	}
	slots := make([]*entry, nslots)
	list.Scan(func(i int, row storage.Row) bool {
		key := projectKey(list, i)
		s := KeyHash(key, m) % uint64(nslots)
		for e := slots[s]; e != nil; e = e.next {
			if KeysEqual(e.key, key, m) {
				return true // duplicate: discard on sight (§3.4)
			}
		}
		slots[s] = &entry{key: key, next: slots[s]}
		out.Append(row)
		return true
	})
	return out
}

// ProjectSortScan eliminates duplicates by sorting the rows on their
// projected values (quicksort with the insertion-sort cutoff), then
// scanning and dropping adjacent equals. The whole list is sorted before
// any duplicate is discarded, so duplicates do not speed it up (§3.4).
func ProjectSortScan(list *storage.TempList, m *meter.Counters) *storage.TempList {
	type keyed struct {
		key []storage.Value
		row int32
	}
	rows := make([]keyed, list.Len())
	for i := range rows {
		rows[i] = keyed{key: projectKey(list, i), row: int32(i)}
		m.AddMove(1)
	}
	sortutil.SortCutoff(rows, func(a, b keyed) int { return keysCompare(a.key, b.key, m) }, sortutil.DefaultCutoff, m)
	keep := make([]int32, 0, len(rows))
	for i := range rows {
		if i > 0 && KeysEqual(rows[i-1].key, rows[i].key, m) {
			continue
		}
		keep = append(keep, rows[i].row)
	}
	return list.Take(keep)
}

// ProjectSort eliminates duplicates by sort-and-scan using the given
// sort substrate: the faithful comparator path (ProjectSortScan) for
// plan.SortQuick, the normalized-key radix kernel for plan.SortRadixKey.
// Both produce the distinct rows in ascending projected-key order.
func ProjectSort(list *storage.TempList, m *meter.Counters, method plan.SortMethod) *storage.TempList {
	if method == plan.SortRadixKey {
		return ProjectSortScanRadix(list, m)
	}
	return ProjectSortScan(list, m)
}

// ProjectSortScanRadix is the cache-conscious Sort Scan: instead of
// quicksorting []Value vectors through a comparator closure, it encodes
// each row's projected key into a fixed-width order-preserving prefix
// (internal/sortkey) and MSD-radix-sorts (prefix, row-ordinal) pairs.
// Single-column projections read keys straight out of the tuple with no
// per-row materialization at all; multi-column projections encode the
// composite key once and tie-break equal prefixes with the comparator.
// The scan-and-drop-adjacent-equals phase is the same as §3.4.
func ProjectSortScanRadix(list *storage.TempList, m *meter.Counters) *storage.TempList {
	n := list.Len()
	if n == 0 {
		return list.Take(nil)
	}
	cols := len(list.Descriptor().Cols)
	s := sortkey.GetRowSorter()
	defer sortkey.PutRowSorter(s)
	ent := s.Entries(n)

	var tie sortkey.Tie[int32]
	var keys [][]storage.Value // multi-column only
	allDecisive := true
	if cols == 1 {
		for i := 0; i < n; i++ {
			k, dec := sortkey.Prefix(list.Value(i, 0))
			if !dec {
				allDecisive = false
			}
			ent[i] = sortkey.Entry[int32]{K: k, P: int32(i)}
		}
		m.AddKeyBytes(int64(n) * sortkey.PrefixBytes)
		if !allDecisive {
			tie = func(a, b int32) int {
				return storage.Compare(list.Value(int(a), 0), list.Value(int(b), 0))
			}
		}
	} else {
		// Composite key: encode the full order-preserving byte string,
		// sort on its first 8 bytes, tie-break with the comparator. The
		// key vectors are materialized once (the faithful path does the
		// same) so ties never re-decode tuples.
		keys = make([][]storage.Value, n)
		var buf []byte
		var keyBytes int64
		for i := 0; i < n; i++ {
			keys[i] = list.RowValues(i)
			buf = sortkey.AppendKey(buf[:0], keys[i])
			keyBytes += int64(len(buf))
			ent[i] = sortkey.Entry[int32]{K: sortkey.PrefixOfBytes(buf), P: int32(i)}
		}
		m.AddKeyBytes(keyBytes)
		allDecisive = false
		tie = func(a, b int32) int {
			return keysCompare(keys[a], keys[b], nil)
		}
	}

	s.Sort(ent, tie, m)
	m.AddMove(int64(n))

	// Scan in sorted order, dropping adjacent equals. With decisive
	// prefixes equal K means equal key; otherwise equal K demands a
	// value check before dropping.
	keep := make([]int32, 0, n)
	for i := range ent {
		if i > 0 && ent[i].K == ent[i-1].K {
			if allDecisive {
				m.AddCompare(1)
				continue
			}
			var dup bool
			if cols == 1 {
				m.AddCompare(1)
				dup = storage.Equal(list.Value(int(ent[i].P), 0), list.Value(int(ent[i-1].P), 0))
			} else {
				dup = KeysEqual(keys[ent[i].P], keys[ent[i-1].P], m)
			}
			if dup {
				continue
			}
		}
		keep = append(keep, ent[i].P)
	}
	return list.Take(keep)
}
