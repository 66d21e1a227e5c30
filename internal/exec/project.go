package exec

import (
	"repro/internal/meter"
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
