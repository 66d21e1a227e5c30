package storage

import (
	"sync"
	"sync/atomic"
)

// Per-relation statistics for the cost-based planners: row count plus a
// sampled per-column distinct-value estimate. The numbers are cheap by
// design — a join-order forecast needs magnitudes, not exactness — and
// refresh lazily: a snapshot is reused until enough DML has landed to
// plausibly move it, so steady-state queries never pay a sampling scan.

// TableStats is one relation's statistics snapshot.
type TableStats struct {
	Name string
	// Rows is the exact live-tuple count at refresh time.
	Rows int
	// NDV estimates the number of distinct non-null values per column,
	// in schema field order. Exact when the refresh sampled every row;
	// otherwise a first-order jackknife scale-up of the sample.
	NDV []float64
	// SampledRows is how many tuples the refresh examined.
	SampledRows int
	// Bytes estimates the memory the relation held at refresh time (see
	// storedBytes); Bytes/Rows is the paper's storage cost per row.
	Bytes int64
}

// relStats is the cached snapshot plus its invalidation bookkeeping.
type relStats struct {
	mu    sync.Mutex
	dml   atomic.Int64 // inserts+deletes+updates since relation creation
	dmlAt int64        // dml value when cached was taken
	cache TableStats
	valid bool
}

const (
	// statsSampleRows caps the tuples one refresh examines.
	statsSampleRows = 1024
	// statsMinDelta is the smallest DML count that can invalidate a
	// snapshot; below it, re-sampling churn would dwarf the drift.
	statsMinDelta = 256
)

// statsDirty reports whether enough DML landed since the last refresh:
// 10% of the relation, floored at statsMinDelta writes.
func statsDirty(rows int, delta int64) bool {
	threshold := int64(rows / 10)
	if threshold < statsMinDelta {
		threshold = statsMinDelta
	}
	return delta >= threshold
}

// noteDML records one mutating operation; called from Insert, Delete,
// and Update under the engine's exclusive table lock, but atomic so
// lock-free readers (metrics exposition, snapshot freshness checks)
// stay race-clean. The snapshot epoch advances with it, invalidating
// any published snapshot until the next publication (snapshot.go).
func (r *Relation) noteDML() {
	r.stats.dml.Add(1)
	r.snapSeq.Add(1)
}

// Stats returns the relation's statistics, refreshing the cached
// snapshot when it has never been taken or when DML since the last
// refresh crosses the staleness threshold. Callers must hold at least
// a shared table lock (the same contract as scanning).
func (r *Relation) Stats() TableStats {
	s := &r.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	dml := s.dml.Load()
	if !s.valid || statsDirty(s.cache.Rows, dml-s.dmlAt) {
		s.cache = r.sampleStats()
		s.dmlAt = dml
		s.valid = true
	}
	out := s.cache
	out.NDV = append([]float64(nil), s.cache.NDV...)
	return out
}

// CachedStats returns the last-taken snapshot without refreshing it —
// planning paths that must stay lock-free (EXPLAIN) use it, accepting
// staleness over taking table locks. ok is false when no snapshot has
// ever been taken; fresh reports that the DML since it was taken stays
// under the refresh threshold, so Stats would return it as it is. No
// tuples are touched either way, and no lock is needed.
func (r *Relation) CachedStats() (st TableStats, ok, fresh bool) {
	s := &r.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid {
		return TableStats{Name: r.name}, false, false
	}
	out := s.cache
	out.NDV = append([]float64(nil), s.cache.NDV...)
	return out, true, !statsDirty(s.cache.Rows, s.dml.Load()-s.dmlAt)
}

// sampleHit decides whether physical row i joins the sample: roughly
// one in stride rows, chosen by Fibonacci-hashing the position rather
// than a plain modulus so the sample never beats against periodic data
// (a stride-8 sweep over a column cycling mod 10 would only ever see
// the even values). Deterministic, so refreshes are reproducible.
func sampleHit(i, stride int) bool {
	if stride <= 1 {
		return true
	}
	x := uint64(i) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	return x%uint64(stride) == 0
}

// sampleStats scans the live tuples, sampling ~statsSampleRows of them
// (see sampleHit), and estimates per-column distinct counts from
// value hashes. Columns seen mostly-once in the sample scale up by the
// first-order jackknife D = d + (N/n − 1)·f1; low-cardinality columns
// keep their observed count.
func (r *Relation) sampleStats() TableStats {
	arity := r.schema.Arity()
	st := TableStats{Name: r.name, Rows: r.count, NDV: make([]float64, arity), Bytes: r.storedBytes()}
	if r.count == 0 {
		return st
	}
	stride := r.count / statsSampleRows
	if stride < 1 {
		stride = 1
	}
	counts := make([]map[uint64]uint8, arity)
	for f := range counts {
		counts[f] = make(map[uint64]uint8)
	}
	seen := 0
	r.ScanPhysical(func(t *Tuple) bool {
		if sampleHit(seen, stride) {
			st.SampledRows++
			for f := 0; f < arity; f++ {
				v := t.Field(f)
				if v.IsNull() {
					continue
				}
				h := Hash(v)
				if c := counts[f][h]; c < 2 {
					counts[f][h] = c + 1
				}
			}
		}
		seen++
		return true
	})
	for f, m := range counts {
		d := float64(len(m))
		if st.SampledRows < st.Rows {
			f1 := 0.0
			for _, c := range m {
				if c == 1 {
					f1++
				}
			}
			d += (float64(st.Rows)/float64(st.SampledRows) - 1) * f1
		}
		if d > float64(st.Rows) {
			d = float64(st.Rows)
		}
		st.NDV[f] = d
	}
	return st
}
