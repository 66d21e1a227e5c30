package parallel

import (
	"repro/internal/exec"
	"repro/internal/storage"
)

// SnapshotSource adapts a published relation snapshot (storage.Snapshot)
// into a Chunked source at partition granularity — the lock-free
// counterpart of RelationSource. The snapshot's clone arrays are
// immutable, so scans are zero-copy (blocks are subslices of the arrays
// themselves) and need no locks at all; row order is identical to a
// locked partition scan of the relation at the snapshot's epoch.
type SnapshotSource struct{ Snap *storage.Snapshot }

// Len returns the snapshot's tuple count.
func (s SnapshotSource) Len() int { return s.Snap.Rows() }

// ScanBatches hands out every snapshot tuple in partition order,
// zero-copy over the clone arrays. fn must not retain or mutate a block.
func (s SnapshotSource) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	for i := 0; i < s.Snap.NumParts(); i++ {
		if !scanPartBatches(s.Snap.Part(i), fn) {
			return
		}
	}
}

// Chunks groups the snapshot's partition arrays into at most n
// contiguous runs of near-equal partition count, mirroring
// RelationSource.Chunks so the parallel scan's morsel boundaries (and so
// its output order) match the locked path's.
func (s SnapshotSource) Chunks(n int) []exec.Source {
	np := s.Snap.NumParts()
	if np == 0 {
		return nil
	}
	if n > np {
		n = np
	}
	out, runs, arrays := make([]exec.Source, n), make([]snapshotRun, n), make([][]*storage.Tuple, np)
	for j := range arrays {
		arrays[j] = s.Snap.Part(j)
	}
	for i := range out {
		runs[i] = arrays[np*i/n : np*(i+1)/n]
		out[i] = &runs[i]
	}
	return out
}

// snapshotRun is a contiguous run of snapshot partition arrays.
type snapshotRun [][]*storage.Tuple

func (r snapshotRun) Len() int {
	n := 0
	for _, part := range r {
		n += len(part)
	}
	return n
}

// ScanBatches hands out the run zero-copy; blocks are subslices of the
// immutable clone arrays.
func (r snapshotRun) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	for _, part := range r {
		if !scanPartBatches(part, fn) {
			return
		}
	}
}

func scanPartBatches(part []*storage.Tuple, fn func(storage.TupleBatch) bool) bool {
	for len(part) > storage.BatchSize {
		if !fn(part[:storage.BatchSize:storage.BatchSize]) {
			return false
		}
		part = part[storage.BatchSize:]
	}
	if len(part) > 0 {
		return fn(part[:len(part):len(part)])
	}
	return true
}
