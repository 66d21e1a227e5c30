package storage

// Epoch-based snapshot scans. A Snapshot is an immutable image of a
// relation's live tuples, published under an epoch (the relation's DML
// sequence number at publication). Read-only queries whose access path
// is a full sequential scan read the published snapshot with no lock held
// during the scan, and see a transaction-consistent image. Two invariants
// carry the design:
//
//   - A field array reachable from a Tuple — a []Value, or a cell array on
//     an all-scalar relation (cells.go) — is never written after it is
//     installed. Relation.Update installs a fresh array; the previous one
//     stays as it was for whoever still holds it, as a Version. A snapshot
//     clone is therefore a tuple header pointing at the array the live
//     tuple had at publication — the values themselves are not copied —
//     and version identity is array identity: a clone is current exactly
//     while its array is the live tuple's. The recovery log is the
//     invariant's second user: an insert's log record holds the installed
//     array's Version (Tuple.FieldArray) until the log device folds it
//     into the disk copy, so the array must read the same then as at
//     commit. Only Rewind reuses slab space, and only for tuples never
//     installed.
//   - Publication is paid by the first reader of a newer epoch, under
//     S(relation), never by Commit. A commit only advances the epoch and
//     marks the partitions it touched; a reader that finds the published
//     snapshot stale takes S(relation) — which waits out in-flight
//     writers, so the image is the last committed state — publishes,
//     releases at once and scans without a lock.
//
// A refresh costs O(changed): partitions no DML touched share the previous
// snapshot's clone array; a partition that only saw in-place updates is
// patched — the previous pointer array is copied and only the clones whose
// array differs from the live tuple's get a new header, all of them from
// one block; an insert, delete or move re-clones the partition's headers.
// Clone arrays preserve partition slot order, so a snapshot scan's row
// order is identical to a locked partition scan's.
//
// Snapshot tuples are deliberately marked dead: feeding one back into an
// update or delete fails validation instead of silently writing through a
// stale image. Ref values inside a clone still point at the canonical
// (live) tuples, so pointer joins through snapshot rows stay consistent
// with tuple identity.

// Snapshot is one published relation image: per-partition clone arrays
// in partition order.
type Snapshot struct {
	epoch uint64
	parts [][]*Tuple
	rows  int
}

// Epoch returns the relation DML sequence number the snapshot captured.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Rows returns the number of tuples in the snapshot.
func (s *Snapshot) Rows() int { return s.rows }

// NumParts returns the number of partition clone arrays.
func (s *Snapshot) NumParts() int { return len(s.parts) }

// Part returns partition i's clone array (nil when it was empty).
func (s *Snapshot) Part(i int) []*Tuple { return s.parts[i] }

// SnapshotEpoch returns the relation's current DML sequence number — the
// epoch a snapshot published now would carry.
func (r *Relation) SnapshotEpoch() uint64 { return r.snapSeq.Load() }

// Snapshot returns the published snapshot if it is still fresh (no DML
// has landed since publication), nil otherwise. Lock-free; safe to call
// concurrently with publication.
func (r *Relation) Snapshot() *Snapshot {
	s := r.snap.Load()
	if s == nil || s.epoch != r.snapSeq.Load() {
		return nil
	}
	return s
}

// RefreshStats counts what one snapshot refresh did. The zero value means
// the published snapshot was already fresh and nothing was built.
type RefreshStats struct {
	Patched int // partitions whose previous clone array was copied and patched
	Cloned  int // partitions whose headers were re-cloned in full
	Tuples  int // clone headers built, over both kinds
}

// PublishSnapshot builds and publishes a snapshot at the current epoch
// and returns it; a fresh snapshot returns immediately. The caller must
// exclude writers for the duration with a shared lock on the relation.
// Concurrent publishers serialize on an internal mutex.
func (r *Relation) PublishSnapshot() *Snapshot {
	s, _ := r.PublishSnapshotStats()
	return s
}

// PublishSnapshotStats is PublishSnapshot, also reporting the work this
// call did — zero when another publisher got there first.
func (r *Relation) PublishSnapshotStats() (*Snapshot, RefreshStats) {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	var st RefreshStats
	epoch := r.snapSeq.Load()
	prev := r.snap.Load()
	if prev != nil && prev.epoch == epoch {
		return prev, st
	}
	s := &Snapshot{epoch: epoch, parts: make([][]*Tuple, len(r.parts))}
	for i, p := range r.parts {
		// Only a partition the previous snapshot already covers can share
		// or patch its array; one created since is cloned.
		covered := prev != nil && i < len(prev.parts)
		switch {
		case covered && !p.snapDirty:
			s.parts[i] = prev.parts[i]
		case covered && !p.snapReshaped:
			var n int
			s.parts[i], n = patchPartition(p, prev.parts[i])
			st.Patched++
			st.Tuples += n
		default:
			s.parts[i] = clonePartition(p)
			st.Cloned++
			st.Tuples += len(s.parts[i])
		}
		p.snapDirty, p.snapReshaped = false, false
		s.rows += len(s.parts[i])
	}
	r.snap.Store(s)
	return s, st
}

// cloneOf returns the header a snapshot holds for live tuple t: marked
// dead so write paths reject it, sharing t's current field array.
func cloneOf(t *Tuple) Tuple {
	return Tuple{id: t.id, part: t.part, slot: -1, arity: t.arity, dead: true, cells: t.cells, vals: t.vals}
}

// clonePartition builds p's clone array from scratch: one header block
// and one pointer array per partition, no values copied.
func clonePartition(p *Partition) []*Tuple {
	if p.live == 0 {
		return nil
	}
	headers := make([]Tuple, 0, p.live)
	out := make([]*Tuple, 0, p.live)
	for _, t := range p.slots {
		if visible(t) {
			headers = append(headers, cloneOf(t))
			out = append(out, &headers[len(headers)-1])
		}
	}
	return out
}

// patchPartition refreshes a partition that saw only in-place updates
// since old was cloned from it: the same tuples sit in the same slots, so
// clone i still stands for the i-th tuple of the scan and is stale only
// where the live tuple has installed another array since. One walk lists
// the stale clones, so that their replacements come from one header block
// — two allocations a partition however many tuples changed (the list
// stays on the stack up to the default partition size). It returns the
// new array and how many clones it replaced.
func patchPartition(p *Partition, old []*Tuple) ([]*Tuple, int) {
	type staleClone struct {
		i int    // position in the clone array
		t *Tuple // the live tuple it stands for
	}
	var buf [DefaultSlotsPerPartition]staleClone
	stale, i := buf[:0], 0
	for _, t := range p.slots {
		if visible(t) {
			if old[i].vals != t.vals {
				stale = append(stale, staleClone{i, t})
			}
			i++
		}
	}
	out := append([]*Tuple(nil), old...)
	headers := make([]Tuple, len(stale))
	for j, c := range stale {
		headers[j] = cloneOf(c.t)
		out[c.i] = &headers[j]
	}
	return out, len(stale)
}
