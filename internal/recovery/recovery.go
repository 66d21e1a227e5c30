// Package recovery implements the MM-DBMS recovery architecture of §2.4
// and Figure 2: a stable log buffer that receives all log information
// before the in-memory update, an active log device that folds committed
// updates into a change-accumulation log and lazily maintains a disk copy
// of the database, and a two-phase restart that brings the working set
// into memory first (merging unpropagated log records on the fly) while a
// background process reloads the rest.
//
// The 1986 proposal assumes a battery-backed stable buffer and a hardware
// log device. Here both are simulated: the Manager object *is* the stable
// hardware — a crash is modeled by discarding every in-memory relation
// while keeping the Manager and the disk-copy directory, then recovering
// into fresh relations.
//
// The disk copy is organised by partition, the unit of recovery, and
// stored as one append-only segment file (SegmentFile) of framed
// partition images: each image write appends a frame — length, CRC,
// relation, partition, LSN, then the image — and moves an in-memory
// directory entry to it, so a durable load creates no file per partition.
// Opening a manager rebuilds the directory from the frame headers, the
// latest frame of a partition winning. A torn final frame — an append a
// crash cut off — is truncated, so its partition keeps its previous
// image; a bad frame anywhere else fails the restart. Once the segment
// holds over twice its live bytes (and over 1 MiB), the live frames are
// copied to a new file renamed over it.
package recovery

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"

	"repro/internal/storage"
)

// RecOp is a log record's operation type.
type RecOp uint8

// Log operations.
const (
	OpInsert RecOp = iota
	OpUpdate
	OpDelete
)

// Record is one logical log record. Ref values are carried as tuple IDs
// (swizzled on replay).
type Record struct {
	LSN   uint64
	Txn   uint64
	Op    RecOp
	Rel   string
	Part  int    // routing: the partition holding the tuple at commit time
	Tuple uint64 // tuple ID
	Field int    // OpUpdate: which field
	Vals  []storage.ValueImage
}

// PartKey names one partition of one relation.
type PartKey struct {
	Rel  string
	Part int
}

// Observer receives log-traffic events. The obs registry implements it;
// the interface lives here so the recovery layer does not depend on the
// metrics layer. Implementations must be safe for concurrent use.
type Observer interface {
	// LogAppend reports one record written into the stable log buffer and
	// its approximate size in 4-byte words — the unit the paper budgets
	// log bandwidth in.
	LogAppend(words int)
	// LogFlush reports one commit releasing n records to the active log
	// device (the change-accumulation log).
	LogFlush(records int)
}

// Words estimates the record's stable-buffer footprint in 4-byte words:
// a fixed header (LSN, transaction, op/field, partition, tuple ID) plus
// each value image's tag and payload.
func (r *Record) Words() int {
	w := 8
	for _, v := range r.Vals {
		w += 3 + (len(v.Str)+3)/4
	}
	return w
}

// Manager is the stable log buffer plus the active log device's state.
type Manager struct {
	dir string

	mu      sync.Mutex
	nextLSN uint64
	// stable holds each running transaction's records — the stable log
	// buffer. "If the transaction aborts, then the log entry is removed
	// and no undo is needed."
	stable map[uint64][]*Record
	// cal is the change-accumulation log: committed records not yet
	// reflected in the disk-copy partition images, keyed by partition.
	cal map[PartKey][]*Record
	obs Observer

	// imgMu guards the disk copy and serializes its writers — Checkpoint
	// and propagation (the log device's, a commit's). Each reads what an
	// image must contain, appends it and prunes the records it covers as
	// one step, so of two writers of one image the later one wins whole.
	imgMu sync.Mutex
	seg   *segment
	// Propagation's working memory, under imgMu: the frame as read, its
	// decoded image, and the new frame are reused from partition to
	// partition, so folding one record into an image does not allocate
	// the image.
	readBuf []byte
	decoded storage.ImageScratch
	encBuf  []byte
}

// SetObserver wires the metrics observer. Pass nil to disable. May be
// called at any time; events in flight may use the previous observer.
func (m *Manager) SetObserver(o Observer) {
	m.mu.Lock()
	m.obs = o
	m.mu.Unlock()
}

// NewManager creates a manager whose disk copy lives under dir, opening
// the segment a previous manager left there. LSNs continue above the
// highest one on disk.
func NewManager(dir string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	seg, err := openSegment(dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dir:    dir,
		seg:    seg,
		stable: make(map[uint64][]*Record),
		cal:    make(map[PartKey][]*Record),
	}
	for _, loc := range seg.dir {
		m.nextLSN = max(m.nextLSN, loc.lsn)
	}
	return m, nil
}

// Dir returns the disk-copy directory.
func (m *Manager) Dir() string { return m.dir }

// Close releases the disk copy's file. Call it once nothing writes: a
// later image write or restart read fails.
func (m *Manager) Close() error {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	return m.seg.close()
}

// Append writes a copy of rec into the stable log buffer for txn; see
// AppendRecord.
func (m *Manager) Append(txn uint64, rec Record) *Record {
	r := &rec
	m.AppendRecord(txn, r)
	return r
}

// AppendRecord writes r into the stable log buffer for txn, assigning its
// LSN. Per §2.4 this happens before the actual update is applied to the
// in-memory database. The manager keeps r itself, so a transaction can
// build its records in one block; the caller changes nothing in it
// afterwards but Part and Tuple, which may be patched once placement is
// known (routing metadata, not payload), before Commit.
func (m *Manager) AppendRecord(txn uint64, r *Record) {
	m.mu.Lock()
	m.nextLSN++
	r.LSN = m.nextLSN
	r.Txn = txn
	m.stable[txn] = append(m.stable[txn], r)
	obs := m.obs
	m.mu.Unlock()
	if obs != nil {
		obs.LogAppend(r.Words())
	}
}

// Abort discards txn's log entries; no undo is needed because updates are
// deferred until commit.
func (m *Manager) Abort(txn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.stable, txn)
}

// Commit releases txn's records to the log device: they move from the
// stable buffer into the change-accumulation log, from which they will be
// propagated to the disk copy.
//
// Accumulation pays while a partition gathers a few changes between
// rewrites of its image. Once a partition has gathered calPartitionFull
// records, as many as the image holds tuples, another rewrite is no dearer
// than the records it absorbs, so the commit folds that partition into
// the disk copy itself, log device or none. A bulk load, which fills
// partition after partition faster than any device interval, therefore
// writes each image once and leaves no more of the log in memory than its
// last, partly filled partitions; scattered updates accumulate as before.
func (m *Manager) Commit(txn uint64) {
	m.mu.Lock()
	released := len(m.stable[txn])
	var full []PartKey
	for _, r := range m.stable[txn] {
		k := PartKey{Rel: r.Rel, Part: r.Part}
		m.cal[k] = append(m.cal[k], r)
		if len(m.cal[k]) == calPartitionFull {
			full = append(full, k)
		}
	}
	delete(m.stable, txn)
	obs := m.obs
	m.mu.Unlock()
	if obs != nil {
		obs.LogFlush(released)
	}
	for _, k := range full {
		// A disk copy that cannot be written is reported by the device
		// and by Close; the records stay queued for them.
		_ = m.propagatePartition(k)
	}
}

// calPartitionFull is how many committed records one partition accumulates
// before a commit folds them into its image: a default partition's worth.
const calPartitionFull = storage.DefaultSlotsPerPartition

// PendingRecords returns how many committed records await propagation.
func (m *Manager) PendingRecords() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, rs := range m.cal {
		n += len(rs)
	}
	return n
}

// Checkpoint writes every partition of the given relations to the disk
// copy and prunes change-accumulation records the images now cover. The
// caller keeps writers off the relations for the duration (a shared
// relation lock does): the images are labelled with the LSN read on entry,
// so they must hold exactly the records up to it.
func (m *Manager) Checkpoint(rels ...*storage.Relation) error {
	m.mu.Lock()
	lsn := m.nextLSN
	m.mu.Unlock()
	for _, rel := range rels {
		for _, p := range rel.Partitions() {
			if err := m.checkpointPartition(rel, p, lsn); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *Manager) checkpointPartition(rel *storage.Relation, p *storage.Partition, lsn uint64) error {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	p.SetLSN(lsn)
	k := PartKey{Rel: rel.Name(), Part: p.ID()}
	return m.putImage(k, p.Snapshot())
}

// putImage appends img as k's image, prunes the change-accumulation
// records it covers, and compacts the disk copy if that is due. The
// caller holds imgMu.
func (m *Manager) putImage(k PartKey, img storage.PartitionImage) error {
	m.encBuf = storage.AppendPartition(appendHeader(m.encBuf[:0], k, img.LSN), img)
	if err := m.seg.put(k, m.encBuf); err != nil {
		return err
	}
	m.prune(k, img.LSN)
	return m.seg.compactIfDue()
}

func (m *Manager) prune(k PartKey, lsn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.cal[k]
	kept := rs[:0]
	for _, r := range rs {
		if r.LSN > lsn {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		delete(m.cal, k)
	} else {
		m.cal[k] = kept
	}
}

// records returns a copy of the unpropagated records for k with LSN above
// the floor, in LSN order.
func (m *Manager) records(k PartKey, floor uint64) []*Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.cal[k]
	out := make([]*Record, 0, len(rs))
	for _, r := range rs {
		if r.LSN > floor {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b *Record) int { return cmp.Compare(a.LSN, b.LSN) })
	return out
}

// DiskPartitions lists the partitions present in the disk copy.
func (m *Manager) DiskPartitions() ([]PartKey, error) {
	m.imgMu.Lock()
	out := make([]PartKey, 0, len(m.seg.dir))
	for k := range m.seg.dir {
		out = append(out, k)
	}
	m.imgMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return out[i].Part < out[j].Part
	})
	return out, nil
}
