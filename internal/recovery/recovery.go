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
// into fresh relations. A commit does the stable buffer's part only (see
// Manager.Commit); the Device goroutine does the paper's second
// processor's work of folding records into the disk copy.
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
// copied to a new file, synced and renamed over it.
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
	// OpMove is an update that moved its tuple out of partition From into
	// Part (a growing string overflowing From's heap space, §2.1 footnote
	// 1). It carries the tuple's whole new row, so it folds as a delete
	// in From and an insert — or a replacement — in Part.
	OpMove
)

// Record is one logical log record. Its values are Vals, images in which
// Ref values are already tuple IDs, or — for an insert or a move — Row,
// the tuple's installed field array held by reference, imaged (ImageOf)
// only when the record is folded or replayed. That is sound because an
// installed array is never written again: the invariant storage/snapshot.go
// rests on, of which the log is the second user.
type Record struct {
	LSN   uint64
	Op    RecOp
	Field int32 // OpUpdate: which field
	Rel   string
	Part  int    // routing: the partition holding the tuple at commit time
	From  int    // OpMove: the partition the tuple left
	Tuple uint64 // tuple ID
	Vals  []storage.ValueImage
	Row   storage.Version
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
	// LogAppend reports records written into the stable log buffer and
	// their approximate size in 4-byte words — the unit the paper budgets
	// log bandwidth in.
	LogAppend(records, words int)
	// LogFlush reports one commit releasing n records to the active log
	// device (the change-accumulation log).
	LogFlush(records int)
}

// Words estimates the record's stable-buffer footprint in 4-byte words:
// a fixed header (LSN, op/field, partition, tuple ID, and the transaction
// ID a stable buffer keeps per block) plus each value image's tag and
// payload. A Row counts as its Vals form would.
func (r *Record) Words() int {
	w := 8
	for _, v := range r.Vals {
		w += 3 + (len(v.Str)+3)/4
	}
	for i := range r.Row.Len() {
		w += 3 + (r.Row.At(i).HeapBytes()+3)/4
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
	stable map[uint64][][]Record
	// cal is the change-accumulation log: committed records not yet
	// reflected in the disk-copy partition images, keyed by partition.
	cal map[PartKey][]*Record
	obs Observer
	// wake is the running log device's, nil while none runs; filled
	// queues the partitions commits filled for it to fold.
	wake   chan struct{}
	filled []PartKey

	// imgMu guards the disk copy and serializes its writers — Checkpoint
	// and propagation (the log device's, a commit's). Each reads what an
	// image must contain, appends it and prunes the records it covers as
	// one step, so of two writers of one image the later one wins whole.
	imgMu sync.Mutex
	seg   *segment
	// Propagation's working memory, under imgMu: the frame as read, its
	// decoded image and the new frame are reused from partition to
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
	return newManager(dir, osFS{})
}

// newManager is NewManager over the file system fs.
func newManager(dir string, fs fileSystem) (*Manager, error) {
	seg, err := openSegment(fs, dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dir:    dir,
		seg:    seg,
		stable: make(map[uint64][][]Record),
		cal:    make(map[PartKey][]*Record),
	}
	for _, loc := range seg.dir {
		m.nextLSN = max(m.nextLSN, loc.lsn)
	}
	return m, nil
}

// Close releases the disk copy's file. Call it once nothing writes: a
// later image write or restart read fails.
func (m *Manager) Close() error {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	return m.seg.close()
}

// Append writes a copy of rec into the stable log buffer for txn as a
// block of one record; see AppendBlock.
func (m *Manager) Append(txn uint64, rec Record) *Record {
	b := []Record{rec}
	m.AppendBlock(txn, b)
	return &b[0]
}

// AppendBlock writes a transaction's records into the stable log buffer
// in one step, assigning their LSNs in order under one lock: the whole
// log of a commit, written before any of its updates is applied to the
// in-memory database (§2.4). The manager keeps recs itself; the caller
// changes nothing in them afterwards but routing metadata, before Commit:
// it may patch Part and Tuple once placement is known, and may turn an
// update whose tuple moved into an OpMove record (Op, Part, From, Vals,
// Row).
func (m *Manager) AppendBlock(txn uint64, recs []Record) {
	m.mu.Lock()
	for i := range recs {
		m.nextLSN++
		recs[i].LSN = m.nextLSN
	}
	m.stable[txn] = append(m.stable[txn], recs)
	obs := m.obs
	m.mu.Unlock()
	if obs != nil {
		words := 0
		for i := range recs {
			words += recs[i].Words()
		}
		obs.LogAppend(len(recs), words)
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
// propagated to the disk copy. Consecutive records of one partition move
// as a run, with one lookup of the partition's list.
//
// Accumulation pays while a partition gathers a few changes between
// rewrites of its image. Once a partition's count crosses calPartitionFull
// records, as many as the image holds tuples, another rewrite is no dearer
// than the records it absorbs, so the partition is folded into the disk
// copy at once: by the log device, woken for it, when one runs — the
// paper's second processor, leaving the commit only the stable-buffer
// work — and by the commit itself when none does. A bulk load, which
// fills partition after partition faster than any device interval,
// therefore writes each image once and leaves no more of the log in
// memory than its last, partly filled partitions; scattered updates
// accumulate as before.
func (m *Manager) Commit(txn uint64) {
	m.mu.Lock()
	blocks := m.stable[txn]
	delete(m.stable, txn)
	var full []PartKey
	n := 0
	for _, b := range blocks {
		full = m.accumulate(b, full)
		n += len(b)
	}
	wake := m.wake
	if wake != nil {
		m.filled = append(m.filled, full...)
	}
	obs := m.obs
	m.mu.Unlock()
	if obs != nil {
		obs.LogFlush(n)
	}
	if wake != nil {
		if len(full) > 0 {
			select {
			case wake <- struct{}{}:
			default: // a wake is already pending; it folds these too
			}
		}
		return
	}
	for _, k := range full {
		// A disk copy that cannot be written is reported by the device
		// and by Close; the records stay queued for them.
		_ = m.propagatePartition(k)
	}
}

// accumulate moves a block of records into the change-accumulation log, a
// run of one partition's records at a time, and appends to full each
// partition whose count crossed calPartitionFull. A move record also joins
// the list of the partition it left. The caller holds mu.
func (m *Manager) accumulate(block []Record, full []PartKey) []PartKey {
	for i := 0; i < len(block); {
		k := PartKey{Rel: block[i].Rel, Part: block[i].Part}
		end := i + 1
		for end < len(block) && block[end].Part == k.Part && block[end].Rel == k.Rel {
			end++
		}
		rs := m.cal[k]
		before := len(rs)
		if need := before + end - i; need > cap(rs) {
			rs = append(make([]*Record, 0, max(need, 2*cap(rs))), rs...)
		}
		for ; i < end; i++ {
			r := &block[i]
			rs = append(rs, r)
			if r.Op == OpMove {
				full = m.add(PartKey{Rel: r.Rel, Part: r.From}, r, full)
			}
		}
		m.cal[k] = rs
		if before < calPartitionFull && len(rs) >= calPartitionFull {
			full = append(full, k)
		}
	}
	return full
}

// add appends a move record to the change-accumulation list of k, the
// partition it left, noting k in full if that fills it. The caller holds
// mu.
func (m *Manager) add(k PartKey, r *Record, full []PartKey) []PartKey {
	rs := append(m.cal[k], r)
	m.cal[k] = rs
	if len(rs) == calPartitionFull {
		full = append(full, k)
	}
	return full
}

// calPartitionFull is how many committed records one partition accumulates
// before it is folded into its image: a default partition's worth.
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
