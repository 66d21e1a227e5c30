package recovery

import (
	"fmt"
	"slices"

	"repro/internal/storage"
)

// Restart rebuilds an in-memory database after a crash. Per §2.4, "each
// partition that participates in the working set is read from the disk
// copy of the database; the log device is checked for any updates to that
// partition that have not yet been propagated to the disk copy; any
// updates that exist are merged with the partition on the fly". Once the
// working set is in, the rest of the database is read by a background
// process while normal operation resumes.
type Restart struct {
	mgr    *Manager
	loader *storage.Loader
	rels   map[string]*storage.Relation
	loaded map[PartKey]bool
	buf    []byte // the frame being read
}

// NewRestart begins recovery into the given (empty) relations; their
// schemas must match the crashed database.
func (m *Manager) NewRestart(rels ...*storage.Relation) *Restart {
	r := &Restart{
		mgr:    m,
		loader: storage.NewLoader(rels...),
		rels:   make(map[string]*storage.Relation, len(rels)),
		loaded: make(map[PartKey]bool),
	}
	for _, rel := range rels {
		r.rels[rel.Name()] = rel
	}
	return r
}

// LoadPartition brings one partition into memory: disk image plus any
// unpropagated change-accumulation records merged on the fly.
func (r *Restart) LoadPartition(k PartKey) error {
	if r.loaded[k] {
		return nil
	}
	if _, ok := r.rels[k.Rel]; !ok {
		return fmt.Errorf("recovery: restart has no relation %q", k.Rel)
	}
	img, err := r.readImage(k)
	if err != nil {
		return err
	}
	applyRecords(&img, r.mgr.records(k, img.LSN))
	if err := r.loader.LoadPartition(img); err != nil {
		return err
	}
	r.loaded[k] = true
	return nil
}

func (r *Restart) readImage(k PartKey) (storage.PartitionImage, error) {
	r.mgr.imgMu.Lock()
	var data []byte
	var err error
	r.buf, data, err = r.mgr.seg.read(k, r.buf)
	r.mgr.imgMu.Unlock()
	if err != nil {
		return storage.PartitionImage{}, err
	}
	if data == nil {
		// Partition created after the last image write: replay starts
		// from an empty image.
		return storage.PartitionImage{Relation: k.Rel, PartID: k.Part}, nil
	}
	// The decoded image copies what it keeps, so r.buf is free again.
	return storage.DecodePartition(data)
}

// applyRecords folds records, in LSN order, into a partition image and
// raises its LSN to the last one. An inserted row joins the image by
// reference — the record's Row, or a copy of its Vals — so folding writes
// through no record.
func applyRecords(img *storage.PartitionImage, recs []*Record) {
	inserts := 0
	for _, rec := range recs {
		if rec.Op == OpInsert || rec.Op == OpMove {
			inserts++
		}
	}
	img.Tuples = slices.Grow(img.Tuples, inserts)
	for _, rec := range recs {
		applyToImage(img, rec)
		img.LSN = max(img.LSN, rec.LSN)
	}
}

// applyToImage folds one log record into a partition image. An update or
// delete whose tuple is absent is skipped: the tuple was physically moved
// to another partition after the record was routed, and that partition's
// image (checkpointed after the move, hence after this record) already
// reflects the change.
func applyToImage(img *storage.PartitionImage, rec *Record) {
	if rec.Op == OpInsert || rec.Op == OpMove && rec.Part == img.PartID {
		t := storage.TupleImage{ID: rec.Tuple, Vals: slices.Clone(rec.Vals), Row: rec.Row}
		if rec.Op == OpMove {
			if i := indexOf(img, rec.Tuple); i >= 0 { // moved here earlier in the records
				img.Tuples[i] = t
				return
			}
		}
		img.Tuples = append(img.Tuples, t)
		return
	}
	i := indexOf(img, rec.Tuple)
	switch {
	case i < 0:
	case rec.Op == OpUpdate:
		t := &img.Tuples[i]
		if t.Row.Len() > 0 { // a logged row, never written: image it first
			t.Vals = make([]storage.ValueImage, t.Row.Len())
			for f := range t.Vals {
				t.Vals[f] = storage.ImageOf(t.Row.At(f))
			}
			t.Row = storage.Version{}
		}
		t.Vals[rec.Field] = rec.Vals[0]
	default: // a delete, or a move out of this partition
		img.Tuples = slices.Delete(img.Tuples, i, i+1)
	}
}

// indexOf returns the position of tuple id in img, or -1.
func indexOf(img *storage.PartitionImage, id uint64) int {
	return slices.IndexFunc(img.Tuples, func(t storage.TupleImage) bool { return t.ID == id })
}

// AllPartitions lists every partition recovery knows about: disk images
// plus partitions that exist only in the change-accumulation log.
func (r *Restart) AllPartitions() ([]PartKey, error) {
	keys, err := r.mgr.DiskPartitions()
	if err != nil {
		return nil, err
	}
	seen := make(map[PartKey]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	r.mgr.mu.Lock()
	for k := range r.mgr.cal {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	r.mgr.mu.Unlock()
	return keys, nil
}

// LoadWorkingSet loads the named partitions — the first phase of restart,
// after which the current transactions' data is available.
func (r *Restart) LoadWorkingSet(keys []PartKey) error {
	for _, k := range keys {
		if err := r.LoadPartition(k); err != nil {
			return err
		}
	}
	return nil
}

// LoadRemaining loads every partition not yet in memory — the background
// phase of restart.
func (r *Restart) LoadRemaining() error {
	keys, err := r.AllPartitions()
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := r.LoadPartition(k); err != nil {
			return err
		}
	}
	return nil
}

// LoadRemainingAsync runs LoadRemaining followed by Finish in a background
// goroutine, mirroring the paper's "remainder of the database is read in
// by a background process"; the result arrives on the returned channel.
func (r *Restart) LoadRemainingAsync() <-chan error {
	done := make(chan error, 1)
	go func() {
		if err := r.LoadRemaining(); err != nil {
			done <- err
			return
		}
		done <- r.Finish()
	}()
	return done
}

// Finish resolves tuple-pointer (foreign key) fields once every partition
// holding referenced tuples is in memory. Call after the final load phase.
func (r *Restart) Finish() error {
	return r.loader.Finish()
}
