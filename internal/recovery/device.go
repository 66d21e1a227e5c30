package recovery

import (
	"sync"
	"time"

	"repro/internal/storage"
)

// The active log device: "during normal operation, the log device reads
// the updates of committed transactions from the stable log buffer and
// updates the disk copy of the database. The log device holds a change
// accumulation log, so it does not need to update the disk version of the
// database every time a partition is modified" (§2.4).

// PropagateOnce folds the committed change-accumulation records of every
// partition into its disk-copy image. It runs entirely against the disk
// copy — the in-memory database is not consulted — which is what lets it
// run on a separate device in the paper's design.
func (m *Manager) PropagateOnce() error {
	m.mu.Lock()
	keys := make([]PartKey, 0, len(m.cal))
	for k := range m.cal {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	for _, k := range keys {
		if err := m.propagatePartition(k); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) propagatePartition(k PartKey) error {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	img, err := m.readDiskImage(k)
	if err != nil {
		return err
	}
	recs := m.records(k, img.LSN)
	if len(recs) == 0 {
		return nil
	}
	applyRecords(&img, recs)
	err = m.putImage(k, img)
	// The tuples just applied hold the logged rows: drop them from the
	// scratch, which would keep those rows alive after the records are
	// pruned.
	clear(img.Tuples)
	return err
}

// foldFilled folds the partitions commits queued as full.
func (m *Manager) foldFilled() error {
	m.mu.Lock()
	keys := m.filled
	m.filled = nil
	m.mu.Unlock()
	for _, k := range keys {
		if err := m.propagatePartition(k); err != nil {
			return err
		}
	}
	return nil
}

// Device is the background log device: it folds each partition a commit
// fills as soon as the commit wakes it, and runs PropagateOnce on an
// interval for the rest.
type Device struct {
	m        *Manager
	interval time.Duration
	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	lastErr  error
}

// StartDevice launches the background propagation loop. From now until
// Stop, commits leave the partitions they fill to the device.
func (m *Manager) StartDevice(interval time.Duration) *Device {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	d := &Device{
		m: m, interval: interval,
		wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}),
	}
	m.mu.Lock()
	m.wake = d.wake
	m.mu.Unlock()
	go d.run()
	return d
}

func (d *Device) run() {
	defer close(d.done)
	t := time.NewTicker(d.interval)
	defer t.Stop()
	for {
		var err error
		select {
		case <-d.stop:
			// Stop has unregistered the wake, so no commit queues a key
			// after this drain.
			d.record(d.m.foldFilled())
			return
		case <-d.wake:
			err = d.m.foldFilled()
		case <-t.C:
			err = d.m.PropagateOnce()
		}
		d.record(err)
	}
}

func (d *Device) record(err error) {
	if err != nil {
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
	}
}

// Stop halts the device after finishing the current pass and folding the
// partitions queued for it, and returns the last propagation error, if
// any. Commits after Stop fold the partitions they fill themselves.
func (d *Device) Stop() error {
	d.m.mu.Lock()
	if d.m.wake == d.wake {
		d.m.wake = nil
	}
	d.m.mu.Unlock()
	close(d.stop)
	<-d.done
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastErr
}

// readDiskImage reads a partition's disk image, or an empty one if the
// partition has never been written, into the manager's propagation
// scratch: the image is valid until the next call. The caller holds imgMu.
func (m *Manager) readDiskImage(k PartKey) (storage.PartitionImage, error) {
	var data []byte
	var err error
	m.readBuf, data, err = m.seg.read(k, m.readBuf)
	if err != nil || data == nil {
		return storage.PartitionImage{Relation: k.Rel, PartID: k.Part}, err
	}
	return m.decoded.Decode(data)
}
