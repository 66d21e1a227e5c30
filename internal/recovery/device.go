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
	// The tuples just applied point into their transactions' record
	// blocks: drop them from the scratch, which would keep those blocks
	// alive after the records are pruned.
	clear(img.Tuples)
	return err
}

// Device runs PropagateOnce on an interval — the background log device.
type Device struct {
	m        *Manager
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	lastErr  error
}

// StartDevice launches the background propagation loop.
func (m *Manager) StartDevice(interval time.Duration) *Device {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	d := &Device{m: m, interval: interval, stop: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *Device) run() {
	defer close(d.done)
	t := time.NewTicker(d.interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.m.PropagateOnce(); err != nil {
				d.mu.Lock()
				d.lastErr = err
				d.mu.Unlock()
			}
		}
	}
}

// Stop halts the device after finishing the current pass and returns the
// last propagation error, if any.
func (d *Device) Stop() error {
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
