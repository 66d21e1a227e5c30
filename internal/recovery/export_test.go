package recovery

// FrameOf reports where k's latest frame lies in the disk copy.
func (m *Manager) FrameOf(k PartKey) (off, size int64, lsn uint64, ok bool) {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	loc, ok := m.seg.dir[k]
	return loc.off, loc.size, loc.lsn, ok
}

// Compactions counts the disk copy's compactions since the manager opened.
func (m *Manager) Compactions() int {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	return m.seg.compactions
}

// LiveBytes is the size of the frames the directory points at.
func (m *Manager) LiveBytes() int64 {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	return m.seg.live
}
