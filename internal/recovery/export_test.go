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

// File and FileSystem let a test stand in for the operating system's
// files.
type (
	File       = file
	FileSystem = fileSystem
)

// FrameFixed is the size of a frame header before the relation name.
const FrameFixed = frameFixed

// NewManagerFS is NewManager over the file system fs.
func NewManagerFS(dir string, fs FileSystem) (*Manager, error) { return newManager(dir, fs) }

// Image returns a copy of the image bytes in k's latest frame, nil if k
// has none.
func (m *Manager) Image(k PartKey) ([]byte, error) {
	m.imgMu.Lock()
	defer m.imgMu.Unlock()
	_, img, err := m.seg.read(k, nil)
	return img, err
}

// Filled counts the full partitions queued for the log device.
func (m *Manager) Filled() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.filled)
}

// HoldImages keeps every image writer — the log device included — waiting
// until the returned release is called.
func (m *Manager) HoldImages() (release func()) {
	m.imgMu.Lock()
	return m.imgMu.Unlock
}
