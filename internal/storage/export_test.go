package storage

// StoredBytes is storedBytes, for the package's external tests.
func (r *Relation) StoredBytes() int64 { return r.storedBytes() }

// SameCursor reports whether two slab marks are one cursor position.
func SameCursor(a, b SlabMark) bool {
	return sameArray(a.tslab, b.tslab) && len(a.tslab) == len(b.tslab) &&
		len(a.varena) == len(b.varena) && a.rows == b.rows
}

// NextTuple returns the header the next tuple carved at m takes, or nil
// when m's chunk is full and the next tuple opens a new one.
func NextTuple(m SlabMark) *Tuple {
	n := len(m.tslab)
	if n == cap(m.tslab) {
		return nil
	}
	return &m.tslab[:n+1][n]
}
