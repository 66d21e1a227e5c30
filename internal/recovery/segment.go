package recovery

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// The disk copy is one append-only segment file of framed partition
// images. A frame is, big-endian like the image codec:
//
//	magic  uint32
//	crc    uint32  CRC-32C of every byte after this field
//	length uint32  image bytes
//	lsn    uint64  the image's LSN
//	part   uint32
//	relLen uint32
//	rel    relLen bytes
//	image  length bytes (storage.AppendPartition)
//
// An in-memory directory points each partition at its latest frame;
// earlier frames of it are dead bytes until compaction copies the live
// frames to a new file. A reader sees the old frame or the new one: the
// directory moves only after an append has been written whole.

// SegmentFile is the disk copy's file name inside the manager's directory.
const SegmentFile = "images.seg"

const (
	frameMagic = 0x4d4d4653 // "MMFS"
	frameFixed = 28         // header bytes before the relation name

	// compactRatio: the segment is compacted once it holds more than this
	// many times its live bytes, so the copy is paid for by as many bytes
	// of appends as it moves.
	compactRatio = 2
	// compactMinBytes keeps a small disk copy from compacting on nearly
	// every rewrite.
	compactMinBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameLoc is where a partition's latest frame lies in the segment.
type frameLoc struct {
	off, size int64
	lsn       uint64
}

// segment is the disk copy. Every field is guarded by Manager.imgMu.
type segment struct {
	fs          fileSystem
	path        string
	f           file // nil once closed
	dir         map[PartKey]frameLoc
	end         int64 // where the next frame goes
	live        int64 // bytes of the frames dir points at
	compactions int

	// Compaction's working memory: the live frames in file order, their
	// offsets in the copy, and the bytes being copied.
	order   []PartKey
	offs    []int64
	copyBuf []byte
}

var errClosed = errors.New("recovery: disk copy closed")

// openSegment opens dir's segment, creating it if absent, and rebuilds
// the directory from the frame headers. The latest frame of a partition
// wins. A final frame cut short or failing its CRC is an append a crash
// interrupted: it is truncated, so that partition keeps its previous
// frame. Any other bad frame header is an error.
func openSegment(fs fileSystem, dir string) (*segment, error) {
	path := filepath.Join(dir, SegmentFile)
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	s := &segment{fs: fs, path: path, f: f, dir: make(map[PartKey]frameLoc)}
	if err := s.scan(); err != nil {
		f.Close() // the scan error is what matters
		return nil, err
	}
	// A compaction a crash interrupted left its copy unrenamed.
	_ = fs.Remove(path + ".tmp") // best effort: usually absent
	return s, nil
}

func (s *segment) scan() error {
	size, err := s.f.Size()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	var win [frameFixed + 64]byte
	for off := int64(0); off < size; {
		n, err := s.f.ReadAt(win[:], off)
		if err != nil && err != io.EOF {
			return fmt.Errorf("recovery: %w", err)
		}
		if n < frameFixed {
			return s.truncate(off)
		}
		h := win[:n]
		if m := binary.BigEndian.Uint32(h); m != frameMagic {
			return fmt.Errorf("recovery: %s: bad frame magic %#x at offset %d", s.path, m, off)
		}
		length := int64(binary.BigEndian.Uint32(h[8:]))
		lsn := binary.BigEndian.Uint64(h[12:])
		part := int(binary.BigEndian.Uint32(h[20:]))
		relLen := int64(binary.BigEndian.Uint32(h[24:]))
		frameSize := frameFixed + relLen + length
		if off+frameSize > size {
			return s.truncate(off)
		}
		var rel string
		if frameFixed+relLen <= int64(n) {
			rel = string(h[frameFixed : frameFixed+relLen])
		} else {
			name := make([]byte, relLen)
			if _, err := s.f.ReadAt(name, off+frameFixed); err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
			rel = string(name)
		}
		if off+frameSize == size {
			frame := make([]byte, frameSize)
			if _, err := s.f.ReadAt(frame, off); err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
			if !frameCRCOK(frame) {
				return s.truncate(off)
			}
		}
		k := PartKey{Rel: rel, Part: part}
		s.live -= s.dir[k].size
		s.dir[k] = frameLoc{off: off, size: frameSize, lsn: lsn}
		s.live += frameSize
		off += frameSize
		s.end = off
	}
	return nil
}

// truncate cuts a torn final frame off at off.
func (s *segment) truncate(off int64) error {
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("recovery: truncating torn frame: %w", err)
	}
	s.end = off
	return nil
}

func frameCRCOK(frame []byte) bool {
	return binary.BigEndian.Uint32(frame[4:]) == crc32.Checksum(frame[8:], castagnoli)
}

// appendHeader starts a frame for k's image in buf; the image is appended
// after it and the whole handed to put.
func appendHeader(buf []byte, k PartKey, lsn uint64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, frameMagic)
	buf = binary.BigEndian.AppendUint64(buf, 0) // crc and length: put fills them
	buf = binary.BigEndian.AppendUint64(buf, lsn)
	buf = binary.BigEndian.AppendUint32(buf, uint32(k.Part))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(k.Rel)))
	return append(buf, k.Rel...)
}

// put appends frame, begun by appendHeader for k, with one positioned
// write and points k at it.
func (s *segment) put(k PartKey, frame []byte) error {
	if s.f == nil {
		return errClosed
	}
	binary.BigEndian.PutUint32(frame[8:], uint32(len(frame)-frameFixed-len(k.Rel)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	if _, err := s.f.WriteAt(frame, s.end); err != nil {
		// Leave no partial frame for the next append to land behind.
		_ = s.f.Truncate(s.end) // best effort: the write error is what matters
		return fmt.Errorf("recovery: %w", err)
	}
	size := int64(len(frame))
	s.live += size - s.dir[k].size
	s.dir[k] = frameLoc{off: s.end, size: size, lsn: binary.BigEndian.Uint64(frame[12:])}
	s.end += size
	return nil
}

// read reads k's latest frame into buf, grown as needed, checks its CRC
// and returns the image bytes within it; a partition with no frame
// returns a nil image.
func (s *segment) read(k PartKey, buf []byte) (grown, img []byte, err error) {
	loc, ok := s.dir[k]
	if !ok {
		return buf, nil, nil
	}
	if s.f == nil {
		return buf, nil, errClosed
	}
	buf = slices.Grow(buf[:0], int(loc.size))[:loc.size]
	if _, err := s.f.ReadAt(buf, loc.off); err != nil {
		return buf, nil, fmt.Errorf("recovery: reading %s.%d: %w", k.Rel, k.Part, err)
	}
	if !frameCRCOK(buf) {
		return buf, nil, fmt.Errorf("recovery: image of %s.%d at offset %d fails its CRC", k.Rel, k.Part, loc.off)
	}
	return buf, buf[frameFixed+len(k.Rel):], nil
}

// compactIfDue copies the live frames to a new file and renames it over
// the segment once the segment holds compactRatio times its live bytes.
// The copy is synced before the rename, so that no power loss can leave
// the name pointing at a copy whose bytes never reached the disk.
func (s *segment) compactIfDue() error {
	if s.f == nil || s.end <= compactMinBytes || s.end <= compactRatio*s.live {
		return nil
	}
	tmp := s.path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		err = s.copyLive(f)
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = s.fs.Rename(tmp, s.path)
		}
		if err != nil {
			f.Close()            // the copy's error is what matters
			_ = s.fs.Remove(tmp) // best effort: the old segment stays whole
		}
	}
	if err != nil {
		return fmt.Errorf("recovery: compacting the disk copy: %w", err)
	}
	s.f.Close() // only read since the copy began, and now unlinked
	s.f = f
	for i, k := range s.order {
		loc := s.dir[k]
		loc.off = s.offs[i]
		s.dir[k] = loc
	}
	s.end = s.live
	s.compactions++
	return nil
}

// copyLive writes the live frames to f in their file order, a chunk at a
// time, noting each one's new offset in s.offs.
func (s *segment) copyLive(f file) error {
	const chunk = 1 << 20
	s.order = s.order[:0]
	for k := range s.dir {
		s.order = append(s.order, k)
	}
	slices.SortFunc(s.order, func(a, b PartKey) int { return cmp.Compare(s.dir[a].off, s.dir[b].off) })
	s.offs = s.offs[:0]
	buf := s.copyBuf[:0]
	var flushed int64
	for _, k := range s.order {
		loc := s.dir[k]
		if len(buf) > 0 && len(buf)+int(loc.size) > chunk {
			if _, err := f.Write(buf); err != nil {
				return err
			}
			flushed += int64(len(buf))
			buf = buf[:0]
		}
		n := len(buf)
		buf = slices.Grow(buf, int(loc.size))[:n+int(loc.size)]
		if _, err := s.f.ReadAt(buf[n:], loc.off); err != nil {
			return err
		}
		s.offs = append(s.offs, flushed+int64(n))
	}
	_, err := f.Write(buf)
	s.copyBuf = buf[:0]
	return err
}

func (s *segment) close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
