package recovery_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
)

// memFS is an in-memory file system that logs, in order, every call that
// changes a file, so that a test can rebuild the files a crash after any
// prefix of those calls would have left.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memInode
	ops   []fsOp
}

// memInode is one file's bytes; an open handle keeps writing to it across
// a rename, as a file descriptor does.
type memInode struct {
	name string // "" once unlinked
	data []byte
}

type fsOpKind uint8

const (
	opCreate   fsOpKind = iota // name created, or truncated on open
	opWrite                    // data written at off
	opTruncate                 // name cut to off bytes
	opRename                   // name renamed over to
	opRemove                   // name unlinked
)

type fsOp struct {
	kind fsOpKind
	name string
	to   string
	off  int64
	data []byte
	at   bool // opWrite: a WriteAt (an append of a frame), not a Write
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memInode)} }

func (fs *memFS) OpenFile(name string, flag int, _ os.FileMode) (recovery.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino := fs.files[name]
	switch {
	case ino == nil && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case ino == nil:
		ino = &memInode{name: name}
		fs.files[name] = ino
		fs.ops = append(fs.ops, fsOp{kind: opCreate, name: name})
	case flag&os.O_TRUNC != 0:
		ino.data = nil
		fs.ops = append(fs.ops, fsOp{kind: opCreate, name: name})
	}
	return &memFile{fs: fs, ino: ino}, nil
}

func (fs *memFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino := fs.files[oldpath]
	if ino == nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	if old := fs.files[newpath]; old != nil {
		old.name = ""
	}
	delete(fs.files, oldpath)
	fs.files[newpath], ino.name = ino, newpath
	fs.ops = append(fs.ops, fsOp{kind: opRename, name: oldpath, to: newpath})
	return nil
}

func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino := fs.files[name]
	if ino == nil {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	ino.name = ""
	delete(fs.files, name)
	fs.ops = append(fs.ops, fsOp{kind: opRemove, name: name})
	return nil
}

// writeAt writes p into data at off, growing it as a file grows.
func writeAt(data, p []byte, off int64) []byte {
	if end := off + int64(len(p)); end > int64(len(data)) {
		data = append(data, make([]byte, end-int64(len(data)))...)
	}
	copy(data[off:], p)
	return data
}

// replay builds the files ops leave behind, as a fresh file system that
// logs from empty.
func replay(ops []fsOp) *memFS {
	fs := newMemFS()
	for _, op := range ops {
		switch op.kind {
		case opCreate:
			fs.files[op.name] = &memInode{name: op.name}
		case opWrite:
			ino := fs.files[op.name]
			ino.data = writeAt(ino.data, op.data, op.off)
		case opTruncate:
			ino := fs.files[op.name]
			ino.data = ino.data[:op.off]
		case opRename:
			ino := fs.files[op.name]
			delete(fs.files, op.name)
			fs.files[op.to], ino.name = ino, op.to
		case opRemove:
			delete(fs.files, op.name)
		}
	}
	return fs
}

type memFile struct {
	fs  *memFS
	ino *memInode
	pos int64 // where Write writes
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) { return f.write(p, off, true) }

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.write(p, f.pos, false)
	f.pos += int64(n)
	return n, err
}

func (f *memFile) write(p []byte, off int64, at bool) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.data = writeAt(f.ino.data, p, off)
	if f.ino.name != "" {
		f.fs.ops = append(f.fs.ops, fsOp{kind: opWrite, name: f.ino.name, off: off, data: slices.Clone(p), at: at})
	}
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.data = f.ino.data[:size]
	if f.ino.name != "" {
		f.fs.ops = append(f.fs.ops, fsOp{kind: opTruncate, name: f.ino.name, off: size})
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.ino.data)), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// diskState is what the segment holds after a prefix of the write
// sequence: each partition's image as its last complete frame write left
// it, and where the segment ends.
type diskState struct {
	images map[recovery.PartKey][]byte
	end    int64
}

// stateAfter reads the disk copy's state after ops. A frame append
// (WriteAt) to the segment sets its partition's image; a compaction's
// rename over the segment keeps every image and moves the end to the
// copy's size.
func stateAfter(ops []fsOp, seg string) diskState {
	st := diskState{images: make(map[recovery.PartKey][]byte)}
	sizes := map[string]int64{}
	for _, op := range ops {
		switch op.kind {
		case opCreate:
			sizes[op.name] = 0
		case opWrite:
			sizes[op.name] = max(sizes[op.name], op.off+int64(len(op.data)))
			if op.at && op.name == seg {
				f := op.data
				relLen := int(binary.BigEndian.Uint32(f[24:]))
				k := recovery.PartKey{
					Rel:  string(f[recovery.FrameFixed : recovery.FrameFixed+relLen]),
					Part: int(binary.BigEndian.Uint32(f[20:])),
				}
				st.images[k] = f[recovery.FrameFixed+relLen:]
				st.end = op.off + int64(len(f))
			}
		case opTruncate:
			sizes[op.name] = op.off
		case opRename:
			sizes[op.to] = sizes[op.name]
			if op.to == seg {
				st.end = sizes[op.to]
			}
		}
	}
	return st
}

// crashRelation is a relation whose partitions hold a default partition's
// worth of rows, 150-byte names and all, so a few image rewrites carry the
// segment past its compaction floor.
func crashRelation(t *testing.T) *storage.Relation {
	t.Helper()
	rel, err := storage.NewRelation("crash", storage.MustSchema(
		storage.FieldDef{Name: "name", Type: storage.Str},
		storage.FieldDef{Name: "n", Type: storage.Int},
	), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// recordCrashWorkload runs a scripted workload against a manager over a
// recording file system and returns the calls it made: a load over four
// partitions beside a log device, which folds each partition as it fills;
// scattered updates and deletes; an aborted transaction; a Checkpoint;
// and image rewrites until the segment has compacted, and a few after.
func recordCrashWorkload(t *testing.T) []fsOp {
	t.Helper()
	fs := newMemFS()
	m, err := recovery.NewManagerFS("db", fs)
	if err != nil {
		t.Fatal(err)
	}
	rel := crashRelation(t)
	tm := txn.NewManager(lock.NewManager(), m)
	commit := func(tx *txn.Txn) []*storage.Tuple {
		t.Helper()
		ins, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	name := func(i int) storage.Value {
		return storage.StringValue(fmt.Sprintf("%03d%s", i%1000, strings.Repeat("n", 147)))
	}

	dev := m.StartDevice(time.Hour)
	var rows []*storage.Tuple
	for lo := 0; lo < 4*storage.DefaultSlotsPerPartition-100; lo += 100 {
		tx := tm.Begin()
		for i := lo; i < lo+100; i++ {
			if err := tx.Insert(rel, []storage.Value{name(i), storage.IntValue(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		rows = append(rows, commit(tx)...)
	}
	if err := dev.Stop(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(rows); i += 37 {
		tx := tm.Begin()
		if err := tx.Update(rel, rows[i], 1, storage.IntValue(-int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(rel, rows[i+1]); err != nil {
			t.Fatal(err)
		}
		commit(tx)
	}
	tx := tm.Begin()
	if err := tx.Insert(rel, []storage.Value{name(-1), storage.IntValue(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(rel, rows[5], 1, storage.IntValue(-5)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := m.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(rel); err != nil {
		t.Fatal(err)
	}
	for round, after := 0, 3; after > 0; round++ {
		if m.Compactions() > 0 {
			after--
		}
		tx := tm.Begin()
		for _, p := range rel.Partitions() {
			block, _ := p.Gather(nil, func(storage.TupleBatch) bool { return false })
			if err := tx.Update(rel, block[0], 1, storage.IntValue(int64(round))); err != nil {
				t.Fatal(err)
			}
		}
		commit(tx)
		if err := m.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return fs.ops
}

// TestReopenAtEveryCrashCut records every write of a scripted workload
// and reopens the disk copy as a crash after each prefix of them would
// have left it, and after each prefix whose last frame append is torn at
// a random byte. Each time the manager opens; each partition restarts to
// the image its last complete frame write gave it — compaction keeps it,
// and a torn frame falls back to the one before; and the next append
// lands where the last complete frame ended.
func TestReopenAtEveryCrashCut(t *testing.T) {
	ops := recordCrashWorkload(t)
	seg := filepath.Join("db", recovery.SegmentFile)
	var frames, compactions int
	for _, op := range ops {
		if op.kind == opWrite && op.at {
			frames++
		}
		if op.kind == opRename {
			compactions++
		}
	}
	if compactions == 0 || frames < 20 {
		t.Fatalf("workload wrote %d frames and compacted %d times: want a compaction", frames, compactions)
	}
	t.Logf("%d calls: %d frame appends, %d compactions", len(ops), frames, compactions)
	rng := rand.New(rand.NewSource(38))
	for cut := 0; cut <= len(ops); cut++ {
		reopenAtCut(t, fmt.Sprintf("after %d of %d calls", cut, len(ops)), ops[:cut], seg)
		if cut < len(ops) && ops[cut].kind == opWrite && ops[cut].at {
			torn := ops[cut]
			torn.data = torn.data[:1+rng.Intn(len(torn.data)-1)]
			prefix := append(slices.Clip(ops[:cut]), torn)
			fs := replay(prefix)
			want := stateAfter(ops[:cut], seg)
			checkReopen(t, fmt.Sprintf("call %d torn at byte %d of %d", cut, len(torn.data), len(ops[cut].data)), fs, want)
		}
	}
}

func reopenAtCut(t *testing.T, name string, ops []fsOp, seg string) {
	t.Helper()
	checkReopen(t, name, replay(ops), stateAfter(ops, seg))
}

// checkReopen opens a manager over fs and checks that it holds want.
func checkReopen(t *testing.T, name string, fs *memFS, want diskState) {
	t.Helper()
	m, err := recovery.NewManagerFS("db", fs)
	if err != nil {
		t.Fatalf("%s: reopen: %v", name, err)
	}
	defer m.Close()
	keys, err := m.DiskPartitions()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(keys) != len(want.images) {
		t.Fatalf("%s: %d partitions on disk, want %d", name, len(keys), len(want.images))
	}
	rel := crashRelation(t)
	r := m.NewRestart(rel)
	if err := r.LoadRemaining(); err != nil {
		t.Fatalf("%s: restart: %v", name, err)
	}
	rows := 0
	for _, k := range keys {
		img, err := m.Image(k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(img, want.images[k]) {
			t.Fatalf("%s: partition %v holds a %d-byte image, want the %d-byte one its last complete frame wrote", name, k, len(img), len(want.images[k]))
		}
		got := storage.AppendPartition(nil, rel.Partitions()[k.Part].Snapshot())
		if !bytes.Equal(got, img) {
			t.Fatalf("%s: partition %v restarted to something other than its image", name, k)
		}
		rows += rel.Partitions()[k.Part].Live()
	}
	if rows != rel.Cardinality() {
		t.Fatalf("%s: restart loaded %d rows, the images hold %d", name, rel.Cardinality(), rows)
	}

	// The next append lands at the cut.
	fs.mu.Lock()
	fs.ops = nil
	fs.mu.Unlock()
	probe, err := storage.NewRelation("probe", storage.MustSchema(storage.FieldDef{Name: "n", Type: storage.Int}), storage.Config{}, storage.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Insert([]storage.Value{storage.IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(probe); err != nil {
		t.Fatalf("%s: append after reopen: %v", name, err)
	}
	i := slices.IndexFunc(fs.ops, func(op fsOp) bool { return op.kind == opWrite && op.at })
	if i < 0 || fs.ops[i].off != want.end {
		t.Fatalf("%s: the next frame went to call %d of %d after the reopen, want one at offset %d", name, i, len(fs.ops), want.end)
	}
}
