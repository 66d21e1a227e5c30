package recovery

import "os"

// file is what the disk copy needs of an open file. Production wraps
// *os.File (osFile); a test substitutes one that records every write, so
// that it can reopen the disk copy as a crash would have left it after any
// prefix of them.
type file interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// fileSystem opens, renames and removes the disk copy's files.
type fileSystem interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
