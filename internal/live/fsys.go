package live

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// fsys is every file-system call of the durable layer (checkpoint.go,
// wal.go, scheduler.go). osFS, the operating system's, is the one programs
// run on; ViewConfig.fs, which only this package's tests set, swaps in one
// that records each call and enumerates what a crash between two of them
// can leave on disk (crash_test.go).
type fsys interface {
	Create(path string) (file, error)     // create or truncate, for writing
	OpenAppend(path string) (file, error) // read from the start, append at the end
	Open(path string) (io.ReadCloser, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
	MkdirAll(dir string) error
	Rename(from, to string) error
	Remove(path string) error
	RemoveAll(path string) error
	SyncDir(dir string) error // makes the creates, renames and removes in dir durable
}

// file is an open file of an fsys; its written bytes are durable once Sync
// returns.
type file interface {
	io.ReadWriteCloser
	Sync() error
	Truncate(size int64) error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) Create(path string) (file, error) { return os.Create(path) }

func (osFS) OpenAppend(path string) (file, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
}

func (osFS) Open(path string) (io.ReadCloser, error)   { return os.Open(path) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) RemoveAll(path string) error               { return os.RemoveAll(path) }

// SyncDir fsyncs the directory. Some file systems refuse to fsync
// directories (EINVAL/ENOTSUP); those errors are ignored — on such systems
// an entry is as durable as it can be made.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
