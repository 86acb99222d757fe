package minisql

// The filesystem seam. Every byte the durability layer persists — WAL
// segments (disklog.go), checkpoints and the node's meta record (store.go) —
// flows through the FS interface below instead of calling package os directly.
// Production always runs on OSFS, a zero-state passthrough whose only cost
// is one interface dispatch per (already syscall-priced) operation; tests
// swap in a fault-injecting implementation (internal/chaos.FaultFS) to
// exercise the sticky-error, ENOSPC, and torn-tail-truncation paths that a
// real disk only produces at 3am. The interface is deliberately the minimal
// verb set the two files actually use, not a general VFS.

import (
	"io"
	"os"
)

// File is the subset of *os.File the durability layer needs: sequential
// writes, reads (checkpoint streaming), fsync, and close.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations under the WAL and checkpoint
// store. Implementations must be safe for concurrent use by independent
// operations, like the os package is.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// OSFS is the production filesystem: a stateless passthrough to package os.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
