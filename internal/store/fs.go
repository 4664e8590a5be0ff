package store

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// FS is the narrow filesystem seam the store writes through, so
// the torn-write injector (FaultFS) can cut any write or sync exactly
// like transport.FaultConn cuts a connection. OS is the real thing.
type FS interface {
	MkdirAll(dir string) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making a preceding rename or create in
	// it durable.
	SyncDir(dir string) error
}

// File is the subset of *os.File the backends use.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes a file via a temp sibling, fsyncs the data
// before renaming it over the final name, and fsyncs the parent
// directory after the rename — so a crash at any point leaves either the
// old content or the new, never a torn file, and the rename itself
// survives the crash (rename without a directory sync can be undone by
// a power cut). The temp file is removed on any failure.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return WriteFileAtomicFS(OS, path, write)
}

// WriteFileAtomicFS is WriteFileAtomic through an explicit FS.
func WriteFileAtomicFS(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		fsys.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return cleanup(err)
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// SanitizeID maps a UE-chosen session id onto a stable filesystem-safe
// name, suffixed with a hash of the raw id so distinct ids that
// sanitise alike stay distinct.
func SanitizeID(id string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, id)
	h := fnv.New32a()
	h.Write([]byte(id))
	return fmt.Sprintf("%s-%08x", clean, h.Sum32())
}
