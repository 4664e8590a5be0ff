package store

import (
	"errors"
	"os"
	"sync"
)

// ErrInjectedFault is returned by FaultFS once its write budget is
// exhausted — the storage twin of transport.ErrInjectedFault.
var ErrInjectedFault = errors.New("store: injected fault")

// FaultFS wraps an FS with a shared write byte budget, simulating a
// power cut mid-write: the write that exhausts the budget delivers only
// the remaining bytes to the inner file and then fails, and every later
// mutating operation (writes, syncs, renames, removes, creates,
// truncates) fails immediately. Reads keep working, so a test can
// inspect what actually reached "disk". The semantics mirror
// transport.FaultConn, which does the same to a connection.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	budget  int64
	tripped bool
}

// NewFaultFS wraps inner with writeBudget bytes of allowed writes.
func NewFaultFS(inner FS, writeBudget int64) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner, budget: writeBudget}
}

// Tripped reports whether the budget has been exhausted.
func (ff *FaultFS) Tripped() bool {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.tripped
}

// Trip exhausts the budget immediately: any write in flight delivers no
// further bytes and every later mutating operation fails. The chaos
// harness calls this at the instant of an unclean replica kill, so a
// checkpoint racing the kill lands torn on "disk" — exactly the state a
// power cut mid-write leaves behind for recovery to truncate away.
func (ff *FaultFS) Trip() {
	ff.mu.Lock()
	ff.budget = 0
	ff.tripped = true
	ff.mu.Unlock()
}

// take consumes up to n bytes of budget. It returns how many bytes may
// still be written and whether the fault fires on this operation.
func (ff *FaultFS) take(n int) (allowed int, fault bool) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.tripped {
		return 0, true
	}
	if int64(n) <= ff.budget {
		ff.budget -= int64(n)
		return n, false
	}
	allowed = int(ff.budget)
	ff.budget = 0
	ff.tripped = true
	return allowed, true
}

// mutate gates a non-write mutating operation (rename, sync, ...): it
// fails iff the fault has already fired.
func (ff *FaultFS) mutate() error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.tripped {
		return ErrInjectedFault
	}
	return nil
}

func (ff *FaultFS) MkdirAll(dir string) error {
	if err := ff.mutate(); err != nil {
		return err
	}
	return ff.inner.MkdirAll(dir)
}

func (ff *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		if err := ff.mutate(); err != nil {
			return nil, err
		}
	}
	f, err := ff.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, fs: ff}, nil
}

func (ff *FaultFS) Rename(oldpath, newpath string) error {
	if err := ff.mutate(); err != nil {
		return err
	}
	return ff.inner.Rename(oldpath, newpath)
}

func (ff *FaultFS) Remove(name string) error {
	if err := ff.mutate(); err != nil {
		return err
	}
	return ff.inner.Remove(name)
}

func (ff *FaultFS) SyncDir(dir string) error {
	if err := ff.mutate(); err != nil {
		return err
	}
	return ff.inner.SyncDir(dir)
}

// faultFile applies the shared budget to one file's writes.
type faultFile struct {
	inner File
	fs    *FaultFS
}

func (f *faultFile) Read(p []byte) (int, error)              { return f.inner.Read(p) }
func (f *faultFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *faultFile) Close() error                            { return f.inner.Close() }
func (f *faultFile) Stat() (os.FileInfo, error)              { return f.inner.Stat() }

func (f *faultFile) Write(p []byte) (int, error) {
	allowed, fault := f.fs.take(len(p))
	var n int
	var err error
	if allowed > 0 {
		n, err = f.inner.Write(p[:allowed])
	}
	if fault {
		return n, ErrInjectedFault
	}
	return n, err
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	allowed, fault := f.fs.take(len(p))
	var n int
	var err error
	if allowed > 0 {
		n, err = f.inner.WriteAt(p[:allowed], off)
	}
	if fault {
		return n, ErrInjectedFault
	}
	return n, err
}

func (f *faultFile) Sync() error {
	if err := f.fs.mutate(); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.mutate(); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}
