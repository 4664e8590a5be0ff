package store

import (
	"errors"
	"fmt"
	"io"
)

// Single-writer guard. The journal assumes exactly one process writes
// it: two servers adopting the same journal would interleave appends
// with no ordering guarantee. Opening a disk backend therefore takes an
// exclusive advisory lock on a ".lock" sibling and holds it until
// Close. The lock is an OS-level file lock, not a pid file: the kernel
// releases it when the holder dies, so a SIGKILLed server never leaves
// a stale lock behind and cold-start adoption keeps working.

// ErrLocked marks a disk backend already opened by another process (or
// another store instance in this one). Classify with errors.Is.
var ErrLocked = errors.New("store: locked by another opener")

// LockerFS is an optional FS capability: TryLock takes an exclusive,
// non-blocking advisory lock on path, released by closing the returned
// handle or by process death. OS implements it (flock(2) on unix); FS
// implementations without it — the torn-write fault injector — simply
// run unguarded.
type LockerFS interface {
	TryLock(path string) (io.Closer, error)
}

// tryLock acquires the single-writer lock for a backend rooted at path
// when fsys supports locking. A nil closer with nil error means the FS
// has no lock capability and the backend runs unguarded.
func tryLock(fsys FS, path string) (io.Closer, error) {
	lk, ok := fsys.(LockerFS)
	if !ok {
		return nil, nil
	}
	c, err := lk.TryLock(path + ".lock")
	if err != nil {
		if errors.Is(err, ErrLocked) {
			return nil, fmt.Errorf("store: %s is held by another process (single-writer guard): %w", path, err)
		}
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	return c, nil
}

// closeLock releases a lock handle from tryLock (nil-safe).
func closeLock(c io.Closer) {
	if c != nil {
		c.Close()
	}
}
