package store

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Lock takeover of a dead replica's store. The single-writer flock is
// advisory and kernel-held: when the owning process dies — however
// uncleanly — the kernel drops it. A survivor adopting the dead
// replica's sessions therefore only has to retry the open until the
// release lands; there is no lock file to clean up and no epoch fencing
// to forge. The retry is jittered so several would-be adopters racing
// for the same store do not collide in lockstep.

// OpenForTakeover opens the disk backend of the given kind (only
// "journal" has one) at path, retrying ErrLocked with jittered backoff
// until wait expires — the recovery path a survivor uses to adopt a
// dead replica's flock'd store. Any error other than ErrLocked is
// returned immediately; on a journal, replay truncates whatever torn
// tail the dying writer left. wait ≤ 0 tries exactly once.
func OpenForTakeover(kind, path string, retain int, wait time.Duration) (Store, error) {
	open := func() (Store, error) {
		if kind != "journal" {
			return nil, fmt.Errorf("store: takeover of %q backend not possible (no durable path)", kind)
		}
		return OpenJournal(path, JournalOptions{Retain: retain})
	}
	deadline := time.Now().Add(wait)
	backoff := 5 * time.Millisecond
	for {
		st, err := open()
		if err == nil || !errors.Is(err, ErrLocked) {
			return st, err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("store: takeover of %s: previous holder still live after %v: %w", path, wait, err)
		}
		d := time.Duration(1 + rand.Int63n(int64(backoff)))
		if remaining := time.Until(deadline); d > remaining {
			d = remaining
		}
		time.Sleep(d)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}
