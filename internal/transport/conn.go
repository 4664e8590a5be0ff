package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// ErrIdleTimeout marks a session connection that stalled past the
// configured idle timeout: the peer stopped sending (or draining) bytes
// mid-protocol, so the server fails the session and frees its slot
// instead of letting one wedged UE hold a MaxUE slot forever.
var ErrIdleTimeout = errors.New("transport: session idle timeout")

// deadliner is the deadline subset of net.Conn that idleConn arms.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// idleConn enforces an idle timeout on a connection-like stream by
// arming a fresh read (write) deadline immediately before every Read
// (Write). The deadline therefore only binds while an operation is
// actually blocked on the peer — a session waiting on the compute
// dispatcher with no I/O in flight never times out. Timeouts surface as ErrIdleTimeout.
type idleConn struct {
	inner   io.ReadWriteCloser
	dl      deadliner
	timeout time.Duration
}

// newIdleConn wraps inner with the idle timeout. Streams that cannot
// carry deadlines (or a non-positive timeout) pass through unchanged.
func newIdleConn(inner io.ReadWriteCloser, timeout time.Duration) io.ReadWriteCloser {
	dl, ok := inner.(deadliner)
	if !ok || timeout <= 0 {
		return inner
	}
	return &idleConn{inner: inner, dl: dl, timeout: timeout}
}

func (c *idleConn) Read(p []byte) (int, error) {
	_ = c.dl.SetReadDeadline(time.Now().Add(c.timeout))
	n, err := c.inner.Read(p)
	return n, c.wrapTimeout(err)
}

func (c *idleConn) Write(p []byte) (int, error) {
	_ = c.dl.SetWriteDeadline(time.Now().Add(c.timeout))
	n, err := c.inner.Write(p)
	return n, c.wrapTimeout(err)
}

func (c *idleConn) Close() error { return c.inner.Close() }

func (c *idleConn) wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w after %v: %v", ErrIdleTimeout, c.timeout, err)
	}
	return err
}

// CountingConn wraps a connection-like stream and tallies the bytes and
// ops crossing it in each direction — the measurement hook for
// comparing the real protocol's overhead against the paper's idealised
// payload formula. It sits below the codec layer, so with a lossy
// session codec it reports the true compressed wire bytes (framing
// included), not the logical tensor sizes. The counters are lock-free
// atomics: they are bumped on every Read/Write of the serving hot path
// and polled by concurrent snapshot reporting, so a mutex here would be
// taken per message across every live session.
type CountingConn struct {
	inner io.ReadWriter

	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	readsOps  atomic.Int64
	writesOps atomic.Int64
}

// NewCountingConn wraps inner.
func NewCountingConn(inner io.ReadWriter) *CountingConn {
	return &CountingConn{inner: inner}
}

// Read implements io.Reader.
func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.bytesIn.Add(int64(n))
	c.readsOps.Add(1)
	return n, err
}

// Write implements io.Writer.
func (c *CountingConn) Write(p []byte) (int, error) {
	n, err := c.inner.Write(p)
	c.bytesOut.Add(int64(n))
	c.writesOps.Add(1)
	return n, err
}

// ConnStats is a snapshot of a CountingConn's counters.
type ConnStats struct {
	BytesIn, BytesOut int64
	ReadOps, WriteOps int64
}

// Stats returns the current counters.
func (c *CountingConn) Stats() ConnStats {
	return ConnStats{
		BytesIn: c.bytesIn.Load(), BytesOut: c.bytesOut.Load(),
		ReadOps: c.readsOps.Load(), WriteOps: c.writesOps.Load(),
	}
}
