package netx

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// bufferSize is each direction's in-memory buffer, sized like a typical
// kernel socket buffer so writers do not rendezvous with reader scheduling
// (net.Pipe's synchronous hand-off makes every byte transfer wait for the
// peer goroutine to run, which grossly distorts latency measurements under
// load).
const bufferSize = 64 << 10

// errTimeout implements net.Error for deadline expiries.
type errTimeout struct{}

func (errTimeout) Error() string   { return "netx: i/o timeout" }
func (errTimeout) Timeout() bool   { return true }
func (errTimeout) Temporary() bool { return true }

// ErrConnClosed is returned for operations on a closed buffered connection.
var ErrConnClosed = errors.New("netx: connection closed")

// newBufferedPair returns two connected net.Conns with buffered directions.
func newBufferedPair(clientAddr, serverAddr net.Addr) (client, server net.Conn) {
	ab := newRing() // client -> server
	ba := newRing() // server -> client
	client = &bufConn{rd: ba, wr: ab, local: clientAddr, remote: serverAddr}
	server = &bufConn{rd: ab, wr: ba, local: serverAddr, remote: clientAddr}
	return client, server
}

// ring is one direction's byte stream.
type ring struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	start  int // read position
	n      int // bytes buffered
	closed bool

	readDeadline  time.Time
	writeDeadline time.Time
	readTimer     *time.Timer
	writeTimer    *time.Timer
}

func newRing() *ring {
	r := &ring{buf: make([]byte, bufferSize)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	if r.readTimer != nil {
		r.readTimer.Stop()
	}
	if r.writeTimer != nil {
		r.writeTimer.Stop()
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// armDeadline schedules a broadcast at deadline so waiters re-check their
// deadline condition. Called with r.mu held; *slot holds the single timer
// for that deadline kind.
func (r *ring) armDeadline(slot **time.Timer, deadline time.Time) {
	if *slot != nil {
		(*slot).Stop()
		*slot = nil
	}
	if deadline.IsZero() {
		return
	}
	d := time.Until(deadline)
	if d < 0 {
		d = 0
	}
	*slot = time.AfterFunc(d, r.cond.Broadcast)
}

func deadlinePassed(dl time.Time) bool {
	return !dl.IsZero() && !time.Now().Before(dl)
}

func (r *ring) read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 {
		if r.closed {
			return 0, io.EOF
		}
		if deadlinePassed(r.readDeadline) {
			return 0, errTimeout{}
		}
		r.cond.Wait()
	}
	n := copy(p, r.contiguous())
	r.start = (r.start + n) % len(r.buf)
	r.n -= n
	r.cond.Broadcast() // wake writers
	return n, nil
}

// contiguous returns the readable prefix without wrapping.
func (r *ring) contiguous() []byte {
	end := r.start + r.n
	if end <= len(r.buf) {
		return r.buf[r.start:end]
	}
	return r.buf[r.start:]
}

func (r *ring) write(p []byte) (int, error) {
	total := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(p) > 0 {
		for r.n == len(r.buf) && !r.closed && !deadlinePassed(r.writeDeadline) {
			r.cond.Wait()
		}
		if r.closed {
			return total, ErrConnClosed
		}
		if deadlinePassed(r.writeDeadline) {
			return total, errTimeout{}
		}
		// Copy into the free region.
		wpos := (r.start + r.n) % len(r.buf)
		free := len(r.buf) - r.n
		chunk := len(p)
		if chunk > free {
			chunk = free
		}
		if wpos+chunk > len(r.buf) {
			first := len(r.buf) - wpos
			copy(r.buf[wpos:], p[:first])
			copy(r.buf[0:], p[first:chunk])
		} else {
			copy(r.buf[wpos:], p[:chunk])
		}
		r.n += chunk
		total += chunk
		p = p[chunk:]
		r.cond.Broadcast() // wake readers
	}
	return total, nil
}

// bufConn is one endpoint of a buffered in-memory connection.
type bufConn struct {
	rd, wr        *ring
	local, remote net.Addr

	closeOnce sync.Once
}

// Read implements net.Conn.
func (c *bufConn) Read(p []byte) (int, error) { return c.rd.read(p) }

// Write implements net.Conn.
func (c *bufConn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close implements net.Conn. Both directions shut down: pending reads see
// EOF once drained; the peer's writes fail.
func (c *bufConn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.close()
		c.rd.close()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *bufConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *bufConn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *bufConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	c.SetWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *bufConn) SetReadDeadline(t time.Time) error {
	c.rd.mu.Lock()
	c.rd.readDeadline = t
	c.rd.armDeadline(&c.rd.readTimer, t)
	c.rd.mu.Unlock()
	c.rd.cond.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *bufConn) SetWriteDeadline(t time.Time) error {
	c.wr.mu.Lock()
	c.wr.writeDeadline = t
	c.wr.armDeadline(&c.wr.writeTimer, t)
	c.wr.mu.Unlock()
	c.wr.cond.Broadcast()
	return nil
}
