//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/payload"
)

// lateReply is the age at which a reply counts as a failed operation.
const lateReply = time.Second

// ioTimeout bounds one read or write on a load-generator connection.
const ioTimeout = 5 * time.Second

// client is a hand-rolled HTTP/1.1 client on one keep-alive connection (a
// blocking socket, see rawConn). It imports nothing from repro/internal: a
// faster httpmsg must not speed up the instrument. Steady state allocates
// nothing.
type client struct {
	conn    *rawConn
	br      *bufio.Reader
	body    []byte // reply body, reused
	req     []byte // request bytes, reused
	scratch []byte // expected-body space for catalogs that compute it
	spans   *spanLog
	stalls  *stallWatch
}

func dial(addr string) (*client, error) {
	conn, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	if err := conn.setTimeout(ioTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

type reply struct {
	status int
	class  int
	size   int
	sum    uint64
}

var (
	hdrLength = []byte("content-length:")
	hdrCache  = []byte("x-swala-cache:")
)

// hasPrefixFold reports whether line starts with the lower-case prefix,
// ignoring ASCII case.
func hasPrefixFold(line, prefix []byte) bool {
	if len(line) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != p {
			return false
		}
	}
	return true
}

func classOf(v []byte) int {
	switch string(bytes.TrimSpace(v)) {
	case "local":
		return classLocal
	case "remote":
		return classRemote
	}
	return classOther
}

// roundTrip sends req and reads one response. reqID labels client-side
// spans when tracing is on.
func (c *client) roundTrip(req []byte, reqID int64) (reply, error) {
	var r reply
	var t0, t1, t2 time.Time
	if c.spans != nil {
		t0 = time.Now()
	}
	if _, err := c.conn.Write(req); err != nil {
		return r, err
	}
	if c.spans != nil {
		t1 = time.Now()
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return r, err
	}
	if c.spans != nil {
		t2 = time.Now()
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || line[8] != ' ' {
		return r, fmt.Errorf("bad status line %q", line)
	}
	r.status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	r.size = -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return r, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasPrefixFold(line, hdrLength):
			n := 0
			for _, d := range bytes.TrimSpace(line[len(hdrLength):]) {
				if d < '0' || d > '9' {
					return r, fmt.Errorf("bad Content-Length in %q", line)
				}
				n = n*10 + int(d-'0')
			}
			r.size = n
		case hasPrefixFold(line, hdrCache):
			r.class = classOf(line[len(hdrCache):])
		}
	}
	if r.size < 0 {
		return r, errors.New("response without Content-Length")
	}
	if cap(c.body) < r.size {
		c.body = make([]byte, r.size)
	}
	if _, err := io.ReadFull(c.br, c.body[:r.size]); err != nil {
		return r, err
	}
	r.sum = payload.Sum(c.body[:r.size])
	if c.spans != nil {
		t3 := time.Now()
		root := c.spans.add("client.request", 0, reqID, t0, t3)
		c.spans.add("client.write", root, reqID, t0, t1)
		c.spans.add("client.first_byte", root, reqID, t1, t2)
		c.spans.add("client.body", root, reqID, t2, t3)
	}
	return r, nil
}

// stream is the seeded request stream of one run; both connections and all
// phases consume it through one cursor, so request i is the same request on
// every run with the same seed.
type stream struct {
	ids    []uint32
	cursor atomic.Int64
}

// errExhausted means a phase outran the stream generated up front.
var errExhausted = errors.New("request stream exhausted: the stream is sized for 50k req/s")

func (s *stream) next() (int64, uint32, error) {
	i := s.cursor.Add(1) - 1
	if i >= int64(len(s.ids)) {
		return i, 0, errExhausted
	}
	return i, s.ids[i], nil
}

// samples are the per-request observations of one phase.
type samples struct {
	lat       []int64 // ns; ok replies only
	due       []int64 // parallel to lat: ns from the phase's start to the instant lat runs from
	class     []uint8 // parallel to lat
	lag       []int64 // ns the generator sent after it could have (open loop)
	attempted int
	failed    int
	excused   int // late replies that overlapped a stall of the load generator
	firstErr  error
}

func (s *samples) merge(o *samples) {
	s.lat = append(s.lat, o.lat...)
	s.due = append(s.due, o.due...)
	s.class = append(s.class, o.class...)
	s.lag = append(s.lag, o.lag...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.excused += o.excused
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *samples) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	slices.Sort(out)
	return out
}

// check verifies one reply against the catalog and the class it must carry
// (-1 = local, remote or none).
func check(cat catalog, wantClass int, id uint32, r reply, lat time.Duration, scratch *[]byte) error {
	size, sum := cat.expect(id, scratch)
	switch {
	case r.status != 200:
		return fmt.Errorf("id %d: status %d", id, r.status)
	case r.size != size:
		return fmt.Errorf("id %d: body length %d, want %d", id, r.size, size)
	case r.sum != sum:
		return fmt.Errorf("id %d: body checksum %x, want %x", id, r.sum, sum)
	case wantClass >= 0 && r.class != wantClass:
		return fmt.Errorf("id %d: cache class %s, want %s", id, classNames[r.class], classNames[wantClass])
	case r.class == classOther:
		return fmt.Errorf("id %d: unexpected cache class", id)
	case lat > lateReply:
		return fmt.Errorf("id %d: reply after %v", id, lat)
	}
	return nil
}

// one performs request id on c, verifies it, and records it; due is the
// instant latency is measured from, start the phase's.
func one(w *workload, c *client, s *samples, seq int64, id uint32, start, due time.Time) error {
	c.req = w.catalog.appendRequest(c.req[:0], id)
	s.attempted++
	r, err := c.roundTrip(c.req, seq)
	if err != nil {
		s.fail(err)
		return err // the connection is unusable
	}
	lat := time.Since(due)
	if lat > lateReply && c.stalls.overlaps(due, due.Add(lat)) {
		// The load generator itself did not run for part of this request
		// (a paused VM, a starved CPU): that is not the server's reply time.
		s.attempted--
		s.excused++
		return nil
	}
	if err := check(w.catalog, w.wantClass, id, r, lat, &c.scratch); err != nil {
		s.fail(err)
		return nil
	}
	s.lat = append(s.lat, int64(lat))
	s.due = append(s.due, int64(due.Sub(start)))
	s.class = append(s.class, uint8(r.class))
	return nil
}

// phase is what one target saw of a closed- or open-loop phase.
type phase struct {
	samples
	wall      time.Duration // the time the phase spent on this target
	scheduled int           // open loop: arrivals in the schedule
}

func (p *phase) completed() int { return len(p.lat) }
func (p *phase) rps() float64   { return float64(p.completed()) / p.wall.Seconds() }

// target is one server a phase sends to: the nodes under test, or the
// reference server, each with its own seeded stream.
type target struct {
	w  *workload
	tb *testbed
	st *stream
}

// slicing cuts a phase into n slices of length each; slice k goes to target
// k mod (number of targets), so with the nodes and the reference server as
// targets the two alternate and every pair of slices sees the same host.
type slicing struct {
	each time.Duration
	n    int
}

func (sl slicing) total() time.Duration { return sl.each * time.Duration(sl.n) }

// connect opens the two connections of a phase to every target. Phases do
// not share connections: the server closes a keep-alive connection idle for
// 2 s (a slice is far shorter).
func connect(ts []target, spans *spanLog) ([][2]*client, error) {
	cs := make([][2]*client, len(ts))
	for t, tg := range ts {
		for i := range cs[t] {
			c, err := dial(tg.tb.nodes[tg.w.target[i]].http)
			if err != nil {
				closeAll(cs)
				return nil, err
			}
			c.spans, c.stalls = spans, tg.tb.stalls
			cs[t][i] = c
		}
	}
	return cs, nil
}

func closeAll(cs [][2]*client) {
	for _, pair := range cs {
		for _, c := range pair {
			if c != nil {
				c.close()
			}
		}
	}
}

// collect merges the two connections' samples of every target into phases.
func collect(parts [][2]samples, ts []target, sl slicing) []*phase {
	out := make([]*phase, len(ts))
	for t := range ts {
		own := (sl.n + len(ts) - 1 - t) / len(ts) // slices that went to t
		p := &phase{wall: sl.each * time.Duration(own)}
		p.merge(&parts[t][0])
		p.merge(&parts[t][1])
		out[t] = p
	}
	return out
}

// closedLoop runs both connections back to back from start until the last
// slice ends: a caller that waits for its reply before it sends the next
// request. A request belongs to the slice it was sent in.
func closedLoop(ts []target, cs [][2]*client, start time.Time, sl slicing) []*phase {
	parts := make([][2]samples, len(ts))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		for t := range ts {
			parts[t][i].lat = make([]int64, 0, 1<<16)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sleepUntil(start)
			for {
				now := time.Now()
				k := int(now.Sub(start) / sl.each)
				if k >= sl.n {
					return
				}
				t := k % len(ts)
				s := &parts[t][i]
				seq, id, err := ts[t].st.next()
				if err != nil {
					s.fail(err)
					return
				}
				if one(ts[t].w, cs[t][i], s, seq, id, start, now) != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return collect(parts, ts, sl)
}

// prSetTimerslack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// openLoop sends sched's arrivals on schedule whatever the replies do:
// arrival i goes to connection i mod 2 of the target whose slice it is due
// in, and its latency runs from the instant it was due, so a stall is charged
// to every request it delays.
func openLoop(ts []target, cs [][2]*client, sched []time.Duration, sl slicing) ([]*phase, error) {
	// Fix the stream positions up front: arrival i is the same request no
	// matter which connection gets there first.
	of := make([]uint8, len(sched))
	pos := make([]int64, len(sched))
	count := make([]int64, len(ts))
	for i, at := range sched {
		t := int(at/sl.each) % len(ts)
		of[i], pos[i] = uint8(t), count[t]
		count[t]++
	}
	for t, tg := range ts {
		base := tg.st.cursor.Add(count[t]) - count[t]
		if base+count[t] > int64(len(tg.st.ids)) {
			return nil, errExhausted
		}
		for i := range sched {
			if int(of[i]) == t {
				pos[i] += base
			}
		}
	}
	parts := make([][2]samples, len(ts))
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < 2; i++ {
		for t := range ts {
			parts[t][i].lat = make([]int64, 0, count[t]/2+1)
			parts[t][i].lag = make([]int64, 0, count[t]/2+1)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// nanosleep and the socket block the thread, so the goroutine
			// keeps one to itself, and the thread's timer slack (50 µs by
			// default) is taken down to 1 µs so the wake-up is not late.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
			var free time.Time
			for i := k; i < len(sched); i += 2 {
				t := of[i]
				s := &parts[t][k]
				due := start.Add(sched[i])
				if free.Before(due) {
					sleepUntil(due)
					// Only an idle connection measures the generator: a
					// busy one is late because of the server.
					s.lag = append(s.lag, int64(time.Since(due)))
				}
				if one(ts[t].w, cs[t][k], s, pos[i], ts[t].st.ids[pos[i]], start, due) != nil {
					return
				}
				free = time.Now()
			}
		}(i)
	}
	wg.Wait()
	out := collect(parts, ts, sl)
	for t, p := range out {
		p.scheduled = int(count[t])
	}
	return out, nil
}

// stallGap is how long the load generator must go without running for the
// gap to be recorded as a stall.
const stallGap = 250 * time.Millisecond

// stallWatch notices when the load generator itself did not get to run: its
// thread sleeps 5 ms at a time and records every gap over stallGap. A reply
// later than lateReply whose request overlaps such a gap is left out of the
// run instead of counted as failed — the sandbox VM is paused for a second
// now and then, and that is not the server's doing. A server that stalls
// while the load generator keeps running is still a failure.
type stallWatch struct {
	beat   atomic.Int64 // UnixNano of the watch thread's last wake-up
	mu     sync.Mutex
	stalls [][2]time.Time
	stop   chan struct{}
	done   chan struct{}
}

func startStallWatch() *stallWatch {
	s := &stallWatch{stop: make(chan struct{}), done: make(chan struct{})}
	s.beat.Store(time.Now().UnixNano())
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for last := time.Now(); ; {
			select {
			case <-s.stop:
				return
			default:
			}
			sleepUntil(last.Add(5 * time.Millisecond))
			now := time.Now()
			if now.Sub(last) > stallGap {
				s.mu.Lock()
				s.stalls = append(s.stalls, [2]time.Time{last, now})
				s.mu.Unlock()
			}
			last = now
			s.beat.Store(now.UnixNano())
		}
	}()
	return s
}

// overlaps reports whether a stall overlaps [from, to]: a recorded one, or
// one the watch thread has not woken from yet (after a pause every thread
// wakes at once, and the caller may be first).
func (s *stallWatch) overlaps(from, to time.Time) bool {
	if beat := time.Unix(0, s.beat.Load()); time.Since(beat) > stallGap && beat.Before(to) {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.stalls {
		if st[0].Before(to) && from.Before(st[1]) {
			return true
		}
	}
	return false
}

// close stops the watch and returns how many stalls it saw.
func (s *stallWatch) close() int {
	close(s.stop)
	<-s.done
	return len(s.stalls)
}
