// Package httpserver implements the HTTP module of the Swala design: a
// fixed pool of request threads that take turns accepting connections on the
// main port and each own a request from parsing to completion. The paper
// calls out multi-threading (rather than per-request processes) as a key
// efficiency property of the server; here the "request threads" are
// goroutines accepting from a shared listener.
//
// Every request is served under its own context.Context, canceled when the
// client disconnects mid-request, when the server shuts down and when the
// handler returns, so the layers below (cache fetches, remote peer sessions,
// CGI executions) can abandon work nobody will receive. A request pays for
// that only as far as it uses it. One that never asks for Done (a static
// file, a local cache hit) pays one allocation; shutdown still reaches it
// through Err. The first Done makes the cancelable context and starts watching
// the connection: a goroutine, a read parked in the netpoller, three deadline
// calls. What a handler may rely on: a disconnect cancels its context once it
// has asked for Done, however late it asks.
package httpserver

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpmsg"
)

// Handler produces the response for one request. Implementations must be
// safe for concurrent use; every request thread calls the same handler. The
// context is request-scoped: it is canceled when the client disconnects
// mid-request or the server shuts down, and handlers may derive deadlines
// from it.
type Handler interface {
	Serve(ctx context.Context, req *httpmsg.Request) *httpmsg.Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response

// Serve implements Handler.
func (f HandlerFunc) Serve(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
	return f(ctx, req)
}

// Config tunes a Server.
type Config struct {
	// RequestThreads is the size of the accept/handle pool (default 16,
	// mirroring the paper's thread-pool design).
	RequestThreads int
	// MaxRequestsPerConn bounds keep-alive reuse (0 = unlimited).
	MaxRequestsPerConn int
	// ReadTimeout bounds how long a request thread waits for the next
	// request on an idle persistent connection. Because a fixed thread pool
	// parks a whole thread on each idle connection, a keep-alive timeout is
	// what lets the pool outlive clients that hold connections open; 0 uses
	// DefaultReadTimeout, negative disables the timeout entirely.
	ReadTimeout time.Duration
	// ErrorLog receives connection-level errors; nil discards them.
	ErrorLog *log.Logger
}

// Server accepts connections from a listener and serves HTTP requests
// through a Handler.
type Server struct {
	handler Handler
	cfg     Config

	// baseCtx is the parent of every request context; baseCancel fires on
	// Close so in-flight handlers unwind during shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// endedCtx is what a request context that was never asked for Done
	// becomes when its handler returns: a canceled child of baseCtx.
	endedCtx context.Context

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	served atomic.Uint64 // total requests served, for tests/metrics
}

// DefaultReadTimeout is the default keep-alive idle timeout.
const DefaultReadTimeout = 2 * time.Second

// New creates a server with the given handler and config.
func New(handler Handler, cfg Config) *Server {
	if cfg.RequestThreads <= 0 {
		cfg.RequestThreads = 16
	}
	switch {
	case cfg.ReadTimeout == 0:
		cfg.ReadTimeout = DefaultReadTimeout
	case cfg.ReadTimeout < 0:
		cfg.ReadTimeout = 0
	}
	s := &Server{handler: handler, cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	var end context.CancelFunc
	s.endedCtx, end = context.WithCancel(s.baseCtx)
	end()
	return s
}

// Serve starts the request-thread pool accepting from l and returns
// immediately. Call Close to stop.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for i := 0; i < s.cfg.RequestThreads; i++ {
		s.wg.Add(1)
		go s.requestThread(l)
	}
}

// Addr returns the listener's address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Served reports the total number of requests completed.
func (s *Server) Served() uint64 { return s.served.Load() }

// requestThread is one member of the pool: it accepts a connection, handles
// it to completion (all keep-alive requests), then goes back to accepting —
// the paper's "request threads take turns listening on the main port".
func (s *Server) requestThread(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("accept: %v", err)
			continue
		}
		s.trackConn(conn, true)
		s.handleConn(conn)
		s.trackConn(conn, false)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	reader := bufio.NewReaderSize(conn, 8<<10)
	writer := bufio.NewWriterSize(conn, 8<<10)
	remoteAddr := ""
	if a := conn.RemoteAddr(); a != nil {
		remoteAddr = a.String()
	}
	requests := 0
	for {
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		req, err := httpmsg.ReadRequest(reader)
		if req != nil {
			req.RemoteAddr = remoteAddr
		}
		if err != nil {
			// EOF between requests is an orderly close; anything else on a
			// fresh request gets a 400 best-effort.
			if !isOrderlyClose(err) {
				resp := httpmsg.NewResponse(400)
				resp.Body = []byte(err.Error() + "\n")
				httpmsg.WriteResponse(writer, resp)
			}
			return
		}
		resp := s.serveRequest(conn, reader, req)
		if resp == nil {
			resp = httpmsg.NewResponse(500)
		}
		keepAlive := req.WantsKeepAlive()
		requests++
		if s.cfg.MaxRequestsPerConn > 0 && requests >= s.cfg.MaxRequestsPerConn {
			keepAlive = false
		}
		if !keepAlive {
			resp.Header.Set("Connection", "close")
		}
		s.served.Add(1)
		err = httpmsg.WriteResponse(writer, resp)
		if resp.Release != nil {
			resp.Release()
		}
		if err != nil {
			s.logf("write response: %v", err)
			return
		}
		if !keepAlive {
			return
		}
	}
}

// serveRequest runs the handler under the request's context and ends that
// context when it returns. If the handler asked for Done the watcher is
// running, and is stopped here, before the connection loop reads again.
func (s *Server) serveRequest(conn net.Conn, reader *bufio.Reader, req *httpmsg.Request) *httpmsg.Response {
	ctx := &reqContext{base: s.baseCtx, conn: conn, reader: reader}
	resp := s.handler.Serve(ctx, req)

	// Under the lock: a goroutine the handler left behind may still call
	// Done, and must not start a watcher on a reader the loop owns again.
	ctx.mu.Lock()
	if ctx.inner == nil {
		ctx.inner = s.endedCtx
	} else {
		ctx.cancel()
	}
	ctx.mu.Unlock()
	if ctx.watchDone != nil {
		// Stop the watcher: expire the read deadline so a blocked Peek
		// returns, then restore it. The watcher consumes (and discards) the
		// resulting timeout error from the buffered reader.
		conn.SetReadDeadline(time.Now())
		<-ctx.watchDone
		conn.SetReadDeadline(time.Time{})
	}
	return resp
}

// reqContext is the context a handler runs under. Until the first Done it
// stands for the server's base context, so Err reports a shutdown. The first
// Done makes inner, a cancelable child of the base context, and starts the
// disconnect watcher; Done, Err, Value and Deadline are inner's from then on,
// so a WithCancel or WithTimeout child finds inner through Value and attaches
// to it without a goroutine. When the handler returns inner is canceled (or
// becomes the server's endedCtx): Done is closed and Err is context.Canceled
// for whoever still holds the context.
type reqContext struct {
	base   context.Context
	conn   net.Conn
	reader *bufio.Reader

	mu        sync.Mutex
	inner     context.Context    // nil until the first Done
	cancel    context.CancelFunc // inner's
	watchDone chan struct{}      // closed when the watcher exits; nil if it never started
}

// current is the context c stands for at the moment.
func (c *reqContext) current() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inner != nil {
		return c.inner
	}
	return c.base
}

func (c *reqContext) Deadline() (time.Time, bool) { return c.current().Deadline() }
func (c *reqContext) Err() error                  { return c.current().Err() }
func (c *reqContext) Value(key any) any           { return c.current().Value(key) }

func (c *reqContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inner == nil {
		c.inner, c.cancel = context.WithCancel(c.base)
		c.watch()
	}
	return c.inner.Done()
}

// watch starts the watcher goroutine, which peeks the connection for the
// next byte: a clean EOF or connection reset means nobody is waiting for the
// response, so the request's work can be abandoned; actual data (a pipelined
// next request) simply stays buffered. serveRequest stops it by expiring the
// read deadline, whose timeout error the watcher swallows, leaving the
// buffered reader clean for the next keep-alive request.
func (c *reqContext) watch() {
	// Clear the keep-alive deadline so it cannot fire mid-handler and stop
	// the watcher early; the loop re-arms it for the next request.
	c.conn.SetReadDeadline(time.Time{})
	c.watchDone = make(chan struct{})
	go func() {
		defer close(c.watchDone)
		if _, err := c.reader.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return // watcher stopped by serveRequest
			}
			c.cancel() // client disconnected mid-request
		}
	}()
}

func isOrderlyClose(err error) bool {
	if err == nil {
		return false
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return true
	}
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF)
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed {
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.ErrorLog != nil {
		s.cfg.ErrorLog.Printf(format, args...)
	}
}

// Close stops accepting, cancels every in-flight request context, closes
// all live connections, and waits for the request threads to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.baseCancel()
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}
