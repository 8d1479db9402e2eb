// Package httpserver implements the HTTP module of the Swala design: a
// fixed pool of request threads that take turns accepting connections on the
// main port and each own a request from parsing to completion. The paper
// calls out multi-threading (rather than per-request processes) as a key
// efficiency property of the server; here the "request threads" are
// goroutines accepting from a shared listener.
//
// Every request is served under a per-request context.Context, canceled when
// the client disconnects mid-request or when the server shuts down, so the
// layers below (cache fetches, remote peer sessions, CGI executions) can
// abandon work nobody will receive. Watching the connection for a disconnect
// costs a goroutine, a read that parks in the netpoller and three deadline
// calls, so the watch starts only when something first asks the context for
// its Done channel — that is, when the handler is about to wait on it. A
// handler that answers without waiting (a static file, a local cache hit)
// never starts it; shutdown still reaches such a handler through Err.
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

// serveRequest runs the handler under a request-scoped context that is
// canceled if the client goes away while the handler waits on it. The watch
// is armed by the context's first Done call (see reqContext), so whether it
// runs follows from what the handler does: cluster.Fetch, cgi.Exec, a
// cpu.Node.Run that has to queue, a singleflight wait, a hedge and any
// WithTimeout/WithCancel child all ask for Done; serving a static file or a
// local hit does not. If it was armed it is stopped here, before the
// connection loop reads again.
func (s *Server) serveRequest(conn net.Conn, reader *bufio.Reader, req *httpmsg.Request) *httpmsg.Response {
	inner, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	ctx := &reqContext{Context: inner, cancel: cancel, conn: conn, reader: reader}

	resp := s.handler.Serve(ctx, req)

	// Spend the once: a goroutine the handler left behind may still call
	// Done, and must not start a watcher on a reader the loop owns again.
	ctx.once.Do(func() {})
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

// reqContext is the context a handler runs under: the per-request cancelCtx,
// with the disconnect watcher started by the first call of Done. Err, Value
// and Deadline are the inner context's own, so a WithCancel or WithTimeout
// child finds the inner cancelCtx through Value and attaches to it directly,
// without a goroutine — after its own Done call has armed the watch.
type reqContext struct {
	context.Context
	cancel context.CancelFunc
	conn   net.Conn
	reader *bufio.Reader

	once      sync.Once
	watchDone chan struct{} // closed when the watcher exits; nil if never armed
}

// Done implements context.Context.
func (c *reqContext) Done() <-chan struct{} {
	c.once.Do(c.watch)
	return c.Context.Done()
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
