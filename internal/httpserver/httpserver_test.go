package httpserver

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/netx"
)

func echoHandler(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", "text/plain")
	resp.Body = []byte("echo:" + req.Path)
	return resp
}

// startServer runs a server over the in-memory network and returns a dial
// function.
func startServer(t *testing.T, h Handler, cfg Config) (*Server, func() net.Conn) {
	t.Helper()
	mem := netx.NewMem()
	l, err := mem.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	s := New(h, cfg)
	s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, func() net.Conn {
		conn, err := mem.Dial("server")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return conn
	}
}

func doRequest(t *testing.T, conn net.Conn, method, uri string, keepAlive bool) *httpmsg.Response {
	t.Helper()
	req := httpmsg.NewRequest(method, uri)
	if !keepAlive {
		req.Header.Set("Connection", "close")
	}
	if err := httpmsg.WriteRequest(bufio.NewWriter(conn), req); err != nil {
		t.Fatal(err)
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServeSingleRequest(t *testing.T) {
	s, dial := startServer(t, HandlerFunc(echoHandler), Config{RequestThreads: 2})
	conn := dial()
	defer conn.Close()
	resp := doRequest(t, conn, "GET", "/hello", false)
	if resp.StatusCode != 200 || string(resp.Body) != "echo:/hello" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
	if resp.Header.Get("Connection") != "close" {
		t.Fatal("server must announce close for Connection: close requests")
	}
	if s.Served() != 1 {
		t.Fatalf("Served = %d, want 1", s.Served())
	}
}

func TestKeepAliveSequentialRequests(t *testing.T) {
	s, dial := startServer(t, HandlerFunc(echoHandler), Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()

	reader := bufio.NewReader(conn)
	writer := bufio.NewWriter(conn)
	for i := 0; i < 5; i++ {
		uri := fmt.Sprintf("/req%d", i)
		if err := httpmsg.WriteRequest(writer, httpmsg.NewRequest("GET", uri)); err != nil {
			t.Fatal(err)
		}
		resp, err := httpmsg.ReadResponse(reader)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(resp.Body) != "echo:"+uri {
			t.Fatalf("request %d body = %q", i, resp.Body)
		}
	}
	if s.Served() != 5 {
		t.Fatalf("Served = %d, want 5", s.Served())
	}
}

func TestMaxRequestsPerConn(t *testing.T) {
	_, dial := startServer(t, HandlerFunc(echoHandler),
		Config{RequestThreads: 1, MaxRequestsPerConn: 2})
	conn := dial()
	defer conn.Close()

	reader := bufio.NewReader(conn)
	writer := bufio.NewWriter(conn)
	httpmsg.WriteRequest(writer, httpmsg.NewRequest("GET", "/1"))
	r1, err := httpmsg.ReadResponse(reader)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Header.Get("Connection") == "close" {
		t.Fatal("first response must not close")
	}
	httpmsg.WriteRequest(writer, httpmsg.NewRequest("GET", "/2"))
	r2, err := httpmsg.ReadResponse(reader)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Header.Get("Connection") != "close" {
		t.Fatal("second response must announce close")
	}
}

func TestConcurrentClients(t *testing.T) {
	pool := 8
	s, dial := startServer(t, HandlerFunc(echoHandler), Config{RequestThreads: pool})
	var wg sync.WaitGroup
	const clients = 24
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := dial()
			defer conn.Close()
			resp := doRequest(t, conn, "GET", fmt.Sprintf("/c%d", c), false)
			if resp.StatusCode != 200 {
				t.Errorf("client %d: status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	if got := s.Served(); got != clients {
		t.Fatalf("Served = %d, want %d", got, clients)
	}
}

func TestMalformedRequestGets400(t *testing.T) {
	_, dial := startServer(t, HandlerFunc(echoHandler), Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()
	if _, err := conn.Write([]byte("THIS IS NOT HTTP\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestNilHandlerResponse(t *testing.T) {
	_, dial := startServer(t, HandlerFunc(func(context.Context, *httpmsg.Request) *httpmsg.Response { return nil }),
		Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()
	resp := doRequest(t, conn, "GET", "/x", false)
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
}

func TestCloseStopsServer(t *testing.T) {
	mem := netx.NewMem()
	l, _ := mem.Listen("s")
	s := New(HandlerFunc(echoHandler), Config{RequestThreads: 4})
	s.Serve(l)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Dial("s"); err == nil {
		t.Fatal("dial succeeded after Close")
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseInterruptsKeepAliveConn(t *testing.T) {
	mem := netx.NewMem()
	l, _ := mem.Listen("s")
	s := New(HandlerFunc(echoHandler), Config{RequestThreads: 1})
	s.Serve(l)

	conn, err := mem.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Complete one keep-alive request so the server is parked reading the
	// next one.
	writer := bufio.NewWriter(conn)
	reader := bufio.NewReader(conn)
	httpmsg.WriteRequest(writer, httpmsg.NewRequest("GET", "/a"))
	if _, err := httpmsg.ReadResponse(reader); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an idle keep-alive connection")
	}
}

func TestServeOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	s := New(HandlerFunc(echoHandler), Config{RequestThreads: 4})
	s.Serve(l)
	defer s.Close()

	if !strings.Contains(s.Addr(), ":") {
		t.Fatalf("Addr = %q", s.Addr())
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := doRequest(t, conn, "GET", "/tcp", false)
	if string(resp.Body) != "echo:/tcp" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestReadTimeoutClosesIdleConn(t *testing.T) {
	mem := netx.NewMem()
	l, _ := mem.Listen("s")
	s := New(HandlerFunc(echoHandler), Config{RequestThreads: 1, ReadTimeout: 50 * time.Millisecond})
	s.Serve(l)
	defer s.Close()

	conn, err := mem.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Complete one request, then go idle: the server must close the
	// connection after the read timeout, freeing the request thread.
	writer := bufio.NewWriter(conn)
	reader := bufio.NewReader(conn)
	httpmsg.WriteRequest(writer, httpmsg.NewRequest("GET", "/a"))
	if _, err := httpmsg.ReadResponse(reader); err != nil {
		t.Fatal(err)
	}

	// A second dial must be served even though the first connection is
	// still open but idle (single request thread).
	start := time.Now()
	conn2, err := mem.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	resp := doRequest(t, conn2, "GET", "/b", false)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("idle connection blocked the pool for %v", elapsed)
	}
}

func TestAddrBeforeServe(t *testing.T) {
	s := New(HandlerFunc(echoHandler), Config{})
	if s.Addr() != "" {
		t.Fatalf("Addr = %q before Serve, want empty", s.Addr())
	}
}

// TestDisconnectCancelsRequestContext: a client that goes away mid-request
// cancels the handler's context, so lower layers can abandon the work.
func TestDisconnectCancelsRequestContext(t *testing.T) {
	canceled := make(chan struct{})
	block := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		select {
		case <-ctx.Done():
			close(canceled)
		case <-block:
		}
		return httpmsg.NewResponse(200)
	})
	_, dial := startServer(t, handler, Config{RequestThreads: 1})

	conn := dial()
	req := httpmsg.NewRequest("GET", "/hang")
	if err := httpmsg.WriteRequest(bufio.NewWriter(conn), req); err != nil {
		t.Fatal(err)
	}
	// Give the request thread a moment to enter the handler, then vanish.
	time.Sleep(20 * time.Millisecond)
	conn.Close()

	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		close(block)
		t.Fatal("handler context not canceled after client disconnect")
	}
}

// TestKeepAliveSurvivesWatcher: the disconnect watcher must not corrupt the
// buffered reader between keep-alive requests — a second request on the same
// connection still parses and gets its response.
func TestKeepAliveSurvivesWatcher(t *testing.T) {
	_, dial := startServer(t, HandlerFunc(echoHandler), Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()
	for i := 0; i < 3; i++ {
		resp := doRequest(t, conn, "GET", fmt.Sprintf("/r%d", i), true)
		if resp.StatusCode != 200 || string(resp.Body) != fmt.Sprintf("echo:/r%d", i) {
			t.Fatalf("request %d: status=%d body=%q", i, resp.StatusCode, resp.Body)
		}
	}
}

// TestPipelinedRequestNotCanceled: a pipelined next request (data arriving
// while the current handler runs) is not a disconnect — the current request
// must complete normally and the pipelined one must be served afterwards.
func TestPipelinedRequestNotCanceled(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		entered <- struct{}{}
		if req.Path == "/first" {
			select {
			case <-release:
			case <-ctx.Done():
				resp := httpmsg.NewResponse(499)
				resp.Body = []byte("canceled")
				return resp
			}
		}
		resp := httpmsg.NewResponse(200)
		resp.Body = []byte("ok:" + req.Path)
		return resp
	})
	_, dial := startServer(t, handler, Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()

	// Write both requests back to back before reading anything.
	w := bufio.NewWriter(conn)
	if err := httpmsg.WriteRequest(w, httpmsg.NewRequest("GET", "/first")); err != nil {
		t.Fatal(err)
	}
	if err := httpmsg.WriteRequest(w, httpmsg.NewRequest("GET", "/second")); err != nil {
		t.Fatal(err)
	}
	<-entered
	// The watcher has seen the pipelined bytes (or will); the first handler
	// must NOT be canceled.
	time.Sleep(20 * time.Millisecond)
	close(release)

	r := bufio.NewReader(conn)
	first, err := httpmsg.ReadResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	if first.StatusCode != 200 || string(first.Body) != "ok:/first" {
		t.Fatalf("first = %d %q (pipelined data mistaken for disconnect?)", first.StatusCode, first.Body)
	}
	second, err := httpmsg.ReadResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	if second.StatusCode != 200 || string(second.Body) != "ok:/second" {
		t.Fatalf("second = %d %q", second.StatusCode, second.Body)
	}
}

// TestCloseCancelsInflightRequests: server shutdown cancels every in-flight
// request context.
func TestCloseCancelsInflightRequests(t *testing.T) {
	entered := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		close(entered)
		<-ctx.Done()
		return httpmsg.NewResponse(503)
	})
	s, dial := startServer(t, handler, Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()
	if err := httpmsg.WriteRequest(bufio.NewWriter(conn), httpmsg.NewRequest("GET", "/x")); err != nil {
		t.Fatal(err)
	}
	<-entered
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on an in-flight request (base context not canceled)")
	}
}

// watchedListener hands out connections that record what the server does to
// them: every read deadline, as the time left until it (zero for "no
// deadline"), and every Read.
type watchedListener struct {
	net.Listener
	conns chan *watchedConn
}

func (l watchedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wc := &watchedConn{Conn: c}
	l.conns <- wc
	return wc, nil
}

type watchedConn struct {
	net.Conn
	mu    sync.Mutex
	left  []time.Duration
	reads int
}

func (c *watchedConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	if t.IsZero() {
		c.left = append(c.left, 0)
	} else {
		c.left = append(c.left, time.Until(t))
	}
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *watchedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return c.Conn.Read(p)
}

// calls reports how many deadlines and reads the connection has seen.
func (c *watchedConn) calls() (deadlines, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.left), c.reads
}

// startWatched runs a one-thread server whose single connection is watched.
func startWatched(t *testing.T, h Handler, readTimeout time.Duration) (*Server, net.Conn, *watchedConn) {
	t.Helper()
	mem := netx.NewMem()
	inner, err := mem.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	l := watchedListener{Listener: inner, conns: make(chan *watchedConn, 1)}
	s := New(h, Config{RequestThreads: 1, ReadTimeout: readTimeout})
	s.Serve(l)
	t.Cleanup(func() { s.Close() })
	conn, err := mem.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return s, conn, <-l.conns
}

// TestUnarmedHandlerStartsNoWatcher: a handler that never asks its context
// for Done — Err, Value and Deadline do not count — leaves the connection
// alone: no read while it runs, and no read deadline but the one the
// keep-alive loop sets per request.
func TestUnarmedHandlerStartsNoWatcher(t *testing.T) {
	const requests = 100
	const readTimeout = time.Minute
	var sconn *watchedConn
	type seen struct{ deadlines, reads, readsInside int }
	var calls []seen // by each handler call, on the request thread
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		var at seen
		at.deadlines, at.reads = sconn.calls()
		if ctx.Err() != nil {
			t.Errorf("live request: Err = %v", ctx.Err())
		}
		if _, ok := ctx.Deadline(); ok || ctx.Value("k") != nil {
			t.Error("request context has a deadline or a value of its own")
		}
		_, reads := sconn.calls()
		at.readsInside = reads - at.reads
		calls = append(calls, at)
		return echoHandler(ctx, req)
	})
	s, conn, sc := startWatched(t, handler, readTimeout)
	sconn = sc
	for i := 0; i < requests; i++ {
		if resp := doRequest(t, conn, "GET", "/r", true); resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	conn.Close()
	s.Close() // the request thread has exited: calls and sconn are quiet

	end, _ := sconn.calls()
	for i, at := range calls {
		if at.readsInside != 0 {
			t.Fatalf("request %d: %d reads of the connection while the handler ran", i, at.readsInside)
		}
		next := end
		if i+1 < len(calls) {
			next = calls[i+1].deadlines
		}
		// From this handler's start to the next one's: the loop's deadline
		// for the next request, nothing from a watcher.
		if set := sconn.left[at.deadlines:next]; len(set) != 1 || set[0] < readTimeout/2 {
			t.Fatalf("request %d: read deadlines set %v, want the loop's one of %v", i, set, readTimeout)
		}
	}
}

// TestChildAttachesToRequestContext: a WithTimeout child hangs on the
// request's cancelable context itself, found through Value, so canceling that
// cancels the child before cancel returns; a child propagated to by a
// goroutine would learn of it later.
func TestChildAttachesToRequestContext(t *testing.T) {
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		child, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		if err := child.Err(); err != nil {
			t.Errorf("child of a live request: %v", err)
		}
		ctx.(*reqContext).cancel()
		if err := child.Err(); err != context.Canceled {
			t.Errorf("child right after the request context was canceled: %v, want Canceled", err)
		}
		return echoHandler(ctx, req)
	})
	_, dial := startServer(t, handler, Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()
	for i := 0; i < 3; i++ { // the watcher each one armed is stopped cleanly
		if resp := doRequest(t, conn, "GET", "/r", true); string(resp.Body) != "echo:/r" {
			t.Fatalf("request %d: %d %q", i, resp.StatusCode, resp.Body)
		}
	}
}

// disconnectAfter sends one request and hangs up after d.
func disconnectAfter(t *testing.T, conn net.Conn, d time.Duration) {
	t.Helper()
	if err := httpmsg.WriteRequest(bufio.NewWriter(conn), httpmsg.NewRequest("GET", "/hang")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(d)
	conn.Close()
}

// TestLateDoneObservesDisconnect: the watch is armed by the first Done call,
// however late — a client that left while the handler was busy is noticed
// once the handler starts waiting.
func TestLateDoneObservesDisconnect(t *testing.T) {
	canceled := make(chan struct{})
	block := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		time.Sleep(50 * time.Millisecond)
		select {
		case <-ctx.Done():
			close(canceled)
		case <-block:
		}
		return httpmsg.NewResponse(200)
	})
	_, dial := startServer(t, handler, Config{RequestThreads: 1})
	disconnectAfter(t, dial(), 10*time.Millisecond)
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		close(block)
		t.Fatal("handler context not canceled by a disconnect that preceded its first Done call")
	}
}

// TestTimeoutChildObservesDisconnect: a WithTimeout child is canceled by the
// client's disconnect — making it asked the request context for Done — and the
// watch shows on the connection as one cleared read deadline.
func TestTimeoutChildObservesDisconnect(t *testing.T) {
	canceled := make(chan error, 1)
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		child, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		select {
		case <-child.Done():
			canceled <- child.Err()
		case <-time.After(2 * time.Second):
			canceled <- nil
		}
		return httpmsg.NewResponse(200)
	})
	_, conn, sconn := startWatched(t, handler, time.Minute)
	disconnectAfter(t, conn, 20*time.Millisecond)
	if err := <-canceled; err != context.Canceled {
		t.Fatalf("child context after client disconnect: %v, want context.Canceled", err)
	}
	sconn.mu.Lock()
	defer sconn.mu.Unlock()
	if len(sconn.left) < 2 || sconn.left[1] != 0 {
		t.Fatalf("read deadlines %v: want the loop's, then the watcher's clearing of it", sconn.left)
	}
}

// TestLeftBehindGoroutineSeesCanceled: once the response is out, the request
// context is over for whoever still holds it — Done is closed and Err is
// Canceled whether or not the handler ever asked — and asking starts no watch
// on a connection that is the loop's again.
func TestLeftBehindGoroutineSeesCanceled(t *testing.T) {
	for _, askedBefore := range []bool{false, true} {
		ctxs := make(chan context.Context, 1)
		handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
			if askedBefore {
				ctx.Done()
			}
			ctxs <- ctx
			return echoHandler(ctx, req)
		})
		_, conn, sconn := startWatched(t, handler, time.Minute)
		doRequest(t, conn, "GET", "/r", true)
		// Let the loop arm its deadline and park in its read of the next request.
		deadlines, reads := sconn.calls()
		for {
			time.Sleep(5 * time.Millisecond)
			d, r := sconn.calls()
			if d == deadlines && r == reads {
				break
			}
			deadlines, reads = d, r
		}

		ctx := <-ctxs
		select {
		case <-ctx.Done():
		default:
			t.Fatalf("askedBefore=%v: Done still open after the response", askedBefore)
		}
		if err := ctx.Err(); err != context.Canceled {
			t.Fatalf("askedBefore=%v: Err after the response = %v, want Canceled", askedBefore, err)
		}
		child, cancel := context.WithCancel(ctx)
		if err := child.Err(); err != context.Canceled {
			t.Fatalf("askedBefore=%v: child made after the response: Err = %v", askedBefore, err)
		}
		cancel()
		time.Sleep(5 * time.Millisecond)
		if d, r := sconn.calls(); d != deadlines || r != reads {
			t.Fatalf("askedBefore=%v: a late Done touched the connection: %d deadlines, %d reads more", askedBefore, d-deadlines, r-reads)
		}
		// The connection still serves.
		if resp := doRequest(t, conn, "GET", "/again", true); string(resp.Body) != "echo:/again" {
			t.Fatalf("askedBefore=%v: next request: %q", askedBefore, resp.Body)
		}
	}
}

// TestErrBeforeDoneReportsShutdown: Err needs no watcher to see the server
// shut down.
func TestErrBeforeDoneReportsShutdown(t *testing.T) {
	entered := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
		close(entered)
		for ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		return httpmsg.NewResponse(503)
	})
	s, dial := startServer(t, handler, Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()
	if err := httpmsg.WriteRequest(bufio.NewWriter(conn), httpmsg.NewRequest("GET", "/x")); err != nil {
		t.Fatal(err)
	}
	<-entered
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a handler polling Err never saw the shutdown")
	}
}

// TestPipelinedAfterArmedAndUnarmed: whether or not the first request armed
// the watcher, the pipelined second one reaches its handler intact — over
// real TCP, where the watcher's peek and the deadline that stops it are the
// kernel's.
func TestPipelinedAfterArmedAndUnarmed(t *testing.T) {
	for _, armed := range []bool{true, false} {
		handler := HandlerFunc(func(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
			if armed && req.Path == "/first" {
				ctx.Done()
				time.Sleep(20 * time.Millisecond) // let the watcher buffer the next request
			}
			resp := httpmsg.NewResponse(200)
			resp.Body = append([]byte("ok:"+req.Path+":"), req.Body...)
			return resp
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("cannot listen on loopback: %v", err)
		}
		s := New(handler, Config{RequestThreads: 1})
		s.Serve(l)
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(conn)
		second := httpmsg.NewRequest("POST", "/second")
		second.Body = []byte(strings.Repeat("payload", 100))
		for _, req := range []*httpmsg.Request{httpmsg.NewRequest("GET", "/first"), second} {
			if err := httpmsg.WriteRequest(w, req); err != nil {
				t.Fatal(err)
			}
		}
		r := bufio.NewReader(conn)
		for _, want := range []string{"ok:/first:", "ok:/second:" + string(second.Body)} {
			resp, err := httpmsg.ReadResponse(r)
			if err != nil {
				t.Fatalf("armed=%v: %v", armed, err)
			}
			if resp.StatusCode != 200 || string(resp.Body) != want {
				t.Fatalf("armed=%v: got %d %q, want %q", armed, resp.StatusCode, resp.Body, want)
			}
		}
		conn.Close()
		s.Close()
	}
}

// TestNullHandlerAllocBudget is the request layer's allocation budget: one
// keep-alive round trip over loopback TCP through a handler that only builds
// its response costs the head string and the Request, the request context
// and the Response. The client allocates nothing.
func TestNullHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	body := make([]byte, 2048)
	handler := HandlerFunc(func(context.Context, *httpmsg.Request) *httpmsg.Response {
		resp := httpmsg.NewResponse(200)
		resp.Header.Set("Content-Type", "application/octet-stream")
		resp.Body = body
		return resp
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	s := New(handler, Config{RequestThreads: 1})
	s.Serve(l)
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	request := []byte("GET /null HTTP/1.1\r\nHost: bench\r\n\r\n")
	var reply []byte
	roundTrip := func() {
		if _, err := conn.Write(request); err != nil {
			t.Fatal(err)
		}
		if reply == nil { // the first reply tells how long every one is
			resp, err := httpmsg.ReadResponse(bufio.NewReaderSize(conn, 16))
			if err != nil || len(resp.Body) != len(body) {
				t.Fatalf("first reply: %v", err)
			}
			var buf bytes.Buffer
			httpmsg.WriteResponse(bufio.NewWriter(&buf), resp)
			reply = make([]byte, buf.Len())
			return
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if n := testing.AllocsPerRun(500, roundTrip); n > 4 {
		t.Errorf("null-handler round trip: %v allocations, budget 4", n)
	}
}
