package httpserver

import (
	"bufio"
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/lease"
)

// leasedHandler answers from a leased, poisoned-on-release buffer, the way
// core answers a cache hit, and counts its releases.
type leasedHandler struct {
	served, released atomic.Int64
	// entered, when set, is closed once the first request is in the handler,
	// which then waits for leave.
	entered, leave chan struct{}
	once           sync.Once
}

func leasedBody(path string) []byte {
	b := bytes.Repeat([]byte(path), 9000/len(path)+1) // spans several writer buffers
	return b[:9000]
}

func (h *leasedHandler) Serve(_ context.Context, req *httpmsg.Request) *httpmsg.Response {
	if h.entered != nil {
		h.once.Do(func() { close(h.entered) })
		<-h.leave
	}
	want := leasedBody(req.Path)
	ls := new(lease.Buf)
	ls.Lease(len(want))
	copy(ls.B, want)
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", "text/plain")
	resp.Body = ls.B
	resp.Release = func() {
		ls.Release()
		h.released.Add(1)
	}
	h.served.Add(1)
	return resp
}

// TestLeaseReleasedOnceAfterWrite: the connection loop releases a response
// exactly once, after the whole body is on the wire — every byte the clients
// read is intact although released buffers are poisoned and reused — and a
// response without a lease (Release nil) is served as before.
func TestLeaseReleasedOnceAfterWrite(t *testing.T) {
	lease.PoisonOnRelease(true)
	defer lease.PoisonOnRelease(false)
	h := &leasedHandler{}
	_, dial := startServer(t, h, Config{RequestThreads: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn := dial()
			defer conn.Close()
			rd, wr := bufio.NewReader(conn), bufio.NewWriter(conn)
			for i := 0; i < 64; i++ {
				path := "/" + string(rune('a'+g)) + string(rune('A'+i%26))
				if err := httpmsg.WriteRequest(wr, httpmsg.NewRequest("GET", path)); err != nil {
					t.Error(err)
					return
				}
				resp, err := httpmsg.ReadResponse(rd)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp.Body, leasedBody(path)) {
					t.Errorf("%s: body corrupted (released before it was written?)", path)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The last release follows the last write, which the client may outrun.
	deadline := time.Now().Add(5 * time.Second)
	for h.released.Load() < 8*64 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s, r := h.served.Load(), h.released.Load(); s != 8*64 || r != s {
		t.Fatalf("served %d, released %d; want 512 each", s, r)
	}

	_, dial = startServer(t, HandlerFunc(echoHandler), Config{RequestThreads: 1})
	conn := dial()
	defer conn.Close()
	if resp := doRequest(t, conn, "GET", "/plain", false); string(resp.Body) != "echo:/plain" {
		t.Fatalf("unleased response: %q", resp.Body)
	}
}

// TestLeaseReleasedWhenClientGone: the client leaves before the response is
// written; the write fails and the lease is released all the same, once.
func TestLeaseReleasedWhenClientGone(t *testing.T) {
	h := &leasedHandler{entered: make(chan struct{}), leave: make(chan struct{})}
	_, dial := startServer(t, h, Config{RequestThreads: 1})
	conn := dial()
	if err := httpmsg.WriteRequest(bufio.NewWriter(conn), httpmsg.NewRequest("GET", "/gone")); err != nil {
		t.Fatal(err)
	}
	<-h.entered
	conn.Close()
	close(h.leave)
	deadline := time.Now().Add(5 * time.Second)
	for h.released.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never released after the client went away")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := h.released.Load(); got != 1 {
		t.Fatalf("lease released %d times", got)
	}
}
