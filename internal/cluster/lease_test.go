package cluster

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/wire"
)

// TestMain runs the package with released buffers poisoned.
func TestMain(m *testing.M) {
	lease.PoisonOnRelease(true)
	os.Exit(m.Run())
}

func leaseTestBody(id int) []byte {
	n := 1500 + id*211
	if id%8 == 0 {
		n = 70_000 + id
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*29 + id)
	}
	return b
}

// leasingHandler serves key "k<id>" from a leased buffer, as core does from
// the log store, and counts how often its leases are given back. A key in
// slow is answered only once its channel closes.
type leasingHandler struct {
	NopHandler
	served, released atomic.Int64
	slow             map[string]chan struct{}
}

func (h *leasingHandler) HandleFetch(key string, _ uint8, r *wire.FetchReply) func() {
	if gate := h.slow[key]; gate != nil {
		<-gate
	}
	id, err := strconv.Atoi(key[1:])
	if err != nil {
		return nil // OK stays false: a false hit
	}
	body := leaseTestBody(id)
	ls := new(lease.Buf)
	ls.Lease(len(body))
	copy(ls.B, body)
	r.OK, r.ContentType, r.Body = true, "application/octet-stream", ls.B
	h.served.Add(1)
	return func() {
		ls.Release()
		h.released.Add(1)
	}
}

// startLeasePair starts a requester and an owner over loopback TCP, the
// requester's link to the owner up.
func startLeasePair(t *testing.T, h Handler, fetchTimeout time.Duration) (requester, owner *Node) {
	t.Helper()
	owner = NewNode(Config{NodeID: 2, FetchTimeout: fetchTimeout}, h)
	if err := owner.Start("127.0.0.1:0"); err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	t.Cleanup(func() { owner.Close() })
	requester = NewNode(Config{NodeID: 1, FetchTimeout: fetchTimeout}, nil)
	if err := requester.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { requester.Close() })
	if err := requester.ConnectPeer(2, owner.Addr()); err != nil {
		t.Fatal(err)
	}
	return requester, owner
}

// TestLeaseFetchConcurrent: 8 goroutines × 64 distinct keys over one real TCP
// link, every byte verified, replies released or dropped; the owner's leases
// all come back, one release per serve.
func TestLeaseFetchConcurrent(t *testing.T) {
	h := &leasingHandler{}
	requester, _ := startLeasePair(t, h, 5*time.Second)
	const keys = 64
	want := make([][]byte, keys)
	for id := range want {
		want[id] = leaseTestBody(id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*keys; i++ {
				id := (i*3 + g*11) % keys
				if i%16 == 15 {
					// A false hit in between: OK=false, nothing to verify.
					reply, err := requester.FetchRing(context.Background(), 2, "gone", 0)
					if err != nil || reply.OK {
						t.Errorf("false hit: %+v, %v", reply, err)
						return
					}
					reply.Release()
					continue
				}
				reply, err := requester.FetchRing(context.Background(), 2, "k"+strconv.Itoa(id), 0)
				if err != nil {
					t.Errorf("key %d: %v", id, err)
					return
				}
				if !reply.OK || reply.ContentType != "application/octet-stream" || !bytes.Equal(reply.Body, want[id]) {
					t.Errorf("key %d: wrong reply (%d bytes, want %d)", id, len(reply.Body), len(want[id]))
					return
				}
				if i%5 != 0 {
					reply.Release()
					reply.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "every owner-side lease released", func() bool { return h.released.Load() == h.served.Load() })
	if h.served.Load() == 0 {
		t.Fatal("nothing was served")
	}
}

// TestLeaseFetchTimeoutThenLateReply: a fetch times out, its reply arrives
// late and must be released by the link reader — never handed to a later
// fetch through a reused waiter. FetchTimeout accounting is unchanged.
func TestLeaseFetchTimeoutThenLateReply(t *testing.T) {
	gate := make(chan struct{})
	h := &leasingHandler{slow: map[string]chan struct{}{"k1": gate}}
	requester, _ := startLeasePair(t, h, 80*time.Millisecond)

	_, err := requester.FetchRing(context.Background(), 2, "k1", 0)
	if !errors.Is(err, ErrFetchTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrFetchTimeout wrapping DeadlineExceeded", err)
	}
	close(gate) // the late reply is on its way
	for round := 0; round < 50; round++ {
		for _, id := range []int{2, 3, 8} {
			reply, err := requester.FetchRing(context.Background(), 2, "k"+strconv.Itoa(id), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reply.Body, leaseTestBody(id)) {
				t.Fatalf("round %d key %d: another fetch's reply was delivered", round, id)
			}
			reply.Release()
		}
	}
	waitFor(t, "owner-side leases released, the late one included", func() bool { return h.released.Load() == h.served.Load() })
}

// TestLeaseFetchCancelledThenLateReply: the same for a caller that gives up
// (a hedge loser, a client gone): a cancellation error, and the abandoned
// reply touches nobody else's fetch.
func TestLeaseFetchCancelledThenLateReply(t *testing.T) {
	gate := make(chan struct{})
	h := &leasingHandler{slow: map[string]chan struct{}{"k1": gate}}
	requester, _ := startLeasePair(t, h, 5*time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := requester.FetchRing(ctx, 2, "k1", 0)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) || errors.Is(err, ErrFetchTimeout) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	close(gate)
	for round := 0; round < 50; round++ {
		reply, err := requester.FetchRing(context.Background(), 2, "k2", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply.Body, leaseTestBody(2)) {
			t.Fatalf("round %d: another fetch's reply was delivered", round)
		}
		reply.Release()
	}
}

// TestLeaseLinkTornDownMidFetch: the requester goes away while the owner is
// still producing the body; the owner's write fails and its lease is released
// all the same, exactly once.
func TestLeaseLinkTornDownMidFetch(t *testing.T) {
	gate := make(chan struct{})
	h := &leasingHandler{slow: map[string]chan struct{}{"k8": gate}}
	requester, _ := startLeasePair(t, h, 5*time.Second)

	errCh := make(chan error, 1)
	go func() {
		_, err := requester.FetchRing(context.Background(), 2, "k8", 0)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	requester.Close()
	if err := <-errCh; !errors.Is(err, ErrNoPeer) {
		t.Fatalf("err = %v, want ErrNoPeer", err)
	}
	close(gate)
	waitFor(t, "the owner to serve into the dead link", func() bool { return h.served.Load() == 1 })
	waitFor(t, "its lease to be released", func() bool { return h.released.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	if got := h.released.Load(); got != 1 {
		t.Fatalf("lease released %d times", got)
	}
}
