package wire

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"repro/internal/lease"
	"repro/internal/stats"
)

// TestMain runs the package with released frames poisoned.
func TestMain(m *testing.M) {
	lease.PoisonOnRelease(true)
	os.Exit(m.Run())
}

func leaseTestBody(id, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + id)
	}
	return b
}

// TestLeaseFetchReplyKeepsFrameUntilRelease: Body aliases the frame, is intact
// until Release and gone after it; Release is idempotent; a reply that was
// built, not read, has nothing to release; other messages own their bytes.
func TestLeaseFetchReplyKeepsFrameUntilRelease(t *testing.T) {
	body := leaseTestBody(1, 3000)
	frame := Marshal(&FetchReply{Seq: 7, OK: true, ContentType: "text/html", Body: body, Stored: true})
	m, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	r := m.(*FetchReply)
	if r.Seq != 7 || !r.OK || r.ContentType != "text/html" || !r.Stored || !bytes.Equal(r.Body, body) {
		t.Fatalf("decoded %+v", r)
	}
	// Reading more frames through the pooled reader must not touch a kept
	// one, and each reply gets its own content type, repeated or not.
	for i := 0; i < 20; i++ {
		ct := []string{"", "image/png", "image/png"}[i%3]
		other, err := ReadMessage(bytes.NewReader(Marshal(&FetchReply{Seq: 8, OK: true, ContentType: ct, Body: leaseTestBody(2, 3000)})))
		if err != nil {
			t.Fatal(err)
		}
		if got := other.(*FetchReply).ContentType; got != ct {
			t.Fatalf("ContentType = %q, want %q", got, ct)
		}
		other.(*FetchReply).Release()
		if _, err := ReadMessage(bytes.NewReader(Marshal(oneUpdate(DirUpdate{Owner: 1, Key: "GET /k"})))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(r.Body, body) || r.ContentType != "text/html" {
		t.Fatal("an unreleased reply changed under it")
	}
	kept := r.Body
	r.Release()
	r.Release()
	if r.Body != nil {
		t.Fatal("Body survives Release")
	}
	if bytes.Equal(kept, body) {
		t.Fatal("the released frame is still readable")
	}

	built := &FetchReply{Body: []byte("mine")}
	built.Release()
	if string(built.Body) != "mine" {
		t.Fatal("Release touched a reply that holds no frame")
	}
	(*FetchReply)(nil).Release()
}

// TestLeaseReadErrorDoesNotPoolHugeFrame: a large frame whose read fails must
// not park its buffer for reuse (the error path once skipped the size check).
func TestLeaseReadErrorDoesNotPoolHugeFrame(t *testing.T) {
	for _, m := range []Message{
		&FetchReply{Seq: 1, OK: true, Body: make([]byte, 2<<20)},
		&StatsReply{Samples: []stats.Sample{{Name: "swala_store_info", Labels: []stats.Label{{Name: "last_error", Value: string(make([]byte, 2<<20))}}}}},
	} {
		frame := Marshal(m)
		if _, err := ReadMessage(bytes.NewReader(frame[:len(frame)-1])); err == nil {
			t.Fatalf("%v: truncated frame read succeeded", m.Type())
		}
	}
	for i := 0; i < 64; i++ {
		m, err := ReadMessage(bytes.NewReader(Marshal(&FetchReply{Seq: 1, OK: true, Body: []byte("x")})))
		if err != nil {
			t.Fatal(err)
		}
		if r := m.(*FetchReply); cap(r.frame.B) > maxPooledBuf {
			t.Fatalf("a %d-byte frame buffer was kept for reuse", cap(r.frame.B))
		}
	}
}

// TestLeaseConcurrentReads: 8 goroutines read, verify and release (or drop)
// replies of 64 distinct bodies while released frames are poisoned and reused.
func TestLeaseConcurrentReads(t *testing.T) {
	const keys = 64
	frames, bodies := make([][]byte, keys), make([][]byte, keys)
	for id := range frames {
		bodies[id] = leaseTestBody(id, 512+id*97)
		frames[id] = Marshal(&FetchReply{Seq: uint64(id), OK: true, ContentType: "application/octet-stream", Body: bodies[id]})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var rd bytes.Reader
			for i := 0; i < 40*keys; i++ {
				id := (i*7 + g) % keys
				rd.Reset(frames[id])
				m, err := ReadMessage(&rd)
				if err != nil {
					t.Error(err)
					return
				}
				r := m.(*FetchReply)
				if r.Seq != uint64(id) || r.ContentType != "application/octet-stream" || !bytes.Equal(r.Body, bodies[id]) {
					t.Errorf("goroutine %d: reply %d decoded wrong", g, id)
					return
				}
				if i%5 != 0 {
					r.Release()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLeaseReadAllocs holds ReadMessage's allocation count for a FetchReply:
// the message and, when nobody released one before, its frame.
func TestLeaseReadAllocs(t *testing.T) {
	frame := Marshal(&FetchReply{Seq: 1, OK: true, ContentType: "application/octet-stream", Body: leaseTestBody(1, 2048)})
	var rd bytes.Reader
	read := func(release bool) func() {
		return func() {
			rd.Reset(frame)
			m, err := ReadMessage(&rd)
			if err != nil {
				t.Fatal(err)
			}
			if release {
				m.(*FetchReply).Release()
			}
		}
	}
	if got := testing.AllocsPerRun(200, read(false)); got > 2 {
		t.Errorf("unreleased read: %.1f allocs, want ≤ 2 (5 before leases)", got)
	}
	if raceEnabled {
		return // under -race sync.Pool drops a share of what is put
	}
	if got := testing.AllocsPerRun(200, read(true)); got > 1 {
		t.Errorf("released read: %.1f allocs, want ≤ 1", got)
	}
}
