package wire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/stats"
)

// FuzzUnmarshal asserts the wire decoder never panics on arbitrary payloads
// and that anything it accepts re-encodes to an equivalent message.
func FuzzUnmarshal(f *testing.F) {
	// Seed with every valid message type plus mutations.
	msgs := []Message{
		&Hello{NodeID: 1, NodeName: "n", Addr: "a:1"},
		oneUpdate(DirUpdate{Owner: 2, Key: "GET /q?a=1", Size: 100, ExecTime: time.Second, Expires: time.Unix(5, 0)}),
		oneUpdate(DirUpdate{Delete: true, Owner: 3, Key: "GET /x"}),
		&Fetch{Seq: 4, Key: "GET /y"},
		&FetchReply{Seq: 4, OK: true, ContentType: "text/html", Body: []byte("body")},
		&Ping{Seq: 9},
		&Pong{Seq: 9},
		&Stats{Seq: 1},
		&StatsReply{Seq: 1, Samples: []stats.Sample{{Name: "swala_misses_total", Value: 2}}},
		&StatsReply{Seq: 2, Samples: []stats.Sample{{Name: "swala_store_info", Labels: []stats.Label{{Name: "last_error", Value: "enospc"}}, Value: 1}}},
		&Invalidate{Origin: 7, Pattern: "GET /cgi*"},
		&DirBatch{Owner: 1, Version: 3, Updates: []DirUpdate{
			{Owner: 1, Key: "GET /a", Size: 9, ExecTime: time.Second},
			{Delete: true, Owner: 1, Key: "GET /b"},
		}},
		&DirSyncReq{Version: 17},
		&DirSync{Owner: 2, Version: 21, Full: true, Updates: []DirUpdate{
			{Owner: 2, Key: "GET /c", Size: 4, Expires: time.Unix(3, 0)},
		}},
	}
	for _, m := range msgs {
		f.Add(Marshal(m)[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 1, 2})

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Unmarshal(payload)
		if err != nil {
			return
		}
		// Accepted messages must round-trip through the codec.
		frame := Marshal(m)
		again, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if again.Type() != m.Type() {
			t.Fatalf("type changed: %v -> %v", m.Type(), again.Type())
		}
	})
}
