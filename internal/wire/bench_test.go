package wire

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// insertBatch is one insert update in the DirBatch frame that carries it.
var insertBatch = oneUpdate(DirUpdate{Owner: 3, Key: "GET /cgi-bin/query?zoom=3&layer=roads", Size: 4096,
	ExecTime: 1500 * time.Millisecond, Expires: time.Unix(12345, 0)})

func BenchmarkMarshalDirBatch1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(insertBatch)
	}
}

func BenchmarkUnmarshalDirBatch1(b *testing.B) {
	payload := Marshal(insertBatch)[4:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMessageDirBatch1 measures the wire write path the broadcast
// hot loop uses: with the pooled encoder it should be alloc-free.
func BenchmarkWriteMessageDirBatch1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, insertBatch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMessageFetchReply4K is the same for the body-carrying reply.
func BenchmarkWriteMessageFetchReply4K(b *testing.B) {
	body := make([]byte, 4096)
	m := &FetchReply{Seq: 9, OK: true, ContentType: "text/html", Body: body}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadMessageFetchReply4K measures the framed read path in
// isolation: with the pooled payload buffer only the message struct, its
// strings, and the body copy are allocated.
func BenchmarkReadMessageFetchReply4K(b *testing.B) {
	body := make([]byte, 4096)
	frame := Marshal(&FetchReply{Seq: 9, OK: true, ContentType: "text/html", Body: body})
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := ReadMessage(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripFetchReply4K(b *testing.B) {
	body := make([]byte, 4096)
	m := &FetchReply{Seq: 9, OK: true, ContentType: "text/html", Body: body}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		frame := Marshal(m)
		if _, err := ReadMessage(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}
