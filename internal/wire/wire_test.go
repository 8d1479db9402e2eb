package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	frame := Marshal(m)
	got, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("ReadMessage(%v): %v", m.Type(), err)
	}
	return got
}

func TestRoundTripHello(t *testing.T) {
	in := &Hello{NodeID: 7, NodeName: "node-7", Addr: "127.0.0.1:9007"}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

// oneUpdate wraps u in a DirBatch, the frame every directory update rides.
func oneUpdate(u DirUpdate) *DirBatch {
	return &DirBatch{Owner: u.Owner, Version: 1, Updates: []DirUpdate{u}}
}

func TestRoundTripInsert(t *testing.T) {
	in := DirUpdate{
		Owner:    3,
		Key:      "GET /cgi-bin/query?zoom=3",
		Size:     4096,
		ExecTime: 1500 * time.Millisecond,
		Expires:  time.Unix(12345, 67890),
	}
	got := roundTrip(t, oneUpdate(in)).(*DirBatch).Updates[0]
	if got.Delete || got.Owner != in.Owner || got.Key != in.Key || got.Size != in.Size || got.ExecTime != in.ExecTime {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	if !got.Expires.Equal(in.Expires) {
		t.Fatalf("Expires = %v, want %v", got.Expires, in.Expires)
	}
}

func TestRoundTripInsertZeroExpiry(t *testing.T) {
	got := roundTrip(t, oneUpdate(DirUpdate{Owner: 1, Key: "k"})).(*DirBatch).Updates[0]
	if !got.Expires.IsZero() {
		t.Fatalf("zero expiry did not survive round trip: %v", got.Expires)
	}
}

func TestRoundTripDelete(t *testing.T) {
	in := DirUpdate{Delete: true, Owner: 2, Key: "GET /a?b=c"}
	if got := roundTrip(t, oneUpdate(in)).(*DirBatch).Updates[0]; !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripFetchAndReply(t *testing.T) {
	f := &Fetch{Seq: 99, Key: "GET /x"}
	if got := roundTrip(t, f); !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v, want %+v", got, f)
	}
	// Field by field: a decoded reply also carries the frame it was read into.
	r := &FetchReply{Seq: 99, OK: true, ContentType: "text/html", Body: []byte("hello"), Executed: true}
	got := roundTrip(t, r).(*FetchReply)
	if got.Seq != r.Seq || got.OK != r.OK || got.ContentType != r.ContentType ||
		!bytes.Equal(got.Body, r.Body) || got.Executed != r.Executed || got.Stored != r.Stored {
		t.Fatalf("got %+v, want %+v", got, r)
	}
}

func TestRoundTripFetchReplyMiss(t *testing.T) {
	r := &FetchReply{Seq: 5, OK: false}
	got := roundTrip(t, r).(*FetchReply)
	if got.OK {
		t.Fatal("OK = true, want false")
	}
	if len(got.Body) != 0 {
		t.Fatalf("Body = %q, want empty", got.Body)
	}
}

func TestRoundTripControlMessages(t *testing.T) {
	for _, m := range []Message{
		&Ping{Seq: 1},
		&Pong{Seq: 2},
		&Stats{Seq: 3},
		&StatsReply{Seq: 3, LocalHits: 10, RemoteHits: 4, Misses: 2, FalseMisses: 1, FalseHits: 1, Inserts: 12, Evictions: 3, Entries: 9},
		&Invalidate{Origin: 7, Pattern: "GET /cgi-bin/map*"},
	} {
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v, want %+v", got, m)
		}
	}
}

func TestRoundTripDirBatch(t *testing.T) {
	in := &DirBatch{
		Owner:   4,
		Version: 1234,
		Updates: []DirUpdate{
			{Owner: 4, Key: "GET /cgi-bin/a", Size: 100, ExecTime: time.Second, Expires: time.Unix(99, 0)},
			{Delete: true, Owner: 4, Key: "GET /cgi-bin/b"},
			{Owner: 4, Key: "GET /cgi-bin/c", Size: 7},
		},
	}
	got := roundTrip(t, in).(*DirBatch)
	if got.Owner != in.Owner || got.Version != in.Version || len(got.Updates) != len(in.Updates) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	for i := range in.Updates {
		w, g := in.Updates[i], got.Updates[i]
		if g.Delete != w.Delete || g.Owner != w.Owner || g.Key != w.Key ||
			g.Size != w.Size || g.ExecTime != w.ExecTime || !g.Expires.Equal(w.Expires) {
			t.Fatalf("update %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestRoundTripDirBatchEmpty(t *testing.T) {
	in := &DirBatch{Owner: 1, Version: 5}
	got := roundTrip(t, in).(*DirBatch)
	if got.Owner != 1 || got.Version != 5 || len(got.Updates) != 0 {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripDirSync(t *testing.T) {
	in := &DirSync{
		Owner:   2,
		Version: 88,
		Full:    true,
		Updates: []DirUpdate{
			{Owner: 2, Key: "GET /k1", Size: 1},
			{Owner: 2, Key: "GET /k2", Size: 2, Expires: time.Unix(7, 0)},
		},
	}
	got := roundTrip(t, in).(*DirSync)
	if got.Owner != in.Owner || got.Version != in.Version || got.Full != in.Full ||
		len(got.Updates) != 2 || got.Updates[1].Key != "GET /k2" {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripDirSyncReq(t *testing.T) {
	in := &DirSyncReq{Version: 41}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestDirBatchBogusCountRejected(t *testing.T) {
	// A frame claiming 2^31 updates in a tiny payload must fail fast
	// instead of allocating.
	frame := Marshal(&DirBatch{Owner: 1, Version: 1})
	payload := frame[4:]
	// Count field sits after type byte + owner u32 + version u64.
	binary.BigEndian.PutUint32(payload[1+4+8:], 1<<31-1)
	if _, err := Unmarshal(payload); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestStatsReplyPeerDrops(t *testing.T) {
	in := &StatsReply{
		Seq: 9, LocalHits: 1, Entries: 2, Dropped: 12,
		PeerDrops: []PeerDrops{{Peer: 2, Dropped: 5}, {Peer: 3, Dropped: 7}},
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestStatsReplyHealth(t *testing.T) {
	in := &StatsReply{
		Seq: 11, Entries: 4,
		PeerDrops: []PeerDrops{{Peer: 2, Dropped: 1}},
		Health:    []PeerHealth{{Peer: 2, State: 0, Fails: 0}, {Peer: 3, State: 2, Fails: 6}},
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestStatsReplyDecodesPreHealthFrame(t *testing.T) {
	// A StatsReply frame that ends after the drop counters (sender predates
	// the health list) must still decode, with Health nil.
	e := &encoder{}
	e.u32(0)
	e.u8(uint8(MsgStatsReply))
	e.u64(5)
	for _, v := range []int64{10, 4, 2, 1, 1, 12, 3, 9, 2} {
		e.i64(v)
	}
	e.u32(1) // one PeerDrops entry
	e.u32(7)
	e.u64(2)
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	got, err := ReadMessage(bytes.NewReader(e.buf))
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	sr := got.(*StatsReply)
	if sr.Seq != 5 || sr.Dropped != 2 || len(sr.PeerDrops) != 1 || sr.PeerDrops[0].Peer != 7 {
		t.Fatalf("got %+v", sr)
	}
	if sr.Health != nil {
		t.Fatalf("pre-health frame produced health stats: %+v", sr)
	}
}

func TestStatsReplyStorage(t *testing.T) {
	in := &StatsReply{
		Seq: 13, Entries: 7,
		Health: []PeerHealth{{Peer: 2, State: 1, Fails: 3}},
		Storage: &StorageStats{
			Degraded:     true,
			LastError:    "write /tmp/cache/entry-9.cache.tmp: no space left on device",
			PutFailures:  4,
			Quarantined:  2,
			Recovered:    117,
			OrphansSwept: 1,
		},
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	// And a healthy nil Storage must survive the round trip as nil.
	in2 := &StatsReply{Seq: 14, Entries: 1}
	if got := roundTrip(t, in2); !reflect.DeepEqual(got, in2) {
		t.Fatalf("got %+v, want %+v", got, in2)
	}
}

func TestStatsReplyDecodesPreStorageFrame(t *testing.T) {
	// A StatsReply frame that ends after the health list (sender predates the
	// storage report) must still decode, with Storage nil.
	e := &encoder{}
	e.u32(0)
	e.u8(uint8(MsgStatsReply))
	e.u64(6)
	for _, v := range []int64{10, 4, 2, 1, 1, 12, 3, 9, 2} {
		e.i64(v)
	}
	e.u32(0) // no PeerDrops
	e.u32(1) // one health entry
	e.u32(3)
	e.u8(2)
	e.u32(5)
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	got, err := ReadMessage(bytes.NewReader(e.buf))
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	sr := got.(*StatsReply)
	if sr.Seq != 6 || len(sr.Health) != 1 || sr.Health[0].Peer != 3 {
		t.Fatalf("got %+v", sr)
	}
	if sr.Storage != nil {
		t.Fatalf("pre-storage frame produced storage stats: %+v", sr.Storage)
	}
}

func TestStatsReplyBogusHealthCountRejected(t *testing.T) {
	frame := Marshal(&StatsReply{Seq: 1})
	payload := frame[4:]
	// The health count is the last u32 of the payload.
	binary.BigEndian.PutUint32(payload[len(payload)-4:], 1<<31-1)
	if _, err := Unmarshal(payload); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestStatsReplyDecodesLegacyFrame(t *testing.T) {
	// A StatsReply frame from before the drop counters (fields end at
	// Entries) must still decode, with the new fields zero.
	e := &encoder{}
	e.u32(0)
	e.u8(uint8(MsgStatsReply))
	e.u64(3)
	for _, v := range []int64{10, 4, 2, 1, 1, 12, 3, 9} {
		e.i64(v)
	}
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	got, err := ReadMessage(bytes.NewReader(e.buf))
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	sr := got.(*StatsReply)
	if sr.Seq != 3 || sr.LocalHits != 10 || sr.Entries != 9 {
		t.Fatalf("got %+v", sr)
	}
	if sr.Dropped != 0 || sr.PeerDrops != nil {
		t.Fatalf("legacy frame produced drop stats: %+v", sr)
	}
}

func TestConnCorkedWrites(t *testing.T) {
	var buf bytes.Buffer
	conn := NewConn(&buf)
	for i := 0; i < 5; i++ {
		if err := conn.WriteBuffered(&Ping{Seq: uint64(i)}); err != nil {
			t.Fatalf("WriteBuffered: %v", err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("corked writes reached the stream: %d bytes", buf.Len())
	}
	wrote, err := conn.Flush()
	if err != nil || !wrote {
		t.Fatalf("Flush = (%v, %v), want (true, nil)", wrote, err)
	}
	if buf.Len() == 0 {
		t.Fatal("flush pushed no bytes")
	}
	for i := 0; i < 5; i++ {
		m, err := conn.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if p, ok := m.(*Ping); !ok || p.Seq != uint64(i) {
			t.Fatalf("message %d = %+v", i, m)
		}
	}
	// An empty flush must report that nothing was written.
	if wrote, err := conn.Flush(); wrote || err != nil {
		t.Fatalf("empty Flush = (%v, %v), want (false, nil)", wrote, err)
	}
}

// TestWriteMessageAllocs holds WriteMessage to zero allocations: the frame is
// encoded into a pooled buffer, for a 4 KiB body and a directory batch alike.
func TestWriteMessageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put")
	}
	for _, m := range []Message{
		&FetchReply{Seq: 9, OK: true, ContentType: "text/html", Body: make([]byte, 4096)},
		&DirBatch{Owner: 3, Version: 1, Updates: []DirUpdate{{Owner: 3,
			Key: "GET /cgi-bin/query?zoom=3&layer=roads", Size: 4096,
			ExecTime: 1500 * time.Millisecond, Expires: time.Unix(12345, 0)}}},
	} {
		if got := testing.AllocsPerRun(500, func() { WriteMessage(io.Discard, m) }); got != 0 {
			t.Errorf("WriteMessage(%v): %.1f allocs, want 0", m.Type(), got)
		}
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	_, err := Unmarshal([]byte{0xEE, 1, 2, 3})
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestUnmarshalEmpty(t *testing.T) {
	_, err := Unmarshal(nil)
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	frame := Marshal(oneUpdate(DirUpdate{Owner: 1, Key: "abcdefgh", Size: 10}))
	payload := frame[4:]
	for cut := 1; cut < len(payload); cut++ {
		if _, err := Unmarshal(payload[:cut]); err == nil {
			t.Fatalf("Unmarshal of %d/%d-byte prefix succeeded, want error", cut, len(payload))
		}
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	frame := Marshal(&Ping{Seq: 1})
	payload := append(frame[4:], 0xFF)
	if _, err := Unmarshal(payload); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestReadMessageFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrameSize+1)
	buf.Write(lenBuf[:])
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadMessageZeroLength(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0})); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestReadMessageEOF(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	frame := Marshal(&Hello{NodeID: 1, NodeName: "n", Addr: "a"})
	_, err := ReadMessage(bytes.NewReader(frame[:len(frame)-2]))
	if err == nil {
		t.Fatal("truncated frame read succeeded, want error")
	}
}

func TestConnStream(t *testing.T) {
	var buf bytes.Buffer
	conn := NewConn(&buf)
	msgs := []Message{
		&Hello{NodeID: 1, NodeName: "a", Addr: "x"},
		oneUpdate(DirUpdate{Owner: 1, Key: "GET /q", Size: 7, ExecTime: time.Second}),
		oneUpdate(DirUpdate{Delete: true, Owner: 1, Key: "GET /q"}),
		&Ping{Seq: 42},
	}
	for _, m := range msgs {
		if err := conn.Write(m); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	for i, want := range msgs {
		got, err := conn.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := conn.Read(); err != io.EOF {
		t.Fatalf("Read past end = %v, want io.EOF", err)
	}
}

func TestInsertRoundTripProperty(t *testing.T) {
	f := func(owner uint32, key string, size int64, exec int64) bool {
		in := DirUpdate{Owner: owner, Key: key, Size: size, ExecTime: time.Duration(exec)}
		got, err := ReadMessage(bytes.NewReader(Marshal(oneUpdate(in))))
		if err != nil {
			return false
		}
		b, ok := got.(*DirBatch)
		if !ok || len(b.Updates) != 1 {
			return false
		}
		out := b.Updates[0]
		return !out.Delete && out.Owner == in.Owner && out.Key == in.Key &&
			out.Size == in.Size && out.ExecTime == in.ExecTime && out.Expires.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFetchReplyRoundTripProperty(t *testing.T) {
	f := func(seq uint64, ok bool, ct string, body []byte) bool {
		in := &FetchReply{Seq: seq, OK: ok, ContentType: ct, Body: body}
		got, err := ReadMessage(bytes.NewReader(Marshal(in)))
		if err != nil {
			return false
		}
		out, o := got.(*FetchReply)
		if !o || out.Seq != seq || out.OK != ok || out.ContentType != ct {
			return false
		}
		return bytes.Equal(out.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	cases := map[MsgType]string{
		MsgHello:      "hello",
		MsgFetch:      "fetch",
		MsgFetchReply: "fetch-reply",
		MsgPing:       "ping",
		MsgPong:       "pong",
		MsgStats:      "stats",
		MsgStatsReply: "stats-reply",
		MsgInvalidate: "invalidate",
		MsgDirBatch:   "dir-batch",
		MsgDirSyncReq: "dir-sync-req",
		MsgDirSync:    "dir-sync",
		MsgType(200):  "wire.MsgType(200)",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Fatalf("MsgType(%d).String() = %q, want %q", uint8(in), got, want)
		}
	}
}

func TestStatsReplyResilience(t *testing.T) {
	in := &StatsReply{
		Seq: 17, Entries: 3,
		Resilience: &ResilienceStats{
			FetchPrimaries: 420, HedgesIssued: 31, HedgesWon: 12, HedgesAbandoned: 30,
			HedgesDenied: 4, HedgesLocal: 9, BudgetPermille: 730, BreakerFastFails: 55,
			ShedLevel: 2, ShedRemote: 17, ShedLocal: 41, ShedStale: 6,
			Breakers: []BreakerInfo{
				{Peer: 2, State: 1, Trips: 3, Samples: 900, Latency: 80 * time.Millisecond,
					Baseline: 2 * time.Millisecond, P95: 120 * time.Millisecond, FailPermille: 412},
				{Peer: 3, State: 0, Samples: 1200, Latency: time.Millisecond,
					Baseline: time.Millisecond, P95: 3 * time.Millisecond},
			},
		},
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	// An absent section must decode back to nil (default-off byte compat).
	plain := &StatsReply{Seq: 18, Entries: 1}
	if got := roundTrip(t, plain).(*StatsReply); got.Resilience != nil {
		t.Fatalf("default-off reply grew a resilience section: %+v", got)
	}
}
