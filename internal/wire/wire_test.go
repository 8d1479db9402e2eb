package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
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

func TestRoundTripHello(t *testing.T) { checkGolden(t, "hello") }

// oneUpdate wraps u in a DirBatch, the frame every directory update rides.
func oneUpdate(u DirUpdate) *DirBatch {
	return &DirBatch{Owner: u.Owner, Version: 1, Updates: []DirUpdate{u}}
}

func TestRoundTripInsert(t *testing.T) { checkGolden(t, "dir-sync") }

func TestRoundTripInsertZeroExpiry(t *testing.T) { checkGolden(t, "dir-batch zero expiry") }

func TestRoundTripDelete(t *testing.T) { checkGolden(t, "dir-batch") }

func TestRoundTripFetchAndReply(t *testing.T) {
	checkGolden(t, "fetch")
	checkGolden(t, "fetch-reply")
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
	for _, name := range []string{"ping", "pong", "stats", "stats-reply", "invalidate"} {
		checkGolden(t, name)
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
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripDirSync(t *testing.T) { checkGolden(t, "dir-sync") }

func TestRoundTripDirSyncReq(t *testing.T) { checkGolden(t, "dir-sync-req") }

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

func TestStatsReplyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []stats.Sample
	}{
		{"empty", nil},
		{"no labels", []stats.Sample{{Name: "swala_misses_total", Value: 12}}},
		{"escaped and non-ASCII labels", []stats.Sample{{
			Name: "swala_entry_hits_total",
			Labels: []stats.Label{
				{Name: "key", Value: "GET /q?a=\"x\"&b=\\\n<script>"},
				{Name: "node", Value: "nœud-π ✓"},
			},
			Value: 3,
		}}},
		{"2^53", []stats.Sample{{Name: "swala_store_put_failures_total", Value: 1 << 53}}},
		{"signed zero and infinity", []stats.Sample{
			{Name: "a", Value: math.Copysign(0, -1)},
			{Name: "b", Labels: []stats.Label{{Name: "peer", Value: "2"}}, Value: math.Inf(1)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &StatsReply{Seq: 9, Samples: tc.samples}
			got := roundTrip(t, in).(*StatsReply)
			if !reflect.DeepEqual(got, in) {
				t.Fatalf("got %+v, want %+v", got, in)
			}
			for i := range in.Samples {
				if w, g := math.Float64bits(in.Samples[i].Value), math.Float64bits(got.Samples[i].Value); g != w {
					t.Fatalf("sample %d bits = %#x, want %#x", i, g, w)
				}
			}
		})
	}
}

// sectionRoundTrip sends the samples one status section emits through a
// StatsReply and checks that each want (name, label pairs, value) reads back.
func sectionRoundTrip(t *testing.T, samples []stats.Sample, wants []sampleWant) {
	t.Helper()
	in := &StatsReply{Seq: 4, Samples: samples}
	got := roundTrip(t, in).(*StatsReply)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	for _, w := range wants {
		v, ok := stats.Find(got.Samples, w.name, w.pairs...)
		if !ok || v != w.value {
			t.Errorf("Find(%s, %v) = (%v, %v), want (%v, true)", w.name, w.pairs, v, ok, w.value)
		}
	}
}

type sampleWant struct {
	name  string
	pairs []string
	value float64
}

func lbl(pairs ...string) []stats.Label {
	var ls []stats.Label
	for i := 0; i+1 < len(pairs); i += 2 {
		ls = append(ls, stats.Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

func TestStatsReplyPeerDrops(t *testing.T) {
	sectionRoundTrip(t, []stats.Sample{
		{Name: "swala_dropped_updates_total", Value: 12},
		{Name: "swala_peer_dropped_updates_total", Labels: lbl("peer", "2"), Value: 5},
		{Name: "swala_peer_dropped_updates_total", Labels: lbl("peer", "3"), Value: 7},
	}, []sampleWant{
		{"swala_dropped_updates_total", nil, 12},
		{"swala_peer_dropped_updates_total", []string{"peer", "2"}, 5},
		{"swala_peer_dropped_updates_total", []string{"peer", "3"}, 7},
	})
}

func TestStatsReplyHealth(t *testing.T) {
	sectionRoundTrip(t, []stats.Sample{
		{Name: "swala_quarantines_total", Value: 1},
		{Name: "swala_quarantine_lifts_total", Value: 0},
		{Name: "swala_peer_state", Labels: lbl("peer", "2", "state", "suspect", "last_error", "i/o timeout"), Value: 1},
		{Name: "swala_peer_probe_failures", Labels: lbl("peer", "2"), Value: 3},
		{Name: "swala_peer_quarantined", Labels: lbl("peer", "2"), Value: 1},
	}, []sampleWant{
		{"swala_quarantines_total", nil, 1},
		{"swala_peer_state", []string{"peer", "2", "state", "suspect", "last_error", "i/o timeout"}, 1},
		{"swala_peer_probe_failures", []string{"peer", "2"}, 3},
		{"swala_peer_quarantined", []string{"peer", "2"}, 1},
	})
}

func TestStatsReplyStorage(t *testing.T) {
	sectionRoundTrip(t, []stats.Sample{
		{Name: "swala_store_info", Labels: lbl("last_error", "write seg-0007: no space left on device"), Value: 1},
		{Name: "swala_store_degraded", Value: 1},
		{Name: "swala_store_degraded_since_seconds", Value: 1.7e9},
		{Name: "swala_store_put_failures_total", Value: 4},
		{Name: "swala_store_quarantined_total", Value: 2},
		{Name: "swala_store_recovered_entries", Value: 900},
		{Name: "swala_store_orphans_swept", Value: 6},
	}, []sampleWant{
		{"swala_store_info", []string{"last_error", "write seg-0007: no space left on device"}, 1},
		{"swala_store_degraded", nil, 1},
		{"swala_store_degraded_since_seconds", nil, 1.7e9},
		{"swala_store_put_failures_total", nil, 4},
		{"swala_store_recovered_entries", nil, 900},
		{"swala_store_orphans_swept", nil, 6},
	})
}

func TestStatsReplyRing(t *testing.T) {
	sectionRoundTrip(t, []stats.Sample{
		{Name: "swala_ring_epoch", Value: 3},
		{Name: "swala_ring_vnodes", Value: 64},
		{Name: "swala_ring_last_rebalance_seconds", Value: 0},
		{Name: "swala_ring_handoff_out_total", Value: 11},
		{Name: "swala_ring_handoff_in_total", Value: 9},
		{Name: "swala_ring_handoff_bytes_total", Value: 1 << 20},
		{Name: "swala_ring_member_owned_ratio", Labels: lbl("member", "1", "addr", "10.0.0.1:9001", "state", "self"), Value: 0.5},
		{Name: "swala_ring_member_owned_ratio", Labels: lbl("member", "2", "addr", "10.0.0.2:9001", "state", "leaving"), Value: 0.25},
	}, []sampleWant{
		{"swala_ring_epoch", nil, 3},
		{"swala_ring_vnodes", nil, 64},
		{"swala_ring_handoff_bytes_total", nil, 1 << 20},
		{"swala_ring_member_owned_ratio", []string{"member", "1", "state", "self"}, 0.5},
		{"swala_ring_member_owned_ratio", []string{"member", "2", "addr", "10.0.0.2:9001"}, 0.25},
	})
}

func TestStatsReplyResilience(t *testing.T) {
	sectionRoundTrip(t, []stats.Sample{
		{Name: "swala_fetch_primaries_total", Value: 100},
		{Name: "swala_hedges_issued_total", Value: 8},
		{Name: "swala_hedges_won_total", Value: 3},
		{Name: "swala_retry_budget_fill_ratio", Value: 0.75},
		{Name: "swala_breaker_fast_fails_total", Value: 2},
		{Name: "swala_shed_level", Value: 1},
		{Name: "swala_shed_total", Labels: lbl("class", "remote"), Value: 5},
		{Name: "swala_shed_total", Labels: lbl("class", "stale"), Value: 1},
		{Name: "swala_peer_breaker_state", Labels: lbl("peer", "3", "state", "open"), Value: 1},
		{Name: "swala_peer_breaker_trips_total", Labels: lbl("peer", "3"), Value: 2},
		{Name: "swala_peer_fetch_p95_seconds", Labels: lbl("peer", "3"), Value: 0.125},
	}, []sampleWant{
		{"swala_fetch_primaries_total", nil, 100},
		{"swala_retry_budget_fill_ratio", nil, 0.75},
		{"swala_shed_total", []string{"class", "remote"}, 5},
		{"swala_shed_total", []string{"class", "stale"}, 1},
		{"swala_peer_breaker_state", []string{"peer", "3", "state", "open"}, 1},
		{"swala_peer_fetch_p95_seconds", []string{"peer", "3"}, 0.125},
	})
}

func TestStatsReplyBogusHealthCountRejected(t *testing.T) {
	// A sample count or a label count far beyond what the payload can hold
	// must fail fast instead of allocating.
	frame := Marshal(&StatsReply{Seq: 1, Samples: []stats.Sample{{Name: "n"}}})
	for name, off := range map[string]int{
		"samples": 1 + 8,             // type byte + Seq
		"labels":  1 + 8 + 4 + 4 + 1, // ... + sample count + name "n"
	} {
		payload := append([]byte(nil), frame[4:]...)
		binary.BigEndian.PutUint32(payload[off:], 1<<31-1)
		if _, err := Unmarshal(payload); !errors.Is(err, ErrBadMessage) {
			t.Errorf("bogus %s count: err = %v, want ErrBadMessage", name, err)
		}
	}
}

func TestStatsReplyRetiredTypeRejected(t *testing.T) {
	// Type 9 carried the older StatsReply layout; a current node rejects it
	// instead of misreading the frame.
	if _, err := Unmarshal([]byte{9, 0, 0, 0, 0, 0, 0, 0, 1}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
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
	// 0 and the reserved numbers are unknown, like any number past the last.
	for _, typ := range []byte{0, 2, 3, 9, 0xEE} {
		if _, err := Unmarshal([]byte{typ, 1, 2, 3}); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("type %d: err = %v, want ErrUnknownType", typ, err)
		}
	}
}

// TestBooleanByteIsZeroOrOne: a bool byte other than 0 or 1 would decode to
// true and re-encode as 1, so decoding rejects it.
func TestBooleanByteIsZeroOrOne(t *testing.T) {
	for _, tc := range []struct {
		row string
		off int // of a bool byte in the frame
	}{
		{"fetch-reply", 4 + 1 + 8},          // OK, after the Seq
		{"dir-batch", 4 + 1 + 4 + 8 + 4},    // the update's Delete, after its count
		{"ring-update", 4 + 1 + 4 + 4 + 23}, // the first member's Left
	} {
		_, frame := goldenRow(t, tc.row)
		if frame[tc.off] != 1 {
			t.Fatalf("%s: byte %d is %d, not a true bool", tc.row, tc.off, frame[tc.off])
		}
		frame[tc.off] = 2
		if m, err := ReadMessage(bytes.NewReader(frame)); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s with a bool byte of 2: got %+v, %v; want ErrBadMessage", tc.row, m, err)
		}
	}
}

func TestUnmarshalEmpty(t *testing.T) {
	_, err := Unmarshal(nil)
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) { checkPrefixes(t, "dir-batch zero expiry") }

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
		MsgType(0):    "wire.MsgType(0)",
		MsgType(9):    "wire.MsgType(9)",
		MsgType(200):  "wire.MsgType(200)",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Fatalf("MsgType(%d).String() = %q, want %q", uint8(in), got, want)
		}
	}
}
