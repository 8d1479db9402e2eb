package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
)

// golden pairs one message of every type with the hex of the frame it must
// encode to. Every field is non-zero, so a field dropped or reordered on
// either side of the codec changes the bytes. Editing a frame here is a change
// of the wire format.
var golden = []struct {
	name string
	msg  Message
	hex  string
}{
	{"hello", &Hello{NodeID: 7, NodeName: "node-7", Addr: "10.0.0.7:9080", ProtoVersion: 4, Placement: PlacementRing},
		"000000250100000007000000066e6f64652d370000000d31302e302e302e373a393038300000000401"},
	{"fetch", &Fetch{Seq: 11, Key: "GET /cgi-bin/q?x=1", Flags: FetchExecute | FetchTakeover},
		"0000002004000000000000000b00000012474554202f6367692d62696e2f713f783d3103"},
	{"fetch-reply", &FetchReply{Seq: 12, OK: true, ContentType: "text/html", Body: []byte("<p>hi</p>"), Executed: true, Stored: true},
		"0000002605000000000000000c0100000009746578742f68746d6c000000093c703e68693c2f703e0101"},
	{"ping", &Ping{Seq: 13},
		"0000000906000000000000000d"},
	{"pong", &Pong{Seq: 14},
		"0000000907000000000000000e"},
	{"stats", &Stats{Seq: 15},
		"0000000908000000000000000f"},
	{"stats-reply", &StatsReply{Seq: 16, Samples: []stats.Sample{
		{Name: "swala_local_hits_total", Labels: []stats.Label{{Name: "peer", Value: "2"}}, Value: 42},
	}},
		"0000004015000000000000001000000001000000167377616c615f6c6f63616c5f686974735f746f74616c00000001000000047065657200000001324045000000000000"},
	{"stats-reply with labels", &StatsReply{Seq: 17, Samples: []stats.Sample{
		{Name: "swala_peer_state", Labels: []stats.Label{{Name: "peer", Value: "3"}, {Name: "last_error", Value: "i/o \"timeout\"\n"}}, Value: 1},
		{Name: "swala_misses_total", Value: 0.5},
	}},
		"0000007c15000000000000001100000002000000107377616c615f706565725f737461746500000002000000047065657200000001330000000a6c6173745f6572726f720000000e692f6f202274696d656f7574220a3ff0000000000000000000127377616c615f6d69737365735f746f74616c000000003fe0000000000000"},
	{"invalidate", &Invalidate{Origin: 5, Pattern: "GET /cgi-bin/map*", Seq: 18},
		"000000220a0000000500000011474554202f6367692d62696e2f6d61702a0000000000000012"},
	{"dir-batch", &DirBatch{Owner: 3, Version: 19, Updates: []DirUpdate{
		{Kind: DirDelete, Owner: 3, Key: "GET /a", Size: 4096, ExecTime: 1500 * time.Millisecond, Expires: time.Unix(12345, 67890)},
	}},
		"000000380b00000003000000000000001300000001010000000300000006474554202f6100000000000010000000000059682f0000000b3a4b580332"},
	{"dir-batch zero expiry", &DirBatch{Owner: 3, Version: 20, Updates: []DirUpdate{
		{Owner: 3, Key: "GET /b", Size: 7, ExecTime: time.Millisecond},
	}},
		"000000380b00000003000000000000001400000001000000000300000006474554202f62000000000000000700000000000f42408000000000000000"},
	{"dir-batch with wave", &DirBatch{Owner: 3, Version: 24, Updates: []DirUpdate{
		{Kind: DirWave, Owner: 3, Key: "* /cgi-bin/rwread*"},
	}},
		"000000440b000000030000000000000018000000010200000003000000122a202f6367692d62696e2f7277726561642a000000000000000000000000000000008000000000000000"},
	{"dir-sync-req", &DirSyncReq{Version: 21},
		"000000090c0000000000000015"},
	{"dir-sync", &DirSync{Owner: 2, Version: 23, Full: true,
		Updates: []DirUpdate{
			{Kind: DirWave, Owner: 2, Key: "*"},
			{Owner: 2, Key: "GET /c", Size: 9, ExecTime: time.Second, Expires: time.Unix(1700000000, 1)},
		},
		Handoff: true,
	},
		"0000005c0d00000002000000000000001701000000020200000002000000012a000000000000000000000000000000008000000000000000000000000200000006474554202f630000000000000009000000003b9aca0017979cfe362a000101"},
	{"join", &Join{NodeID: 9, Addr: "10.0.0.9:9080"},
		"000000160e000000090000000d31302e302e302e393a39303830"},
	{"leave", &Leave{NodeID: 9, Incarnation: 4},
		"0000000d0f000000090000000000000004"},
	{"ring-update", &RingUpdate{Origin: 2, Members: []Member{
		{ID: 1, Addr: "h1:9080", Incarnation: 1, Left: true},
		{ID: 5, Addr: "h5:9080", Incarnation: 2},
	}},
		"00000039100000000200000002000000010000000768313a39303830000000000000000101000000050000000768353a39303830000000000000000200"},
	{"replica-push", &ReplicaPush{Home: 1, Key: "GET /hot", Size: 2048, ExecTime: 2 * time.Second, Expires: time.Unix(1700000000, 5), Retire: true},
		"0000002a110000000100000008474554202f686f740000000000000800000000007735940017979cfe362a000501"},
	{"replica-event", &ReplicaEvent{Key: "GET /hot", Home: 1, Holder: 2, Retire: true},
		"000000161200000008474554202f686f74000000010000000201"},
	{"inval-ack", &InvalAck{Seq: 9, Matched: 12, Peers: 7, Unreached: 2},
		"000000151400000000000000090000000c0000000700000002"},
}

// goldenRow returns the message and frame of the golden row called name.
func goldenRow(t *testing.T, name string) (Message, []byte) {
	t.Helper()
	for _, g := range golden {
		if g.name == name {
			frame, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatalf("golden %q: %v", name, err)
			}
			return g.msg, frame
		}
	}
	t.Fatalf("no golden row %q", name)
	return nil, nil
}

// checkGolden asserts that the message of row name encodes to its frame and
// that the frame decodes back to that message.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	m, frame := goldenRow(t, name)
	if got := Marshal(m); !bytes.Equal(got, frame) {
		t.Fatalf("%s: Marshal = %x, want %x", name, got, frame)
	}
	got, err := Unmarshal(frame[4:])
	if err != nil {
		t.Fatalf("%s: Unmarshal: %v", name, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%s: decoded %+v, want %+v", name, got, m)
	}
}

// checkPrefixes asserts that every strict prefix of row name's frame, read as
// a frame of its own length, is rejected as malformed. Each field is fixed
// size or length-prefixed, so a frame cut anywhere is short.
func checkPrefixes(t *testing.T, name string) {
	t.Helper()
	_, frame := goldenRow(t, name)
	payload := frame[4:]
	for n := 0; n < len(payload); n++ {
		short := append(binary.BigEndian.AppendUint32(nil, uint32(n)), payload[:n]...)
		if m, err := ReadMessage(bytes.NewReader(short)); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: %d of %d payload bytes read as %+v, %v; want ErrBadMessage", name, n, len(payload), m, err)
		}
	}
}

func TestGoldenFrames(t *testing.T) {
	for _, g := range golden {
		checkGolden(t, g.name)
	}
}

func TestGoldenFramePrefixesRejected(t *testing.T) {
	for _, g := range golden {
		checkPrefixes(t, g.name)
	}
}

// TestGoldenCoversEveryType fails when a type the decoder accepts has no
// golden row.
func TestGoldenCoversEveryType(t *testing.T) {
	rows := map[MsgType]bool{}
	for _, g := range golden {
		rows[g.msg.Type()] = true
	}
	known := 0
	for b := 0; b < 256; b++ {
		_, err := Unmarshal([]byte{byte(b)})
		if errors.Is(err, ErrUnknownType) {
			continue
		}
		known++
		if !rows[MsgType(b)] {
			t.Errorf("type %v has no golden row", MsgType(b))
		}
	}
	if known != 17 {
		t.Errorf("%d known types, want 17", known)
	}
}
