package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestRoundTripJoinLeaveRingUpdate(t *testing.T) {
	j := &Join{NodeID: 9, Addr: "10.0.0.9:9080"}
	if got := roundTrip(t, j); !reflect.DeepEqual(got, j) {
		t.Fatalf("got %+v, want %+v", got, j)
	}
	l := &Leave{NodeID: 9, Incarnation: 4}
	if got := roundTrip(t, l); !reflect.DeepEqual(got, l) {
		t.Fatalf("got %+v, want %+v", got, l)
	}
	ru := &RingUpdate{
		Origin: 2,
		Members: []Member{
			{ID: 1, Addr: "h1:9080", Incarnation: 1},
			{ID: 2, Addr: "h2:9080", Incarnation: 3},
			{ID: 5, Addr: "h5:9080", Incarnation: 2, Left: true},
		},
	}
	if got := roundTrip(t, ru); !reflect.DeepEqual(got, ru) {
		t.Fatalf("got %+v, want %+v", got, ru)
	}
	empty := &RingUpdate{Origin: 1}
	if got := roundTrip(t, empty); !reflect.DeepEqual(got, empty) {
		t.Fatalf("got %+v, want %+v", got, empty)
	}
}

func TestRingUpdateBogusCountRejected(t *testing.T) {
	e := &encoder{}
	e.u32(0)
	e.u8(uint8(MsgRingUpdate))
	e.u32(1)
	e.u32(1 << 30) // claims a billion members in an empty payload
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	if _, err := ReadMessage(bytes.NewReader(e.buf)); err == nil {
		t.Fatal("bogus member count decoded")
	}
}

func TestRoundTripHelloVersioned(t *testing.T) {
	in := &Hello{
		NodeID: 3, NodeName: "node-3", Addr: "h3:9080",
		ProtoVersion: ProtoCurrent, Placement: PlacementRing,
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestHelloRejectsShortFrame(t *testing.T) {
	// A Hello from before version negotiation ended at Addr; no node sends one.
	rejectsShortFrame(t, MsgHello, func(e *encoder) {
		e.u32(7)
		e.str("node-7")
		e.str("h7:9080")
	})
}

func TestFetchFlagsAndLegacyFrame(t *testing.T) {
	in := &Fetch{Seq: 11, Key: "GET /x", Flags: FetchExecute | FetchTakeover}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}

	// A replicate-era Fetch ended at Key; no node sends one.
	rejectsShortFrame(t, MsgFetch, func(e *encoder) {
		e.u64(12)
		e.str("GET /y")
	})
}

func TestFetchReplyExecutedAndShortFrame(t *testing.T) {
	in := &FetchReply{Seq: 4, OK: true, ContentType: "text/html", Body: []byte("b"), Executed: true, Stored: true}
	got := roundTrip(t, in).(*FetchReply)
	if !got.Executed || !got.Stored {
		t.Fatalf("Executed/Stored lost in round trip: %+v", got)
	}

	// A frame that ends after the body, or after Executed, is malformed: no
	// peer that sends one exists.
	for _, flags := range [][]bool{{}, {true}} {
		rejectsShortFrame(t, MsgFetchReply, func(e *encoder) {
			e.u64(4)
			e.boolean(true)
			e.str("text/html")
			e.bytes([]byte("b"))
			for _, f := range flags {
				e.boolean(f)
			}
		})
	}
}

func TestDirSyncHandoffAndLegacyFrame(t *testing.T) {
	in := &DirSync{
		Owner: 1, Version: 9, Handoff: true,
		Updates: []DirUpdate{{Owner: 1, Key: "GET /a", Size: 10}},
	}
	got := roundTrip(t, in).(*DirSync)
	if !got.Handoff || len(got.Updates) != 1 {
		t.Fatalf("got %+v", got)
	}

	// A replicate-era DirSync ended after Updates; no node sends one.
	rejectsShortFrame(t, MsgDirSync, func(e *encoder) {
		e.u32(1)
		e.u64(9)
		e.boolean(false)
		e.u32(0)
	})
}
