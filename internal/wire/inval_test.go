package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// rejectsShortFrame feeds ReadMessage a frame of type ty whose body, written by
// body, stops before the message's last field: every node is built from this
// tree, so there is no older sender to decode it for.
func rejectsShortFrame(t *testing.T, ty MsgType, body func(e *encoder)) {
	t.Helper()
	e := &encoder{}
	e.u32(0)
	e.u8(uint8(ty))
	body(e)
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	if m, err := ReadMessage(bytes.NewReader(e.buf)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("short %v frame: got %+v, %v; want ErrBadMessage", ty, m, err)
	}
}

func TestRoundTripInvalWave(t *testing.T) {
	in := &InvalWave{Origin: 3, Seq: 42, Pattern: "* /cgi-bin/rwread*"}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripInvalAck(t *testing.T) {
	in := &InvalAck{Seq: 9, Matched: 12, Peers: 7, Unreached: 2}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestInvalidateSeqAndLegacyFrame(t *testing.T) {
	in := &Invalidate{Origin: 0xFFFF, Pattern: "GET /cgi-bin/map*", Seq: 5}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}

	// A pre-wave Invalidate ended at Pattern; no node sends one.
	rejectsShortFrame(t, MsgInvalidate, func(e *encoder) {
		e.u32(7)
		e.str("GET /a*")
	})
}

func TestDirSyncReqWaveSeqAndLegacyFrame(t *testing.T) {
	in := &DirSyncReq{Version: 17, WaveSeq: 4}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}

	// A pre-wave DirSyncReq ended at Version; no node sends one.
	rejectsShortFrame(t, MsgDirSyncReq, func(e *encoder) { e.u64(17) })
}

func TestDirSyncWavesAndLegacyFrame(t *testing.T) {
	in := &DirSync{
		Owner: 2, Version: 30,
		Updates: []DirUpdate{{Owner: 2, Key: "GET /a", Size: 5}},
		Waves: []InvalWave{
			{Origin: 2, Seq: 1, Pattern: "GET /a*"},
			{Origin: 2, Seq: 2, Pattern: "*"},
		},
	}
	got := roundTrip(t, in).(*DirSync)
	if !reflect.DeepEqual(got.Waves, in.Waves) || len(got.Updates) != 1 {
		t.Fatalf("got %+v, want %+v", got, in)
	}

	// A pre-wave DirSync ended at Handoff; no node sends one.
	rejectsShortFrame(t, MsgDirSync, func(e *encoder) {
		e.u32(2)
		e.u64(30)
		e.boolean(false)
		e.u32(0)
		e.boolean(true)
	})
}

func TestDirSyncRejectsOversizedWaveCount(t *testing.T) {
	// A corrupt frame claiming more waves than could possibly fit must be
	// rejected before allocating.
	e := &encoder{}
	e.u32(0)
	e.u8(uint8(MsgDirSync))
	e.u32(2)
	e.u64(30)
	e.boolean(false)
	e.u32(0)
	e.boolean(false)
	e.u32(1 << 30) // absurd wave count with no payload behind it
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	if _, err := ReadMessage(bytes.NewReader(e.buf)); err == nil {
		t.Fatal("oversized wave count decoded without error")
	}
}
