package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestRoundTripJoinLeaveRingUpdate(t *testing.T) {
	checkGolden(t, "join")
	checkGolden(t, "leave")
	checkGolden(t, "ring-update")
	empty := &RingUpdate{Origin: 1}
	if got := roundTrip(t, empty); !reflect.DeepEqual(got, empty) {
		t.Fatalf("got %+v, want %+v", got, empty)
	}
}

func TestRingUpdateBogusCountRejected(t *testing.T) {
	frame := Marshal(&RingUpdate{Origin: 1})
	binary.BigEndian.PutUint32(frame[len(frame)-4:], 1<<30) // a billion members in an empty payload
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("bogus member count decoded")
	}
}

func TestRoundTripHelloVersioned(t *testing.T) {
	if m, _ := goldenRow(t, "hello"); m.(*Hello).ProtoVersion != ProtoVersion {
		t.Fatalf("golden hello announces v%d, want v%d", m.(*Hello).ProtoVersion, ProtoVersion)
	}
	checkGolden(t, "hello")
}

func TestHelloRejectsShortFrame(t *testing.T) { checkPrefixes(t, "hello") }

func TestFetchFlagsAndLegacyFrame(t *testing.T) {
	checkGolden(t, "fetch")
	checkPrefixes(t, "fetch")
}

func TestFetchReplyExecutedAndShortFrame(t *testing.T) {
	checkGolden(t, "fetch-reply")
	checkPrefixes(t, "fetch-reply")
}

func TestDirSyncHandoffAndLegacyFrame(t *testing.T) {
	checkGolden(t, "dir-sync")
	checkPrefixes(t, "dir-sync")
}
