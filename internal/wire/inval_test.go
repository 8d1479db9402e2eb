package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestRoundTripInvalWave(t *testing.T) { checkGolden(t, "inval-wave") }

func TestRoundTripInvalAck(t *testing.T) { checkGolden(t, "inval-ack") }

// A test named for a legacy frame checks that a frame ending before the
// message's last field is rejected; checkPrefixes tries every such frame.
// Every node is built from this tree, so there is no older sender to decode.

func TestInvalidateSeqAndLegacyFrame(t *testing.T) {
	checkGolden(t, "invalidate")
	checkPrefixes(t, "invalidate")
}

func TestDirSyncReqWaveSeqAndLegacyFrame(t *testing.T) {
	checkGolden(t, "dir-sync-req")
	checkPrefixes(t, "dir-sync-req")
}

func TestDirSyncWavesAndLegacyFrame(t *testing.T) {
	checkGolden(t, "dir-sync")
	checkPrefixes(t, "dir-sync")
}

func TestDirSyncRejectsOversizedWaveCount(t *testing.T) {
	// A corrupt frame claiming more waves than could possibly fit must be
	// rejected before allocating. The wave count is the frame's last field.
	frame := Marshal(&DirSync{Owner: 2, Version: 30})
	binary.BigEndian.PutUint32(frame[len(frame)-4:], 1<<30)
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("oversized wave count decoded without error")
	}
}
