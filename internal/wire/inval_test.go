package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestRoundTripDirBatchWave(t *testing.T) { checkGolden(t, "dir-batch with wave") }

func TestRoundTripInvalAck(t *testing.T) { checkGolden(t, "inval-ack") }

// A test named for a legacy frame checks that a frame ending before the
// message's last field is rejected; checkPrefixes tries every such frame.
// Every node is built from this tree, so there is no older sender to decode.

func TestInvalidateSeqAndLegacyFrame(t *testing.T) {
	checkGolden(t, "invalidate")
	checkPrefixes(t, "invalidate")
}

func TestDirSyncReqLegacyFrame(t *testing.T) {
	checkGolden(t, "dir-sync-req")
	checkPrefixes(t, "dir-sync-req")
}

func TestDirSyncWavesAndLegacyFrame(t *testing.T) {
	checkGolden(t, "dir-sync")
	checkPrefixes(t, "dir-sync")
}

func TestDirSyncRejectsOversizedUpdateCount(t *testing.T) {
	// A corrupt frame claiming more records than could possibly fit must be
	// rejected before allocating. The record count sits just before the
	// frame's last field, the Handoff byte.
	frame := Marshal(&DirSync{Owner: 2, Version: 30})
	binary.BigEndian.PutUint32(frame[len(frame)-5:], 1<<30)
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("oversized record count decoded without error")
	}
}

func TestDirUpdateRejectsUnknownKind(t *testing.T) {
	// Kind byte 3 names no record: the frame is malformed, not a new kind.
	frame := Marshal(&DirBatch{Owner: 3, Version: 1, Updates: []DirUpdate{{Kind: DirWave, Owner: 3, Key: "*"}}})
	frame[4+1+4+8+4] = 3
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("record of kind 3 decoded without error")
	}
}
