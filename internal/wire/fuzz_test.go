package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/lease"
)

// goldenPayloads returns every golden frame without its length prefix.
func goldenPayloads(f *testing.F) [][]byte {
	var out [][]byte
	for _, g := range golden {
		frame, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, frame[4:])
	}
	return out
}

// FuzzFrame asserts, for every registered type, that a body which decodes
// re-encodes to the same bytes, and that decoding those again gives an equal
// message: encode∘decode is the identity on every accepted frame.
func FuzzFrame(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p[0], p[1:])
	}
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		typ %= uint8(len(registry)) // spend the inputs on types that exist
		payload := append([]byte{typ}, body...)
		m, err := Unmarshal(payload)
		if err != nil {
			return
		}
		frame := Marshal(m)
		if !bytes.Equal(frame[4:], payload) {
			t.Fatalf("%v: re-encoded %x, decoded from %x", m.Type(), frame[4:], payload)
		}
		again, err := Unmarshal(frame[4:])
		if err != nil {
			t.Fatalf("%v: re-decode: %v", m.Type(), err)
		}
		if !sameMessage(again, m) {
			t.Fatalf("%v: re-decoded %+v, want %+v", m.Type(), again, m)
		}
	})
}

// FuzzUnmarshal asserts that ReadMessage, whose pooled coder aliases a
// FetchReply body into its frame and reuses the last content type, decodes
// any payload exactly as a fresh Unmarshal does, and fails where it fails.
func FuzzUnmarshal(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 1, 2})

	f.Fuzz(func(t *testing.T, payload []byte) {
		want, werr := Unmarshal(payload)
		// A reply read first leaves its content type in the pooled coder.
		prev, _ := ReadMessage(bytes.NewReader(Marshal(&FetchReply{ContentType: "text/html"})))
		prev.(*FetchReply).Release()
		frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		got, gerr := ReadMessage(bytes.NewReader(frame))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Unmarshal err %v, ReadMessage err %v", werr, gerr)
		}
		if r, ok := got.(*FetchReply); ok {
			defer r.Release()
			read := *r
			read.frame = lease.Buf{}
			got = &read
		}
		if werr == nil && !sameMessage(got, want) {
			t.Fatalf("ReadMessage %+v, Unmarshal %+v", got, want)
		}
	})
}

// sameMessage is reflect.DeepEqual, except that sample values compare by
// their bits, so a NaN equals itself.
func sameMessage(a, b Message) bool {
	ra, ok := a.(*StatsReply)
	rb, ok2 := b.(*StatsReply)
	if !ok || !ok2 {
		return reflect.DeepEqual(a, b)
	}
	if ra.Seq != rb.Seq || len(ra.Samples) != len(rb.Samples) {
		return false
	}
	for i := range ra.Samples {
		x, y := ra.Samples[i], rb.Samples[i]
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
		x.Value, y.Value = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}
