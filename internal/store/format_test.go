package store

import (
	"bytes"
	"testing"
	"time"
)

// decodeEntry is verifyRecord with the key and content type as strings.
func decodeEntry(data []byte) (entryMeta, []byte, error) {
	key, ct, m, body, err := verifyRecord(data)
	m.Key, m.ContentType = string(key), string(ct)
	return m, body, err
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	exp := time.Unix(0, time.Now().Add(time.Hour).UnixNano())
	cases := []struct {
		key, ct string
		body    []byte
		exec    time.Duration
		expires time.Time
	}{
		{"GET /cgi-bin/q?a=1", "text/html", []byte("<b>x</b>"), 3 * time.Millisecond, exp},
		{"", "", nil, 0, time.Time{}},
		{"k", "application/octet-stream", []byte{0, 1, 2, 0xff}, time.Hour, time.Time{}},
	}
	for _, c := range cases {
		buf := encodeEntry(c.key, c.ct, c.body, c.exec, c.expires)
		m, body, err := decodeEntry(buf)
		if err != nil {
			t.Fatalf("decode(%q): %v", c.key, err)
		}
		if m.Key != c.key || m.ContentType != c.ct || !bytes.Equal(body, c.body) {
			t.Fatalf("round trip lost data: %+v, %q", m, body)
		}
		if m.ExecTime != c.exec || !m.Expires.Equal(c.expires) {
			t.Fatalf("round trip lost meta: exec %v, expires %v", m.ExecTime, m.Expires)
		}
	}
}

func TestDecodeEntryRejectsMutations(t *testing.T) {
	buf := encodeEntry("key", "ct", []byte("body bytes"), time.Millisecond, time.Time{})
	// Flipping any single byte after the magic must fail the checksum (or the
	// structural parse); the magic bytes fail the magic check directly.
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x01
		if _, _, err := decodeEntry(mut); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", i)
		}
	}
	// Truncation at every length must be rejected too.
	for n := range buf {
		if _, _, err := decodeEntry(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
	// Trailing garbage must be rejected.
	if _, _, err := decodeEntry(append(append([]byte(nil), buf...), 0x00)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

// FuzzParseEntryHeader holds parseEntryRecord to its contract: never panic on
// arbitrary bytes, and accept-with-fidelity anything encodeEntry produced.
func FuzzParseEntryHeader(f *testing.F) {
	f.Add(encodeEntry("GET /cgi-bin/q?a=1", "text/html", []byte("<b>x</b>"), time.Millisecond, time.Unix(0, 1754000000000000000)))
	f.Add(encodeEntry("", "", nil, 0, time.Time{}))
	torn := encodeEntry("k", "t", []byte("0123456789"), 0, time.Time{})
	f.Add(torn[:len(torn)/2])
	f.Add([]byte("SWLC"))
	f.Add([]byte{})
	bad := encodeEntry("k", "t", []byte("x"), 0, time.Time{})
	bad[len(bad)-1] ^= 0xff
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := parseEntryRecord(data)
		if err != nil || n != len(data) {
			return
		}
		// A structurally valid buffer must re-encode to the same bytes once
		// the body is extracted — the format is canonical.
		body := data[m.bodyOff : m.bodyOff+m.bodyLen]
		re := encodeEntry(m.Key, m.ContentType, body, m.ExecTime, m.Expires)
		// The crc field may differ (parse does not verify it); blank it on
		// both sides before comparing.
		a := append([]byte(nil), data...)
		b := append([]byte(nil), re...)
		for i := crcOffset; i < crcOffset+4; i++ {
			a[i], b[i] = 0, 0
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("parse/encode not canonical:\n in %x\nout %x", data, re)
		}
	})
}
