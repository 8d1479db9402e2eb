package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Entry record format, version 1. Each record in a log segment is
// self-describing so a restarted node can rebuild its key→record index (and
// its directory table) from the segments alone, and so bit rot or truncation
// is detected before a body is ever served:
//
//	offset 0  magic   "SWLC" (4 bytes)
//	offset 4  version u8 (currently 1)
//	offset 5  crc     u32, IEEE CRC32 over every byte after this field
//	offset 9  keyLen  u32, then the canonical cache key
//	          ctLen   u32, then the content type
//	          exec    i64, CGI execution time in nanoseconds
//	          expires i64, TTL deadline as Unix nanoseconds (0 = no TTL)
//	          bodyLen u32, then the body — which ends the record
//
// All integers are big-endian. The checksum covers the meta-data fields and
// the body, so a truncated record, a torn final block, or a flipped bit
// anywhere after the magic fails verification.

// ErrCorrupt marks a record that failed structural or checksum
// verification; such records are quarantined, never served.
var ErrCorrupt = errors.New("store: corrupt entry")

const (
	entryVersion = 1
	// entryFixedSize is the encoded size of an entry with empty key, empty
	// content type, and empty body: the parse floor.
	entryFixedSize = 4 + 1 + 4 + 4 + 4 + 8 + 8 + 4
	// crcOffset is where the checksum field sits; coverage starts right
	// after it.
	crcOffset = 5
)

var entryMagic = [4]byte{'S', 'W', 'L', 'C'}

// entryMeta is the decoded header of one entry record.
type entryMeta struct {
	Key         string
	ContentType string
	ExecTime    time.Duration
	Expires     time.Time
	// bodyOff and bodyLen locate the body inside the encoded buffer.
	bodyOff int
	bodyLen int
}

// encodeEntry serializes one cache entry in format version 1.
func encodeEntry(key, contentType string, body []byte, execTime time.Duration, expires time.Time) []byte {
	n := entryFixedSize + len(key) + len(contentType) + len(body)
	buf := make([]byte, 0, n)
	buf = append(buf, entryMagic[:]...)
	buf = append(buf, entryVersion)
	buf = binary.BigEndian.AppendUint32(buf, 0) // crc placeholder
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(contentType)))
	buf = append(buf, contentType...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(execTime.Nanoseconds()))
	var exp int64
	if !expires.IsZero() {
		exp = expires.UnixNano()
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(exp))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	binary.BigEndian.PutUint32(buf[crcOffset:], crc32.ChecksumIEEE(buf[crcOffset+4:]))
	return buf
}

// errShortRecord marks a record that ends before its own declared lengths:
// either truncated, or its tail never made it to disk. In a segmented log
// this at the tail of the newest segment is a torn append (truncate, don't
// quarantine); anywhere else it is corruption. Always wrapped in ErrCorrupt.
var errShortRecord = errors.New("record shorter than its header declares")

// parseEntryRecord structurally decodes one entry record at the start of
// data — which may be followed by further records — without verifying the
// checksum. It returns the decoded meta and the record's encoded length.
// It never panics on arbitrary input (FuzzParseEntryHeader holds the shared
// parse to that); every malformation is reported as ErrCorrupt, with
// too-few-bytes cases also matching errShortRecord.
func parseEntryRecord(data []byte) (entryMeta, int, error) {
	key, ct, m, n, err := parseRecordFields(data)
	m.Key, m.ContentType = string(key), string(ct)
	return m, n, err
}

// parseRecordFields is parseEntryRecord with the key and the content type
// left as slices of data, for a reader that only compares them.
func parseRecordFields(data []byte) (key, ct []byte, m entryMeta, n int, err error) {
	if len(data) < entryFixedSize {
		return nil, nil, m, 0, fmt.Errorf("%w: %w: %d bytes, want at least %d", ErrCorrupt, errShortRecord, len(data), entryFixedSize)
	}
	if [4]byte(data[:4]) != entryMagic {
		return nil, nil, m, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if data[4] != entryVersion {
		return nil, nil, m, 0, fmt.Errorf("%w: unknown format version %d", ErrCorrupt, data[4])
	}
	off := crcOffset + 4

	// Variable-length fields; every length is checked against the remaining
	// buffer before use so a corrupt length can neither panic nor allocate.
	next := func(what string) ([]byte, error) {
		if len(data)-off < 4 {
			return nil, fmt.Errorf("%w: %w: before %s length", ErrCorrupt, errShortRecord, what)
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || n > len(data)-off {
			return nil, fmt.Errorf("%w: %w: %s length %d exceeds buffer", ErrCorrupt, errShortRecord, what, n)
		}
		b := data[off : off+n]
		off += n
		return b, nil
	}
	if key, err = next("key"); err != nil {
		return nil, nil, m, 0, err
	}
	if ct, err = next("content type"); err != nil {
		return nil, nil, m, 0, err
	}
	if len(data)-off < 16 {
		return nil, nil, m, 0, fmt.Errorf("%w: %w: meta fields", ErrCorrupt, errShortRecord)
	}
	m.ExecTime = time.Duration(binary.BigEndian.Uint64(data[off:]))
	exp := int64(binary.BigEndian.Uint64(data[off+8:]))
	if exp != 0 {
		m.Expires = time.Unix(0, exp)
	}
	off += 16
	body, err := next("body")
	if err != nil {
		return nil, nil, m, 0, err
	}
	m.bodyLen = len(body)
	m.bodyOff = off - len(body)
	return key, ct, m, off, nil
}

// decodeRecord parses and checksum-verifies the record at the start of data,
// returning its meta, body (aliasing data), and encoded length.
func decodeRecord(data []byte) (entryMeta, []byte, int, error) {
	m, n, err := parseEntryRecord(data)
	if err != nil {
		return m, nil, 0, err
	}
	if got, want := crc32.ChecksumIEEE(data[crcOffset+4:n]), binary.BigEndian.Uint32(data[crcOffset:]); got != want {
		return m, nil, n, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return m, data[m.bodyOff : m.bodyOff+m.bodyLen], n, nil
}

// verifyRecord parses and checksum-verifies data, which must hold exactly one
// record, returning its meta-data and body (aliasing data) with the key and
// the content type left as slices of data, for a reader that only compares
// them.
func verifyRecord(data []byte) (key, ct []byte, m entryMeta, body []byte, err error) {
	key, ct, m, n, err := parseRecordFields(data)
	if err == nil && n != len(data) {
		err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-n)
	}
	if err != nil {
		return nil, nil, m, nil, err
	}
	if got, want := crc32.ChecksumIEEE(data[crcOffset+4:]), binary.BigEndian.Uint32(data[crcOffset:]); got != want {
		return nil, nil, m, nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return key, ct, m, data[m.bodyOff : m.bodyOff+m.bodyLen], nil
}
