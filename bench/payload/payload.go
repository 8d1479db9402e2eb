// Package payload is the benchmark's own content generator and checksum. The
// node under test (bench/node) produces bodies with it and the load generator
// verifies every response against it, so neither side depends on the
// repository's generators (cgi.GenerateBody, content.SyntheticBody): a change
// to those cannot make a wrong body look right.
package payload

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// seed is FNV-1a over name, never zero (xorshift has a fixed point at 0).
func seed(name string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return h | 1
}

// AppendBody appends the size-byte body that belongs to name: an xorshift64
// stream seeded by the name. The bytes are a pure function of (name, size).
func AppendBody(dst []byte, name string, size int) []byte {
	x := seed(name)
	for ; size >= 8; size -= 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	for ; size > 0; size-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst = append(dst, byte(x))
	}
	return dst
}

// Body returns a fresh size-byte body for name.
func Body(name string, size int) []byte {
	return AppendBody(make([]byte, 0, size), name, size)
}

// ForQuery is the benchmark's CGI program: the body for the query string
// "k=<id>&s=<size>" is Body(query, size), a pure function of the query.
func ForQuery(query string) ([]byte, error) {
	_, s, ok := strings.Cut(query, "&s=")
	if !ok {
		return nil, fmt.Errorf("payload: no &s=<size> in query %q", query)
	}
	size, err := strconv.Atoi(s)
	if err != nil || size < 0 {
		return nil, fmt.Errorf("payload: bad size in query %q", query)
	}
	return Body(query, size), nil
}

// Sum is FNV-1a folded over little-endian 8-byte words (then the tail bytes):
// an eighth of the multiplies of byte-wise FNV, so that verifying 400 MB/s of
// static bodies does not make the load generator the bottleneck.
func Sum(b []byte) uint64 {
	h := uint64(fnvOffset)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * fnvPrime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}
