package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
)

// FuzzReadRequest asserts the request parser never panics, agrees with the
// reference line reader (parse_test.go) on every input through every reader,
// and that anything it accepts can be re-serialized and re-parsed to the same
// request line.
func FuzzReadRequest(f *testing.F) {
	for _, s := range requestCorpus() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequest(t, data)
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// Round-trip property on accepted input.
		var buf bytes.Buffer
		if err := WriteRequest(bufio.NewWriter(&buf), req); err != nil {
			t.Fatalf("re-serialize accepted request: %v", err)
		}
		again, err := ReadRequest(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if errors.Is(err, ErrHeaderTooLarge) && lineOverLimit(buf.Bytes()) {
			// A line at its limit grew when written back: LF became CRLF, or
			// "k:v" became "K: v".
			return
		}
		if err != nil {
			t.Fatalf("re-parse serialized request: %v", err)
		}
		if again.Method != req.Method || again.URI != req.URI || again.Proto != req.Proto {
			t.Fatalf("round trip changed request line: %+v vs %+v", again, req)
		}
		if !bytes.Equal(again.Body, req.Body) {
			t.Fatalf("round trip changed body")
		}
	})
}

// lineOverLimit reports whether a serialized message has a head line longer
// than the parser accepts.
func lineOverLimit(msg []byte) bool {
	limit := MaxRequestLineLen
	for {
		line, rest, ok := bytes.Cut(msg, []byte("\n"))
		if !ok || len(line) <= 1 { // the blank line, CR included, ends the head
			return false
		}
		if len(line) > limit {
			return true
		}
		limit, msg = MaxHeaderLen, rest
	}
}

// FuzzReadResponse asserts the response parser never panics, agrees with the
// reference line reader and accepts no status outside 100–599.
func FuzzReadResponse(f *testing.F) {
	for _, s := range responseCorpus() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResponse(t, data)
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if resp.StatusCode < 100 || resp.StatusCode > 599 {
			t.Fatalf("accepted out-of-range status %d", resp.StatusCode)
		}
	})
}

// FuzzParseQuery asserts the query parser never panics and output keys are
// unique.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{"", "a=1", "a=1&b=2", "%41=%42", "a=+x", "%%%", "a&&b", "=v"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		m := ParseQuery(q)
		for k := range m {
			_ = k
		}
	})
}
