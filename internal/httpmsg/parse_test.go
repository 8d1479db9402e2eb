package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The reference parser: the line-at-a-time reader ReadRequest and ReadResponse
// were built on before they took the head out of the reader's buffer in one
// piece, kept as it was but for one correction — MaxHeaderCount counts header
// lines, where it used to count distinct names. The differential test and the
// fuzz targets hold the parser to it.

func refReadLine(r *bufio.Reader, limit int) (string, error) {
	var sb strings.Builder
	for {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && sb.Len() > 0 {
				return "", io.ErrUnexpectedEOF
			}
			return "", err
		}
		if b == '\n' {
			return strings.TrimSuffix(sb.String(), "\r"), nil
		}
		if sb.Len() >= limit {
			return "", ErrHeaderTooLarge
		}
		sb.WriteByte(b)
	}
}

func refReadHeaders(r *bufio.Reader) (map[string]string, error) {
	h := make(map[string]string)
	for lines := 0; ; lines++ {
		line, err := refReadLine(r, MaxHeaderLen)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		if lines >= MaxHeaderCount {
			return nil, ErrTooManyHeaders
		}
		i := strings.IndexByte(line, ':')
		if i <= 0 {
			return nil, fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
		key := strings.TrimSpace(line[:i])
		val := strings.TrimSpace(line[i+1:])
		if key == "" {
			return nil, fmt.Errorf("%w: empty header name", ErrMalformedRequest)
		}
		h[CanonicalKey(key)] = val
	}
}

func refReadBody(r *bufio.Reader, h map[string]string) ([]byte, error) {
	cl := h["Content-Length"]
	if cl == "" {
		return nil, nil
	}
	n, err := strconv.ParseInt(cl, 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformedRequest, cl)
	}
	if n > MaxBodyLen {
		return nil, ErrBodyTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// refMessage is either kind of message as the reference parser sees it.
type refMessage struct {
	start  [3]string // method, URI, proto — or proto, code, reason
	header map[string]string
	body   []byte
}

func refReadRequest(r *bufio.Reader) (*refMessage, error) {
	line, err := refReadLine(r, MaxRequestLineLen)
	if err != nil {
		return nil, err
	}
	parts := strings.Split(line, " ")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	if proto := parts[2]; proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedProto, proto)
	}
	h, err := refReadHeaders(r)
	if err != nil {
		return nil, err
	}
	body, err := refReadBody(r, h)
	if err != nil {
		return nil, err
	}
	return &refMessage{start: [3]string(parts), header: h, body: body}, nil
}

func refReadResponse(r *bufio.Reader) (*refMessage, error) {
	line, err := refReadLine(r, MaxRequestLineLen)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	if proto := parts[0]; proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedProto, proto)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformedResponse, parts[1])
	}
	parts = append(parts, "")[:3]
	parts[1] = strconv.Itoa(code)
	h, err := refReadHeaders(r)
	if err != nil {
		return nil, err
	}
	body, err := refReadBody(r, h)
	if err != nil {
		return nil, err
	}
	return &refMessage{start: [3]string(parts), header: h, body: body}, nil
}

// sameMessage compares what the parser made of an input with what the
// reference made of it: the same error, word for word, or the same message
// with the same bytes left unread behind it.
func sameMessage(got *refMessage, gotErr error, gotRest []byte, want *refMessage, wantErr error, wantRest []byte) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		for _, class := range []error{io.EOF, io.ErrUnexpectedEOF, ErrMalformedRequest, ErrMalformedResponse,
			ErrHeaderTooLarge, ErrTooManyHeaders, ErrBodyTooLarge, ErrUnsupportedProto} {
			if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
				return fmt.Errorf("error %v is not the reference's %v to errors.Is(%v)", gotErr, wantErr, class)
			}
		}
		return nil
	}
	if got.start != want.start {
		return fmt.Errorf("start line %q, reference %q", got.start, want.start)
	}
	if len(got.header) != len(want.header) {
		return fmt.Errorf("header %v, reference %v", got.header, want.header)
	}
	for k, v := range want.header {
		if gv, ok := got.header[k]; !ok || gv != v {
			return fmt.Errorf("header %q = %q (present %v), reference %q", k, gv, ok, v)
		}
	}
	if !bytes.Equal(got.body, want.body) {
		return fmt.Errorf("body %q, reference %q", got.body, want.body)
	}
	if !bytes.Equal(gotRest, wantRest) {
		return fmt.Errorf("%d bytes left unread, reference %d", len(gotRest), len(wantRest))
	}
	return nil
}

func headerMap(t testing.TB, h Header) map[string]string {
	m := make(map[string]string, len(h))
	for _, f := range h {
		if _, dup := m[f.key]; dup || f.key != CanonicalKey(f.key) {
			t.Fatalf("parsed header %v holds %q twice or not in canonical form", h, f.key)
		}
		m[f.key] = f.value
	}
	return m
}

// readers are the ways an input reaches the parser: through the server's
// buffer, through the smallest one bufio makes (every head outgrows it), and
// one byte per fill.
func readers(data []byte) map[string]*bufio.Reader {
	return map[string]*bufio.Reader{
		"8k":      bufio.NewReaderSize(bytes.NewReader(data), 8<<10),
		"16":      bufio.NewReaderSize(bytes.NewReader(data), 16),
		"by-byte": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), 64),
	}
}

// checkRequest holds ReadRequest to the reference on one input; checkResponse
// does the same for ReadResponse.
func checkRequest(t testing.TB, data []byte) {
	ref := bufio.NewReader(bytes.NewReader(data))
	want, wantErr := refReadRequest(ref)
	wantRest, _ := io.ReadAll(ref)
	for name, r := range readers(data) {
		var got *refMessage
		req, err := ReadRequest(r)
		if err == nil {
			got = &refMessage{start: [3]string{req.Method, req.URI, req.Proto}, header: headerMap(t, req.Header), body: req.Body}
			if path, query := splitURI(req.URI); req.Path != path || req.Query != query {
				t.Fatalf("%s reader: Path %q Query %q of URI %q", name, req.Path, req.Query, req.URI)
			}
		}
		rest, _ := io.ReadAll(r)
		if err := sameMessage(got, err, rest, want, wantErr, wantRest); err != nil {
			t.Fatalf("ReadRequest, %s reader: %v\ninput %q", name, err, clip(data))
		}
	}
}

func checkResponse(t testing.TB, data []byte) {
	ref := bufio.NewReader(bytes.NewReader(data))
	want, wantErr := refReadResponse(ref)
	wantRest, _ := io.ReadAll(ref)
	for name, r := range readers(data) {
		var got *refMessage
		resp, err := ReadResponse(r)
		if err == nil {
			got = &refMessage{start: [3]string{resp.Proto, strconv.Itoa(resp.StatusCode), resp.Status}, header: headerMap(t, resp.Header), body: resp.Body}
		}
		rest, _ := io.ReadAll(r)
		if err := sameMessage(got, err, rest, want, wantErr, wantRest); err != nil {
			t.Fatalf("ReadResponse, %s reader: %v\ninput %q", name, err, clip(data))
		}
	}
}

func clip(data []byte) []byte {
	if len(data) > 300 {
		return append(append([]byte{}, data[:300]...), "..."...)
	}
	return data
}

// requestCorpus and responseCorpus seed the fuzz targets and are the
// differential test's inputs.
func requestCorpus() []string {
	long := func(n int) string { return strings.Repeat("a", n) }
	headers := func(n int, line string) string { return strings.Repeat(line, n) }
	return []string{
		"GET / HTTP/1.0\r\n\r\n",
		"GET /cgi-bin/q?a=1&b=2 HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /s HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"GET / HTTP/1.1\nConnection: close\n\n",
		"BOGUS\r\n\r\n",
		"GET / HTTP/9.9\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"GET / HTTP/1.1\r\n: empty\r\n\r\n",
		long(64) + " /x HTTP/1.0\r\n\r\n",
		"",
		"\r\n",
		"\n\nGET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1",
		"GET / HTTP/1.1\r\n",
		"GET / HTTP/1.1\r\nHost: x",
		"GET / HTTP/1.1\r\nHost: x\r\n",
		"GET  / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1 \r\n\r\n",
		" / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\rX\nA: b\n\n",
		"GET / HTTP/1.1\r\n\r\r\n\r\n",
		"GET /x? HTTP/1.1\r\n\r\nGET /y HTTP/1.0\n\n",
		// Bare LF, CRLF and both in one head.
		"GET / HTTP/1.0\nA: 1\r\nB: 2\n\r\n",
		// Duplicate and mixed-case names: the last value wins, under one key.
		"GET / HTTP/1.1\r\nx-a: 1\r\nX-A: 2\r\nX-a:3\r\n  Spaced Name  :  v  \r\ncontent-length: 2\r\nCONTENT-LENGTH: 1\r\n\r\nab",
		// One name repeated past the count: lines are what is counted.
		"GET / HTTP/1.1\r\n" + headers(MaxHeaderCount, "A: b\r\n") + "\r\nrest",
		"GET / HTTP/1.1\r\n" + headers(MaxHeaderCount+1, "A: b\r\n") + "\r\n",
		"GET / HTTP/1.1\r\n" + headers(MaxHeaderCount, "A: b\r\n") + "nocolon\r\n\r\n",
		"GET / HTTP/1.1\r\n" + headers(10, "A: b\r\n") + "nocolon\r\n" + headers(MaxHeaderCount, "A: b\r\n") + "\r\n",
		// Around the length limits, through readers smaller than the lines.
		"GET /" + long(12<<10) + " HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /" + long(17<<10) + " HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /" + long(MaxRequestLineLen-len("GET / HTTP/1.1\r")) + " HTTP/1.1\r\n\r\n",
		"GET /" + long(MaxRequestLineLen-len("GET / HTTP/1.1\r")+1) + " HTTP/1.1\r\n\r\n",
		"GET /" + long(MaxRequestLineLen-len("GET / HTTP/1.1")) + " HTTP/1.1\n\n",
		"GET / HTTP/1.1\r\nA: " + long(MaxHeaderLen-len("A: \r")) + "\r\n\r\n",
		"GET / HTTP/1.1\r\nA: " + long(MaxHeaderLen-len("A: \r")+1) + "\r\n\r\n",
		"GET / HTTP/1.1\r\nnocolon\r\nA: " + long(MaxHeaderLen) + "\r\n\r\n",
		"GET / HTTP/1.1\r\nA: " + long(MaxHeaderLen) + "\r\nnocolon\r\n\r\n",
		"GET / HTTP/1.1\r\nA: " + long(MaxHeaderLen),
		"GET /" + long(8<<10-len("GET / HTTP/1.1\r\n\r\n")) + " HTTP/1.1\r\n\r\n", // the head fills the 8 KiB reader exactly
		"GET /" + long(8<<10-len("GET / HTTP/1.1\r\n\r")) + " HTTP/1.1\r\n\r\n",   // and ends one byte past it
		"GET /" + long(8<<10-len("GET / HTTP/1.1\r")) + " HTTP/1.1\r\n\r\n",       // the CR is the buffer's last byte
		"GET / HTTP/1.1\r\nA: " + long(8<<10-len("GET / HTTP/1.1\r\nA: \r\n\r")) + "\r\n\r\nGET /next HTTP/1.1\r\n\r\n",
	}
}

func responseCorpus() []string {
	return []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.0 204\r\n\r\n",
		"HTTP/1.1 999 Weird\r\n\r\n",
		"NOPE\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 Two Words \r\nA: b\r\n\r\n",
		"HTTP/1.1 200\nA: b\na: c\n\nrest",
		"HTTP/1.1  200 OK\r\n\r\n",
		"HTTP/1.1 +200 OK\r\n\r\n",
		"HTTP/1.1\r\n\r\n",
		"HTTP/1.1 200 OK\r\n" + strings.Repeat("A: b\r\n", MaxHeaderCount+1) + "\r\n",
		"HTTP/1.1 200 " + strings.Repeat("r", 17<<10) + "\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc",
	}
}

// TestReadAgainstReference is the differential test: on every corpus input,
// and on every prefix of the short ones (a stream that ends anywhere),
// ReadRequest and ReadResponse agree with the reference line reader.
func TestReadAgainstReference(t *testing.T) {
	for _, in := range requestCorpus() {
		checkRequest(t, []byte(in))
		if len(in) < 200 {
			for cut := range in {
				checkRequest(t, []byte(in[:cut]))
			}
		}
	}
	for _, in := range responseCorpus() {
		checkResponse(t, []byte(in))
		if len(in) < 200 {
			for cut := range in {
				checkResponse(t, []byte(in[:cut]))
			}
		}
	}
}

// TestReadRequestLongLines: the limits are the protocol's, not the reader's —
// a 12 KiB request line comes whole through the server's 8 KiB reader, a
// 17 KiB one is refused.
func TestReadRequestLongLines(t *testing.T) {
	uri := "/" + strings.Repeat("u", 12<<10)
	r := bufio.NewReaderSize(strings.NewReader("GET "+uri+" HTTP/1.1\r\nHost: x\r\n\r\nGET /next HTTP/1.1\r\n\r\n"), 8<<10)
	req, err := ReadRequest(r)
	if err != nil || req.URI != uri || req.Header.Get("Host") != "x" {
		t.Fatalf("12 KiB request line: %v", err)
	}
	if req, err = ReadRequest(r); err != nil || req.URI != "/next" {
		t.Fatalf("request behind a 12 KiB one: %v", err)
	}
	r = bufio.NewReaderSize(strings.NewReader("GET /"+strings.Repeat("u", 17<<10)+" HTTP/1.1\r\n\r\n"), 8<<10)
	if _, err := ReadRequest(r); !errors.Is(err, ErrHeaderTooLarge) {
		t.Fatalf("17 KiB request line: err = %v, want ErrHeaderTooLarge", err)
	}
}

// TestReadRequestCountsHeaderLines: MaxHeaderCount bounds the lines of a
// head, so one name repeated without end cannot grow it without bound.
func TestReadRequestCountsHeaderLines(t *testing.T) {
	head := "GET / HTTP/1.1\r\n" + strings.Repeat("X-Same: v\r\n", MaxHeaderCount)
	if req, err := ReadRequest(reader(head + "\r\n")); err != nil || len(req.Header) != 1 {
		t.Fatalf("%d lines of one name: %v", MaxHeaderCount, err)
	}
	if _, err := ReadRequest(reader(head + "X-Same: v\r\n\r\n")); !errors.Is(err, ErrTooManyHeaders) {
		t.Fatalf("%d lines of one name: err = %v, want ErrTooManyHeaders", MaxHeaderCount+1, err)
	}
	// Without the blank line the read stops at the bound too.
	endless := io.MultiReader(strings.NewReader(head), neverEnding("X-Same: v\r\n"))
	if _, err := ReadRequest(bufio.NewReaderSize(endless, 8<<10)); !errors.Is(err, ErrTooManyHeaders) {
		t.Fatalf("endless header lines: err = %v, want ErrTooManyHeaders", err)
	}
}

// neverEnding repeats a string for as long as it is read.
type neverEnding string

func (s neverEnding) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		n += copy(p[n:], s)
	}
	return n, nil
}

// TestReadRequestAllocs is the parser's budget for the benchmark's request
// shape: the head as one string and the Request.
func TestReadRequestAllocs(t *testing.T) {
	const raw = "GET /cgi-bin/b?k=1&s=2048 HTTP/1.1\r\nHost: bench\r\n\r\n"
	src := strings.NewReader("")
	br := bufio.NewReaderSize(src, 8<<10)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(raw)
		br.Reset(src)
		if _, err := ReadRequest(br); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadRequest: %v allocations, budget 2", n)
	}
}
