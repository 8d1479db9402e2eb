package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadRequestSimple(t *testing.T) {
	req, err := ReadRequest(reader("GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.URI != "/index.html" || req.Proto != "HTTP/1.0" {
		t.Fatalf("req = %+v", req)
	}
	if req.Path != "/index.html" || req.Query != "" {
		t.Fatalf("Path/Query = %q/%q", req.Path, req.Query)
	}
	if got := req.Header.Get("host"); got != "x" {
		t.Fatalf("Host = %q, want x", got)
	}
}

func TestReadRequestQuerySplit(t *testing.T) {
	req, err := ReadRequest(reader("GET /cgi-bin/q?a=1&b=2 HTTP/1.1\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Path != "/cgi-bin/q" || req.Query != "a=1&b=2" {
		t.Fatalf("Path/Query = %q/%q", req.Path, req.Query)
	}
}

func TestReadRequestWithBody(t *testing.T) {
	req, err := ReadRequest(reader("POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "hello" {
		t.Fatalf("Body = %q, want hello", req.Body)
	}
}

func TestReadRequestBareLF(t *testing.T) {
	req, err := ReadRequest(reader("GET / HTTP/1.0\nHost: y\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Header.Get("Host") != "y" {
		t.Fatalf("Host = %q", req.Header.Get("Host"))
	}
}

func TestReadRequestErrors(t *testing.T) {
	cases := []struct {
		name, in string
		want     error
	}{
		{"empty-eof", "", io.EOF},
		{"bad-line", "GETONLY\r\n\r\n", ErrMalformedRequest},
		{"two-fields", "GET /\r\n\r\n", ErrMalformedRequest},
		{"bad-proto", "GET / HTTP/2.0\r\n\r\n", ErrUnsupportedProto},
		{"bad-header", "GET / HTTP/1.1\r\nnocolon\r\n\r\n", ErrMalformedRequest},
		{"empty-header-name", "GET / HTTP/1.1\r\n: v\r\n\r\n", ErrMalformedRequest},
		{"bad-content-length", "GET / HTTP/1.1\r\nContent-Length: nan\r\n\r\n", ErrMalformedRequest},
		{"negative-content-length", "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", ErrMalformedRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadRequest(reader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReadRequestTruncatedBody(t *testing.T) {
	_, err := ReadRequest(reader("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"))
	if err == nil {
		t.Fatal("want error for truncated body")
	}
}

func TestReadRequestHugeContentLength(t *testing.T) {
	_, err := ReadRequest(reader("POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"))
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
}

func TestReadRequestTooManyHeaders(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < MaxHeaderCount+1; i++ {
		sb.WriteString("X-H")
		sb.WriteString(strings.Repeat("a", i%5))
		sb.WriteString(itoa(i))
		sb.WriteString(": v\r\n")
	}
	sb.WriteString("\r\n")
	_, err := ReadRequest(reader(sb.String()))
	if !errors.Is(err, ErrTooManyHeaders) {
		t.Fatalf("err = %v, want ErrTooManyHeaders", err)
	}
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	if i == 0 {
		return "0"
	}
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestReadRequestLineTooLong(t *testing.T) {
	in := "GET /" + strings.Repeat("a", MaxRequestLineLen+10) + " HTTP/1.1\r\n\r\n"
	_, err := ReadRequest(reader(in))
	if !errors.Is(err, ErrHeaderTooLarge) {
		t.Fatalf("err = %v, want ErrHeaderTooLarge", err)
	}
}

func TestWriteReadRequestRoundTrip(t *testing.T) {
	in := NewRequest("GET", "/cgi-bin/query?zoom=3&layer=roads")
	in.Header.Set("Host", "example.test")
	in.Header.Set("User-Agent", "swala-loadgen/1.0")

	var buf bytes.Buffer
	if err := WriteRequest(bufio.NewWriter(&buf), in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.Method != in.Method || out.URI != in.URI || out.Path != in.Path || out.Query != in.Query {
		t.Fatalf("out = %+v, want %+v", out, in)
	}
	if out.Header.Get("Host") != "example.test" {
		t.Fatalf("Host = %q", out.Header.Get("Host"))
	}
}

func TestWriteRequestPostSetsContentLength(t *testing.T) {
	in := NewRequest("POST", "/submit")
	in.Body = []byte("abc")
	var buf bytes.Buffer
	if err := WriteRequest(bufio.NewWriter(&buf), in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Body) != "abc" {
		t.Fatalf("Body = %q", out.Body)
	}
}

func TestWriteReadResponseRoundTrip(t *testing.T) {
	in := NewResponse(200)
	in.Header.Set("Content-Type", "text/html")
	in.Body = []byte("<html>ok</html>")

	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.StatusCode != 200 || out.Status != "OK" {
		t.Fatalf("status = %d %q", out.StatusCode, out.Status)
	}
	if string(out.Body) != "<html>ok</html>" {
		t.Fatalf("Body = %q", out.Body)
	}
	if out.Header.Get("Content-Type") != "text/html" {
		t.Fatalf("Content-Type = %q", out.Header.Get("Content-Type"))
	}
}

func TestWriteResponseDoesNotMutateHeader(t *testing.T) {
	in := NewResponse(200)
	in.Body = []byte("xy")
	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), in); err != nil {
		t.Fatal(err)
	}
	if len(in.Header) != 0 {
		t.Fatal("WriteResponse mutated caller's header")
	}
}

func TestReadResponseErrors(t *testing.T) {
	cases := []struct {
		name, in string
		want     error
	}{
		{"bad-line", "HTTP/1.1\r\n\r\n", ErrMalformedResponse},
		{"bad-code", "HTTP/1.1 abc OK\r\n\r\n", ErrMalformedResponse},
		{"code-range", "HTTP/1.1 99 Low\r\n\r\n", ErrMalformedResponse},
		{"bad-proto", "SPDY/1 200 OK\r\n\r\n", ErrUnsupportedProto},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadResponse(reader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReadResponseEmptyReason(t *testing.T) {
	resp, err := ReadResponse(reader("HTTP/1.1 204\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 204 {
		t.Fatalf("code = %d", resp.StatusCode)
	}
}

func TestPersistentConnectionMultipleRequests(t *testing.T) {
	r := reader("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
	first, err := ReadRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	if first.Path != "/a" || second.Path != "/b" {
		t.Fatalf("paths = %q, %q", first.Path, second.Path)
	}
	if _, err := ReadRequest(r); err != io.EOF {
		t.Fatalf("third read err = %v, want io.EOF", err)
	}
}

func TestWantsKeepAlive(t *testing.T) {
	cases := []struct {
		proto, conn string
		want        bool
	}{
		{"HTTP/1.1", "", true},
		{"HTTP/1.1", "close", false},
		{"HTTP/1.1", "keep-alive", true},
		{"HTTP/1.0", "", false},
		{"HTTP/1.0", "keep-alive", true},
		{"HTTP/1.0", "Keep-Alive", true},
		{"HTTP/1.1", "CLOSE", false},
		{"HTTP/1.0", "close", false},
	}
	for _, tc := range cases {
		req := NewRequest("GET", "/")
		req.Proto = tc.proto
		if tc.conn != "" {
			req.Header.Set("Connection", tc.conn)
		}
		if got := req.WantsKeepAlive(); got != tc.want {
			t.Fatalf("%s conn=%q: WantsKeepAlive = %v, want %v", tc.proto, tc.conn, got, tc.want)
		}
	}
}

func TestHeaderCanonicalization(t *testing.T) {
	cases := map[string]string{
		"content-length": "Content-Length",
		"CONTENT-TYPE":   "Content-Type",
		"x-my-header":    "X-My-Header",
		"Already-Good":   "Already-Good",
		"a":              "A",
	}
	for in, want := range cases {
		if got := CanonicalKey(in); got != want {
			t.Fatalf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeaderSetGetDel(t *testing.T) {
	var h Header
	h.Set("content-type", "text/plain")
	h.Set("X-A", "1")
	h.Set("CONTENT-TYPE", "text/html")
	if got := h.Get("Content-type"); got != "text/html" || len(h) != 2 {
		t.Fatalf("Get = %q of %v, want the second value under one key", got, h)
	}
	h.Del("Content-Type")
	if got := h.Get("content-type"); got != "" || h.Get("x-a") != "1" || len(h) != 1 {
		t.Fatalf("after Del, Get = %q of %v", got, h)
	}
	h.Del("absent")

	// The inline room is the message's own: a fifth field moves the header
	// out of it, and two messages never share fields.
	a, b := NewResponse(200), NewResponse(200)
	for i := 0; i < inlineFields+2; i++ {
		a.Header.Set("X-"+strconv.Itoa(i), "a")
		b.Header.Set("X-"+strconv.Itoa(i), "b")
	}
	for i := 0; i < inlineFields+2; i++ {
		if a.Header.Get("x-"+strconv.Itoa(i)) != "a" || b.Header.Get("x-"+strconv.Itoa(i)) != "b" {
			t.Fatalf("field %d: a=%v b=%v", i, a.Header, b.Header)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		r := NewResponse(200)
		r.Header.Set("Content-Type", "text/html")
		r.Header.Set("X-Swala-Cache", "local")
		r.Header.Set("Connection", "close")
	}); n > 1 {
		t.Errorf("a response with three fields costs %v allocations, want its own one", n)
	}
}

// rawHeader builds a header of the pairs as given: no canonical form, no
// order, no merging of a repeated key.
func rawHeader(kv ...string) Header {
	h := Header{}
	for i := 0; i < len(kv); i += 2 {
		h = append(h, field{kv[i], kv[i+1]})
	}
	return h
}

func TestParseQuery(t *testing.T) {
	got := ParseQuery("a=1&b=two+words&c=%41%42&d&a=dup")
	want := map[string]string{"a": "1", "b": "two words", "c": "AB", "d": ""}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestParseQueryMalformedEscape(t *testing.T) {
	got := ParseQuery("x=%zz&y=%4")
	if got["x"] != "%zz" || got["y"] != "%4" {
		t.Fatalf("got %v", got)
	}
}

func TestCacheKey(t *testing.T) {
	req := NewRequest("GET", "/cgi-bin/q?b=2&a=1")
	if got := req.CacheKey(); got != "GET /cgi-bin/q?b=2&a=1" {
		t.Fatalf("CacheKey = %q", got)
	}
	noQuery := NewRequest("GET", "/cgi-bin/q")
	if got := noQuery.CacheKey(); got != "GET /cgi-bin/q" {
		t.Fatalf("CacheKey = %q", got)
	}
}

func TestCacheKeyDistinguishesQueryOrder(t *testing.T) {
	a := NewRequest("GET", "/q?a=1&b=2").CacheKey()
	b := NewRequest("GET", "/q?b=2&a=1").CacheKey()
	if a == b {
		t.Fatal("cache key must preserve parameter order (CGI programs may be order-sensitive)")
	}
}

func TestStatusText(t *testing.T) {
	if got := StatusText(200); got != "OK" {
		t.Fatalf("StatusText(200) = %q", got)
	}
	if got := StatusText(418); got != "Status 418" {
		t.Fatalf("StatusText(418) = %q", got)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(rawPath, rawQuery []byte) bool {
		path := "/" + sanitizeToken(rawPath)
		query := sanitizeToken(rawQuery)
		uri := path
		if query != "" {
			uri += "?" + query
		}
		in := NewRequest("GET", uri)
		var buf bytes.Buffer
		if err := WriteRequest(bufio.NewWriter(&buf), in); err != nil {
			return false
		}
		out, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return out.Path == path && out.Query == query && out.Method == "GET"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sanitizeToken maps arbitrary bytes to URI-safe characters so that the
// property test explores many shapes without leaving the valid input space.
func sanitizeToken(raw []byte) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_.=&"
	var b strings.Builder
	for _, c := range raw {
		b.WriteByte(alphabet[int(c)%len(alphabet)])
	}
	return b.String()
}

// TestWriteResponseGolden pins WriteResponse's bytes on the wire to what the
// fmt- and Clone-based serialiser before it wrote: sorted keys, Content-Length
// merged in order and always the body's, keys emitted as the header holds them.
func TestWriteResponseGolden(t *testing.T) {
	twelve := rawHeader(
		"X-Swala-Cache", "local", "Vary", "*", "Accept-Ranges", "bytes", "Age", "0", "Cache-Control", "no-cache", "Connection", "close",
		"Content-Type", "text/html", "Date", "Thu, 01 Jan 1998 00:00:00 GMT", "Etag", `"x"`, "Expires", "0",
		"Last-Modified", "never", "Server", "swala",
	)
	cases := []struct {
		name string
		resp *Response
		want string
	}{
		{"no headers", &Response{Proto: "HTTP/1.1", StatusCode: 200, Header: Header{}, Body: []byte("hi")},
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"},
		{"nil header, default proto", &Response{StatusCode: 404, Body: []byte("gone\n")},
			"HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n\r\ngone\n"},
		{"one header", &Response{Proto: "HTTP/1.0", StatusCode: 200, Header: rawHeader("Content-Type", "text/html"), Body: []byte("hello")},
			"HTTP/1.0 200 OK\r\nContent-Length: 5\r\nContent-Type: text/html\r\n\r\nhello"},
		{"three headers", &Response{Proto: "HTTP/1.1", StatusCode: 200,
			Header: rawHeader("X-Swala-Cache", "local", "Content-Type", "application/octet-stream", "Connection", "close"), Body: []byte("abc")},
			"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\nContent-Type: application/octet-stream\r\nX-Swala-Cache: local\r\n\r\nabc"},
		{"twelve headers", &Response{Proto: "HTTP/1.1", StatusCode: 503, Header: twelve, Body: []byte("busy")},
			"HTTP/1.1 503 Service Unavailable\r\nAccept-Ranges: bytes\r\nAge: 0\r\nCache-Control: no-cache\r\nConnection: close\r\n" +
				"Content-Length: 4\r\nContent-Type: text/html\r\nDate: Thu, 01 Jan 1998 00:00:00 GMT\r\nEtag: \"x\"\r\nExpires: 0\r\n" +
				"Last-Modified: never\r\nServer: swala\r\nVary: *\r\nX-Swala-Cache: local\r\n\r\nbusy"},
		{"caller-set Content-Length", &Response{Proto: "HTTP/1.1", StatusCode: 200, Header: rawHeader("Content-Length", "999", "A", "1"), Body: []byte("abc")},
			"HTTP/1.1 200 OK\r\nA: 1\r\nContent-Length: 3\r\n\r\nabc"},
		{"empty body", &Response{Proto: "HTTP/1.1", StatusCode: 204, Header: rawHeader("Server", "swala")},
			"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\nServer: swala\r\n\r\n"},
		{"non-canonical keys, own reason phrase", &Response{Proto: "HTTP/1.1", StatusCode: 299, Status: "Odd",
			Header: rawHeader("x-raw", "v", "content-length", "7", "Zed", "z"), Body: []byte("q")},
			"HTTP/1.1 299 Odd\r\nContent-Length: 1\r\nZed: z\r\ncontent-length: 7\r\nx-raw: v\r\n\r\nq"},
		{"unknown status code", &Response{Proto: "HTTP/1.1", StatusCode: 299, Header: Header{}},
			"HTTP/1.1 299 Status 299\r\nContent-Length: 0\r\n\r\n"},
	}
	for _, tc := range cases {
		before := slices.Clone(tc.resp.Header)
		var buf bytes.Buffer
		if err := WriteResponse(bufio.NewWriter(&buf), tc.resp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		if !slices.Equal(tc.resp.Header, before) {
			t.Errorf("%s: WriteResponse changed the caller's header to %v", tc.name, tc.resp.Header)
		}
	}
}

// TestWriteResponseReportsWriteError: the serialiser leaves write errors to
// the bufio.Writer, which must still hand the first one back.
func TestWriteResponseReportsWriteError(t *testing.T) {
	resp := NewResponse(200)
	resp.Body = make([]byte, 64<<10) // larger than the buffer: reaches the sink
	if err := WriteResponse(bufio.NewWriter(failingWriter{}), resp); !errors.Is(err, errSinkFull) {
		t.Fatalf("WriteResponse into a failing sink = %v, want errSinkFull", err)
	}
}

var errSinkFull = errors.New("sink full")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errSinkFull }

func TestCanonicalKey(t *testing.T) {
	for in, want := range map[string]string{
		"content-length": "Content-Length", "CONTENT-TYPE": "Content-Type", "x-swala-cache": "X-Swala-Cache",
		"Content-Length": "Content-Length", "": "", "a": "A", "-a-": "-A-", "X--y": "X--Y",
	} {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { CanonicalKey("X-Swala-Cache") }); n != 0 {
		t.Errorf("CanonicalKey of a canonical name allocates %v times", n)
	}
}
