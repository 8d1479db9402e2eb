// Package httpmsg implements HTTP/1.0 and HTTP/1.1 request/response parsing
// and serialization directly over byte streams. Swala, like the 1998 paper's
// implementation, owns its entire request path from socket to CGI; this
// package is the message layer underneath both the server's request threads
// and the load generator's client connections.
//
// Supported: request lines, response status lines, headers, Content-Length
// bodies, HTTP/1.1 persistent connections and HTTP/1.0 keep-alive. Chunked
// transfer encoding is intentionally not implemented — the 1998 servers
// always knew the content length (files and tee'd CGI output).
//
// A message is read in two allocations: its head leaves the reader's buffer
// as one string, of which the start line's parts and the header's keys and
// values are substrings, and its Header is a short slice held inline.
package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Limits guarding against malformed or hostile input.
const (
	MaxRequestLineLen = 16 << 10
	MaxHeaderLen      = 8 << 10
	MaxHeaderCount    = 256
	MaxBodyLen        = 64 << 20
)

// Parse errors.
var (
	ErrMalformedRequest  = errors.New("httpmsg: malformed request")
	ErrMalformedResponse = errors.New("httpmsg: malformed response")
	ErrHeaderTooLarge    = errors.New("httpmsg: header too large")
	ErrTooManyHeaders    = errors.New("httpmsg: too many headers")
	ErrBodyTooLarge      = errors.New("httpmsg: body too large")
	ErrUnsupportedProto  = errors.New("httpmsg: unsupported protocol version")
)

// Header holds a message's header fields as key/value pairs, in the order
// they were first set. Keys are case-insensitive and stored in canonical
// Word-Word form (e.g. "Content-Length"); setting a key again replaces its
// value. The zero value is an empty header. A message carries a handful of
// fields — the clients here send one to four, the server answers with at most
// three — so a slice searched in order costs less than a map, and Request and
// Response keep the first inlineFields of them inside their own allocation.
type Header []field

type field struct{ key, value string }

const inlineFields = 4

// CanonicalKey normalizes a header name to canonical form. A name that is
// already canonical is returned as it came, without a copy.
func CanonicalKey(k string) string {
	var b []byte // made at the first byte that has to change
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case upper && 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		case !upper && 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		if c != k[i] {
			if b == nil {
				b = []byte(k)
			}
			b[i] = c
		}
		upper = c == '-'
	}
	if b == nil {
		return k
	}
	return string(b)
}

// index returns the position of the canonical key k in h, or -1.
func (h Header) index(k string) int {
	for i := range h {
		if h[i].key == k {
			return i
		}
	}
	return -1
}

// Set stores a header value under the canonical key.
func (h *Header) Set(key, value string) {
	key = CanonicalKey(key)
	if i := h.index(key); i >= 0 {
		(*h)[i].value = value
		return
	}
	*h = append(*h, field{key, value})
}

// Get returns the value for key ("" when absent).
func (h Header) Get(key string) string {
	if i := h.index(CanonicalKey(key)); i >= 0 {
		return h[i].value
	}
	return ""
}

// Del removes key.
func (h *Header) Del(key string) {
	if i := h.index(CanonicalKey(key)); i >= 0 {
		*h = slices.Delete(*h, i, i+1)
	}
}

// writeSorted writes headers in sorted key order for deterministic output.
// A contentLength >= 0 is written as Content-Length in its sorted place,
// instead of whatever h holds under that key; h is not modified. Write errors
// stay with w, which reports the first of them from Flush.
func (h Header) writeSorted(w *bufio.Writer, contentLength int) {
	const lengthKey = "Content-Length"
	setLength := contentLength >= 0
	var few [2 * inlineFields]field // the usual message carries fewer: no allocation
	fields := few[:0]
	if setLength {
		fields = append(fields, field{key: lengthKey})
	}
	for _, f := range h {
		if !setLength || f.key != lengthKey {
			fields = append(fields, f)
		}
	}
	slices.SortFunc(fields, func(a, b field) int { return strings.Compare(a.key, b.key) })
	for _, f := range fields {
		w.WriteString(f.key)
		w.WriteString(": ")
		if setLength && f.key == lengthKey {
			w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(contentLength), 10))
		} else {
			w.WriteString(f.value)
		}
		w.WriteString("\r\n")
	}
}

// Request is a parsed HTTP request.
type Request struct {
	Method string
	// URI is the raw request target, e.g. "/cgi-bin/query?zoom=3".
	URI string
	// Path is the decoded path component.
	Path string
	// Query is the raw query string (no leading '?').
	Query  string
	Proto  string // "HTTP/1.0" or "HTTP/1.1"
	Header Header
	Body   []byte
	// RemoteAddr is the client's address, set by the server for requests it
	// accepts (empty for client-constructed requests).
	RemoteAddr string

	inline [inlineFields]field // Header's first fields live here
}

// NewRequest builds a request with an empty header.
func NewRequest(method, uri string) *Request {
	r := &Request{Method: method, URI: uri, Proto: "HTTP/1.1"}
	r.Header = r.inline[:0]
	r.Path, r.Query = splitURI(uri)
	return r
}

func splitURI(uri string) (path, query string) {
	if i := strings.IndexByte(uri, '?'); i >= 0 {
		return uri[:i], uri[i+1:]
	}
	return uri, ""
}

// WantsKeepAlive reports whether the client asked for a persistent
// connection (HTTP/1.1 default, or explicit Connection: keep-alive).
func (r *Request) WantsKeepAlive() bool {
	conn := r.Header.Get("Connection")
	if r.Proto == "HTTP/1.1" {
		return !strings.EqualFold(conn, "close")
	}
	return strings.EqualFold(conn, "keep-alive")
}

// Response is a parsed or to-be-written HTTP response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string // reason phrase; derived from StatusCode when empty
	Header     Header
	Body       []byte
	// Release, when not nil, ends Body's lease (package lease); the connection
	// loop calls it once the response is written.
	Release func()

	inline [inlineFields]field // Header's first fields live here
}

// NewResponse builds a response with an empty header.
func NewResponse(code int) *Response {
	r := &Response{Proto: "HTTP/1.1", StatusCode: code}
	r.Header = r.inline[:0]
	return r
}

// StatusText returns the standard reason phrase for the status codes the
// server emits.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	case 505:
		return "HTTP Version Not Supported"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// readHead takes one message head out of r — the start line and the header
// lines, through the blank line that ends them — as a single string. The head
// is scanned where it lies in r's buffer and copied once; only a head that
// outgrows the buffer is gathered piecewise. Lines end in LF or CRLF, under
// the Max* limits. On an error the lines read whole so far come with it, so
// that a caller reports a malformed line ahead of whatever stopped the read
// behind it; io.EOF means the stream ended at a line boundary.
func readHead(r *bufio.Reader) (string, error) {
	var long []byte // whole buffers of head already taken out of r
	limit := MaxRequestLineLen
	lines := 0 // lines read whole
	// Offsets into r's buffered bytes: the current line starts at start
	// (negative once its beginning moved to long), scanned are searched.
	start, scanned := 0, 0
	take := func(n int, err error) (string, error) {
		n = max(n, 0) // the whole lines among the buffered bytes; none if the line began in long
		buf, _ := r.Peek(n)
		r.Discard(n)
		if long == nil {
			return string(buf), err
		}
		return string(append(long, buf...)), err
	}
	for {
		buf, err := r.Peek(scanned + 1) // waits for a byte not yet scanned
		switch {
		case err == nil:
			buf, _ = r.Peek(r.Buffered())
		case errors.Is(err, bufio.ErrBufferFull):
			long = append(long, buf...)
			r.Discard(len(buf))
			start, scanned = start-len(buf), 0
			continue
		case err == io.EOF && scanned > start:
			return take(start, io.ErrUnexpectedEOF)
		default:
			return take(start, err)
		}
		for {
			i := bytes.IndexByte(buf[scanned:], '\n')
			if i < 0 {
				break
			}
			end := scanned + i // of the line's content, CR included
			if end-start > limit {
				return take(start, ErrHeaderTooLarge)
			}
			blank := end == start
			if end == start+1 { // one byte of content: blank if it is a CR
				if start < 0 {
					blank = long[len(long)-1] == '\r'
				} else {
					blank = buf[start] == '\r'
				}
			}
			start, scanned = end+1, end+1
			if blank {
				return take(start, nil)
			}
			if lines++; lines > 1+MaxHeaderCount {
				return take(start, ErrTooManyHeaders)
			}
			limit = MaxHeaderLen
		}
		if scanned = len(buf); scanned-start > limit {
			return take(start, ErrHeaderTooLarge)
		}
	}
}

// cutLine splits head at its first line end, dropping the LF or CRLF. ok is
// false when head holds no whole line.
func cutLine(head string) (line, rest string, ok bool) {
	line, rest, ok = strings.Cut(head, "\n")
	return strings.TrimSuffix(line, "\r"), rest, ok
}

// parseHeaders sets h from the header lines of a head, up to the blank line
// (or the end of what readHead could read). Every line counts against
// MaxHeaderCount, a repeated name included; the last value of a name wins.
func parseHeaders(h *Header, lines string) error {
	for n := 0; ; n++ {
		line, rest, ok := cutLine(lines)
		if !ok || line == "" {
			return nil
		}
		if n >= MaxHeaderCount {
			return ErrTooManyHeaders
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok || key == "" {
			return fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
		if key = strings.TrimSpace(key); key == "" {
			return fmt.Errorf("%w: empty header name", ErrMalformedRequest)
		}
		h.Set(key, strings.TrimSpace(val))
		lines = rest
	}
}

// readRest finishes a message whose start line parsed: the header lines of
// its head into h, then whatever stopped readHead behind them, then the body.
func readRest(r *bufio.Reader, h *Header, lines string, readErr error) ([]byte, error) {
	if err := parseHeaders(h, lines); err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	return readBody(r, *h)
}

func readBody(r *bufio.Reader, h Header) ([]byte, error) {
	cl := h.Get("Content-Length")
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

// ReadRequest parses one request from r. io.EOF with no bytes read signals
// an orderly connection close between requests. The request's strings are
// substrings of its head, which is copied out of r once.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	head, readErr := readHead(r)
	line, rest, ok := cutLine(head)
	if !ok {
		return nil, readErr // not even a request line: readErr is not nil
	}
	method, target, _ := strings.Cut(line, " ")
	uri, proto, ok := strings.Cut(target, " ")
	if !ok || method == "" || uri == "" || strings.IndexByte(proto, ' ') >= 0 {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedProto, proto)
	}
	req := NewRequest(method, uri)
	req.Proto = proto
	var err error
	if req.Body, err = readRest(r, &req.Header, rest, readErr); err != nil {
		return nil, err
	}
	return req, nil
}

// WriteRequest serializes a request to w, setting Content-Length from the
// body.
func WriteRequest(w *bufio.Writer, req *Request) error {
	proto := req.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	w.WriteString(req.Method)
	w.WriteByte(' ')
	w.WriteString(req.URI)
	w.WriteByte(' ')
	w.WriteString(proto)
	w.WriteString("\r\n")
	contentLength := -1
	if len(req.Body) > 0 || req.Method == "POST" || req.Method == "PUT" {
		contentLength = len(req.Body)
	}
	req.Header.writeSorted(w, contentLength)
	w.WriteString("\r\n")
	w.Write(req.Body)
	return w.Flush()
}

// ReadResponse parses one response from r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	head, readErr := readHead(r)
	line, rest, ok := cutLine(head)
	if !ok {
		return nil, readErr
	}
	// "HTTP/1.1 200 OK" — reason phrase may contain spaces or be empty.
	proto, after, ok := strings.Cut(line, " ")
	if !ok {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedProto, proto)
	}
	codeText, status, _ := strings.Cut(after, " ")
	code, err := strconv.Atoi(codeText)
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformedResponse, codeText)
	}
	resp := NewResponse(code)
	resp.Proto, resp.Status = proto, status
	if resp.Body, err = readRest(r, &resp.Header, rest, readErr); err != nil {
		return nil, err
	}
	return resp, nil
}

// WriteResponse serializes a response to w, setting Content-Length from the
// body and defaulting the reason phrase. Status line and headers are appended
// straight into w's buffer; resp is not modified.
func WriteResponse(w *bufio.Writer, resp *Response) error {
	proto := resp.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := resp.Status
	if status == "" {
		status = StatusText(resp.StatusCode)
	}
	w.WriteString(proto)
	w.WriteByte(' ')
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(resp.StatusCode), 10))
	w.WriteByte(' ')
	w.WriteString(status)
	w.WriteString("\r\n")
	resp.Header.writeSorted(w, len(resp.Body))
	w.WriteString("\r\n")
	w.Write(resp.Body)
	return w.Flush()
}

// ParseQuery splits a raw query string into key/value pairs. Duplicate keys
// keep the first value, matching what the 1998 CGI programs expected. Plus
// signs and %XX escapes are decoded.
func ParseQuery(query string) map[string]string {
	out := make(map[string]string)
	for _, pair := range strings.Split(query, "&") {
		if pair == "" {
			continue
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		key = unescape(key)
		if _, dup := out[key]; !dup {
			out[key] = unescape(val)
		}
	}
	return out
}

func unescape(s string) string {
	if !strings.ContainsAny(s, "%+") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '+':
			b.WriteByte(' ')
		case c == '%' && i+2 < len(s):
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if ok1 && ok2 {
				b.WriteByte(hi<<4 | lo)
				i += 2
			} else {
				b.WriteByte(c)
			}
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// CanonicalKeyString builds the cache key for a request: METHOD + space +
// path + '?' + query. The paper keys the cache by the full CGI request;
// query-string parameter order is preserved because CGI programs may be
// order-sensitive.
func CanonicalKeyString(method, path, query string) string {
	if query == "" {
		return method + " " + path
	}
	return method + " " + path + "?" + query
}

// CacheKey returns the canonical cache key for req.
func (r *Request) CacheKey() string {
	return CanonicalKeyString(r.Method, r.Path, r.Query)
}

// SplitCacheKey parses a canonical cache key back into its request parts —
// the inverse of CanonicalKeyString. Cacheable requests are GETs with no
// body, so the key carries everything needed to reconstruct the request;
// the fetch pipeline uses this when a key is fetched directly (core's
// Server.Fetch) rather than arriving as an HTTP request. ok is false when
// key is not of the canonical "METHOD /path[?query]" shape.
func SplitCacheKey(key string) (method, path, query string, ok bool) {
	method, uri, found := strings.Cut(key, " ")
	if !found || method == "" || uri == "" {
		return "", "", "", false
	}
	path, query = splitURI(uri)
	return method, path, query, true
}
