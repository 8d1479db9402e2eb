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
package httpmsg

import (
	"bufio"
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

// Header is a case-insensitive HTTP header map. Keys are stored in canonical
// Word-Word form (e.g. "Content-Length").
type Header map[string]string

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

// Set stores a header value under the canonical key.
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = value }

// Get returns the value for key ("" when absent).
func (h Header) Get(key string) string { return h[CanonicalKey(key)] }

// Del removes key.
func (h Header) Del(key string) { delete(h, CanonicalKey(key)) }

// writeSorted writes headers in sorted key order for deterministic output.
// A contentLength >= 0 is written as Content-Length in its sorted place,
// instead of whatever h holds under that key; h is not modified. Write errors
// stay with w, which reports the first of them from Flush.
func (h Header) writeSorted(w *bufio.Writer, contentLength int) {
	const lengthKey = "Content-Length"
	setLength := contentLength >= 0
	var few [8]string // the usual response carries fewer: no allocation
	keys := few[:0]
	if setLength {
		keys = append(keys, lengthKey)
	}
	for k := range h {
		if !setLength || k != lengthKey {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.WriteString(k)
		w.WriteString(": ")
		if setLength && k == lengthKey {
			w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(contentLength), 10))
		} else {
			w.WriteString(h[k])
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
}

// NewRequest builds a request with an initialized header map.
func NewRequest(method, uri string) *Request {
	r := &Request{Method: method, URI: uri, Proto: "HTTP/1.1", Header: make(Header)}
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
	conn := strings.ToLower(r.Header.Get("Connection"))
	switch r.Proto {
	case "HTTP/1.1":
		return conn != "close"
	default:
		return conn == "keep-alive"
	}
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
}

// NewResponse builds a response with an initialized header map.
func NewResponse(code int) *Response {
	return &Response{Proto: "HTTP/1.1", StatusCode: code, Header: make(Header)}
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

// readLine reads a CRLF- (or bare LF-) terminated line with a length cap.
func readLine(r *bufio.Reader, limit int) (string, error) {
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
			s := sb.String()
			return strings.TrimSuffix(s, "\r"), nil
		}
		if sb.Len() >= limit {
			return "", ErrHeaderTooLarge
		}
		sb.WriteByte(b)
	}
}

func readHeaders(r *bufio.Reader) (Header, error) {
	h := make(Header)
	for {
		line, err := readLine(r, MaxHeaderLen)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		if len(h) >= MaxHeaderCount {
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
		h.Set(key, val)
	}
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
// an orderly connection close between requests.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := readLine(r, MaxRequestLineLen)
	if err != nil {
		return nil, err
	}
	parts := strings.Split(line, " ")
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	method, uri, proto := parts[0], parts[1], parts[2]
	if method == "" || uri == "" {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedProto, proto)
	}
	h, err := readHeaders(r)
	if err != nil {
		return nil, err
	}
	body, err := readBody(r, h)
	if err != nil {
		return nil, err
	}
	req := &Request{Method: method, URI: uri, Proto: proto, Header: h, Body: body}
	req.Path, req.Query = splitURI(uri)
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
	line, err := readLine(r, MaxRequestLineLen)
	if err != nil {
		return nil, err
	}
	// "HTTP/1.1 200 OK" — reason phrase may contain spaces or be empty.
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	proto := parts[0]
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedProto, proto)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformedResponse, parts[1])
	}
	status := ""
	if len(parts) == 3 {
		status = parts[2]
	}
	h, err := readHeaders(r)
	if err != nil {
		return nil, err
	}
	body, err := readBody(r, h)
	if err != nil {
		return nil, err
	}
	return &Response{Proto: proto, StatusCode: code, Status: status, Header: h, Body: body}, nil
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
