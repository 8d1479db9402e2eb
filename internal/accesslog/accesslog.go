// Package accesslog reads and writes the server's access log in an extended
// Common Log Format. Section 3 of the paper is an access-log study; this
// package closes the loop: a Swala node can log every request it serves
// (with service time and cache outcome), and cmd/loganalyze can run the
// Table 1 analysis directly on such a log.
//
// Line format (Common Log Format plus two fields):
//
//	host - - [02/Jan/2006:15:04:05 -0700] "GET /uri HTTP/1.0" 200 2326 0.031250 local
//
// The trailing fields are the service time in seconds and the cache outcome
// (one of "-", "local", "remote", "executed").
package accesslog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TimeLayout is the CLF timestamp layout.
const TimeLayout = "02/Jan/2006:15:04:05 -0700"

// Entry is one logged request.
type Entry struct {
	RemoteHost string
	Time       time.Time
	Method     string
	URI        string
	Proto      string
	Status     int
	Bytes      int
	// Duration is the server-side service time.
	Duration time.Duration
	// CacheSource is how a CGI request was served, as the X-Swala-Cache
	// response header names it: "local", "remote", "replica", "owner",
	// "coalesced", "stale-revalidate" or "stale-overload"; "executed" for a
	// CGI the node ran itself; "" for static files and errors.
	CacheSource string
}

// Key returns the cache-style identity of the request (METHOD + URI),
// matching httpmsg.CacheKey for GET requests.
func (e Entry) Key() string { return e.Method + " " + e.URI }

// Dynamic reports whether the request looks like a dynamic (CGI) request.
func (e Entry) Dynamic() bool {
	return strings.Contains(e.URI, "/cgi-bin/") || e.CacheSource != "" && e.CacheSource != "-"
}

// Writer appends log entries to an io.Writer. It is safe for concurrent use
// and buffers internally; call Flush (or Close) to drain.
type Writer struct {
	mu sync.Mutex
	bw *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Log appends one entry.
func (w *Writer) Log(e Entry) error {
	host := e.RemoteHost
	if host == "" {
		host = "-"
	}
	src := e.CacheSource
	if src == "" {
		src = "-"
	}
	ts := e.Time
	if ts.IsZero() {
		ts = time.Now()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := fmt.Fprintf(w.bw, "%s - - [%s] %q %d %d %.6f %s\n",
		host, ts.Format(TimeLayout),
		fmt.Sprintf("%s %s %s", e.Method, e.URI, e.Proto),
		e.Status, e.Bytes, e.Duration.Seconds(), src)
	return err
}

// Flush drains the buffer.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

// ParseLine parses one log line.
func ParseLine(line string) (Entry, error) {
	var e Entry

	// host - - [timestamp] "request" status bytes [duration [source]]
	rest := line
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return e, fmt.Errorf("accesslog: truncated line %q", line)
	}
	e.RemoteHost = rest[:sp]

	lb := strings.IndexByte(rest, '[')
	rb := strings.IndexByte(rest, ']')
	if lb < 0 || rb < lb {
		return e, fmt.Errorf("accesslog: missing timestamp in %q", line)
	}
	ts, err := time.Parse(TimeLayout, rest[lb+1:rb])
	if err != nil {
		return e, fmt.Errorf("accesslog: bad timestamp in %q: %v", line, err)
	}
	e.Time = ts
	rest = rest[rb+1:]

	lq := strings.IndexByte(rest, '"')
	if lq < 0 {
		return e, fmt.Errorf("accesslog: missing request in %q", line)
	}
	rq := strings.IndexByte(rest[lq+1:], '"')
	if rq < 0 {
		return e, fmt.Errorf("accesslog: unterminated request in %q", line)
	}
	reqLine := rest[lq+1 : lq+1+rq]
	parts := strings.Split(reqLine, " ")
	if len(parts) != 3 {
		return e, fmt.Errorf("accesslog: bad request %q", reqLine)
	}
	e.Method, e.URI, e.Proto = parts[0], parts[1], parts[2]
	rest = strings.TrimSpace(rest[lq+1+rq+1:])

	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return e, fmt.Errorf("accesslog: missing status/bytes in %q", line)
	}
	if e.Status, err = strconv.Atoi(fields[0]); err != nil {
		return e, fmt.Errorf("accesslog: bad status in %q", line)
	}
	if e.Bytes, err = strconv.Atoi(fields[1]); err != nil {
		return e, fmt.Errorf("accesslog: bad bytes in %q", line)
	}
	if len(fields) >= 3 {
		secs, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || math.IsNaN(secs) || math.IsInf(secs, 0) || secs < 0 {
			return e, fmt.Errorf("accesslog: bad duration in %q", line)
		}
		// The writer prints six decimals; round to the printed precision so
		// durations survive a write/parse round trip exactly.
		e.Duration = time.Duration(math.Round(secs*1e6)) * time.Microsecond
	}
	if len(fields) >= 4 && fields[3] != "-" {
		e.CacheSource = fields[3]
	}
	return e, nil
}

// Parse reads a whole log. Blank lines and '#' comments are skipped.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	return out, scanner.Err()
}
