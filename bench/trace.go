//go:build linux

package main

import (
	"bufio"
	"os"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval: name, start, end, the span that caused it and
// the request it belongs to. Ids count from 1; parent 0 is "none".
type span struct {
	name       string
	parent     int32
	req        int64
	start, end int64 // ns since the log's epoch
}

// spanLog keeps spans in memory until the benchmark ends. The benchmark's
// own files record them around their calls into each layer; spans inside the
// program are a later change.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int, req int64, start, end time.Time) int {
	l.mu.Lock()
	l.spans = append(l.spans, span{name, int32(parent), req, int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch))})
	id := len(l.spans)
	l.mu.Unlock()
	return id
}

// setEnd closes span id, which was added before its children ran.
func (l *spanLog) setEnd(id int, end time.Time) {
	l.mu.Lock()
	l.spans[id-1].end = int64(end.Sub(l.epoch))
	l.mu.Unlock()
}

// writeFile writes one JSON object per span, in recording order.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i, s := range l.spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, s.req, 10)
		b = append(b, `,"name":"`...)
		b = append(b, s.name...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nestedShare is the share of parent spans whose children's durations sum to
// no more than the parent's own: the check that self time (parent minus
// children) is never negative.
func (l *spanLog) nestedShare() float64 {
	childSum := make(map[int32]int64)
	for _, s := range l.spans {
		if s.parent != 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	if len(childSum) == 0 {
		return 1
	}
	ok := 0
	for id, sum := range childSum {
		p := l.spans[id-1]
		if sum <= p.end-p.start {
			ok++
		}
	}
	return float64(ok) / float64(len(childSum))
}
