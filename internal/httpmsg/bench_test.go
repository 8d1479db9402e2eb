package httpmsg

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

const rawRequest = "GET /cgi-bin/query?zoom=3&layer=roads&session=none HTTP/1.1\r\n" +
	"Host: adl.example.edu\r\n" +
	"User-Agent: swala-loadgen/1.0\r\n" +
	"Accept: */*\r\n" +
	"Connection: keep-alive\r\n\r\n"

func BenchmarkReadRequest(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(rawRequest)))
	r := strings.NewReader("")
	br := bufio.NewReader(r)
	for i := 0; i < b.N; i++ {
		r.Reset(rawRequest)
		br.Reset(r)
		if _, err := ReadRequest(br); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteResponse(b *testing.B) {
	resp := NewResponse(200)
	resp.Header.Set("Content-Type", "text/html")
	resp.Body = make([]byte, 4096)
	benchWriteResponse(b, resp)
}

// BenchmarkWriteResponse2k is a local hit as the server writes it: 2 KiB
// body, the two headers core sets plus Content-Length.
func BenchmarkWriteResponse2k(b *testing.B) {
	resp := NewResponse(200)
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.Header.Set("X-Swala-Cache", "local")
	resp.Body = make([]byte, 2048)
	benchWriteResponse(b, resp)
}

func benchWriteResponse(b *testing.B, resp *Response) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	b.ReportAllocs()
	b.SetBytes(int64(len(resp.Body)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		bw.Reset(&buf)
		if err := WriteResponse(bw, resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheKey(b *testing.B) {
	req := NewRequest("GET", "/cgi-bin/query?zoom=3&layer=roads")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = req.CacheKey()
	}
}

func BenchmarkParseQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ParseQuery("zoom=3&layer=roads&x=34.1&y=-118.2&format=png8")
	}
}
