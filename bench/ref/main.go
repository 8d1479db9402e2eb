// Command ref is the benchmark's reference server: a minimal HTTP/1.1
// keep-alive server that imports nothing from the repository under test. It
// answers GET /ref?s=<size> with the first <size> bytes of one fixed buffer,
// through net and bufio with an 8 KiB writer like the node's HTTP server, so
// that what the host does to a loopback server at some moment it does to this
// one too: the benchmark alternates between the nodes and this process and
// reports the nodes' costs as multiples of this one's (../README.md).
//
// The parent talks to it over stdio like it does to bench/node:
//
//	ref    → "addr <http>"
//	parent closes stdin → ref exits
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"strconv"

	"repro/bench/payload"
)

// maxBody is the largest body ref serves: the largest any workload asks for.
const maxBody = 1 << 20

var body = payload.Body("ref", maxBody)

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench ref:", err)
		os.Exit(1)
	}
	fmt.Printf("addr %s\n", ln.Addr())
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
	}
}

var sizeKey = []byte("?s=")

func serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 4<<10)
	bw := bufio.NewWriterSize(c, 8<<10)
	var num [20]byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		i := bytes.Index(line, sizeKey)
		if i < 0 {
			return
		}
		size := 0
		for _, d := range line[i+len(sizeKey):] {
			if d < '0' || d > '9' {
				break
			}
			size = size*10 + int(d-'0')
		}
		if size > maxBody {
			return
		}
		for {
			h, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(h) <= 2 {
				break
			}
		}
		bw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(num[:0], int64(size), 10))
		bw.WriteString("\r\n\r\n")
		bw.Write(body[:size])
		if bw.Flush() != nil {
			return
		}
	}
}
