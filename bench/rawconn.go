//go:build linux

package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"syscall"
	"time"
)

// rawConn is a blocking IPv4 TCP socket driven by plain read(2) and write(2).
// The load generator does not use net.Conn: a goroutine blocked in net.Conn's
// Read is woken through Go's netpoller and scheduler, which on an otherwise
// idle process put the open-loop p50 of local_hit at 480 µs and its p90 at
// 1.4 ms; the same requests on a blocking socket measure 190 µs and 320 µs.
// That difference is the instrument, not the server.
type rawConn struct{ fd int }

func dialRaw(addr string) (*rawConn, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	ip := net.ParseIP(host).To4()
	p, err := strconv.Atoi(port)
	if err != nil || ip == nil {
		return nil, fmt.Errorf("dial %s: not an IPv4 host:port", addr)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	sa := &syscall.SockaddrInet4{Port: p}
	copy(sa.Addr[:], ip)
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("connect", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("setsockopt", err)
	}
	return &rawConn{fd}, nil
}

// setTimeout bounds every later read and write: one that blocks longer fails,
// so a hung node cannot hang the benchmark.
func (c *rawConn) setTimeout(d time.Duration) error {
	tv := syscall.NsecToTimeval(int64(d))
	if err := syscall.SetsockoptTimeval(c.fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		return os.NewSyscallError("setsockopt", err)
	}
	return os.NewSyscallError("setsockopt", syscall.SetsockoptTimeval(c.fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv))
}

func (c *rawConn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, os.NewSyscallError("read", err)
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *rawConn) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Write(c.fd, p[done:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return done, os.NewSyscallError("write", err)
		}
		done += n
	}
	return done, nil
}

func (c *rawConn) Close() error { return syscall.Close(c.fd) }
