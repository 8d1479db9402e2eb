package main

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWatchTimesOut: a node that accepts the connection but never answers
// must not hang watch; -timeout bounds every request.
func TestWatchTimesOut(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(io.Discard, c) // until swalactl hangs up
			}()
		}
	}()

	const timeout = 200 * time.Millisecond
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- run([]string{"-addr", l.Addr().String(), "-timeout", timeout.String(), "-interval", "10ms", "watch"}, io.Discard)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("watch against a silent node returned no error")
		}
		if d := time.Since(start); d > 2*timeout {
			t.Fatalf("watch gave up after %v, want within %v", d, 2*timeout)
		}
	case <-time.After(10 * timeout):
		t.Fatalf("watch still blocked after %v", 10*timeout)
	}
}

// TestStatsPrefix: stats prints the node's metric lines, filtered by name
// prefix.
func TestStatsPrefix(t *testing.T) {
	s := core.New(core.Config{NodeID: 1, Mode: core.StandAlone})
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var out bytes.Buffer
	if err := run([]string{"-addr", s.ClusterAddr(), "stats", "swala_directory_"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 3 || lines[1] != "swala_directory_local_entries 0" {
		t.Fatalf("stats swala_directory_ printed:\n%s", out.String())
	}
}
