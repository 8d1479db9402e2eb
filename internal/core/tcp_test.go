package core

import (
	"testing"
	"time"

	"repro/internal/cgi"
	"repro/internal/httpclient"
)

// TestTwoNodeClusterOverTCP exercises the full stack — HTTP serving,
// directory broadcast, remote fetch — over real TCP on loopback, the way
// cmd/swalad deploys it.
func TestTwoNodeClusterOverTCP(t *testing.T) {
	mk := func(id uint32) *Server {
		s := New(Config{NodeID: id, Mode: Cooperative, Costs: DefaultCosts(), PurgeInterval: time.Hour})
		s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 512})
		return s
	}
	a, b := mk(1), mk(2)
	if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer a.Close()
	if err := b.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.ConnectPeer(2, b.ClusterAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(1, a.ClusterAddr()); err != nil {
		t.Fatal(err)
	}

	client := httpclient.New(nil)
	defer client.Close()

	first, err := client.Get(a.HTTPAddr(), "/cgi-bin/q?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if first.StatusCode != 200 {
		t.Fatalf("status = %d", first.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := b.Directory().Lookup("GET /cgi-bin/q?x=1", time.Now()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("broadcast never arrived over TCP")
		}
		time.Sleep(2 * time.Millisecond)
	}

	second, err := client.Get(b.HTTPAddr(), "/cgi-bin/q?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Header.Get("X-Swala-Cache"); got != "remote" {
		t.Fatalf("cache source = %q, want remote", got)
	}
	if string(second.Body) != string(first.Body) {
		t.Fatal("remote body differs over TCP")
	}
}
