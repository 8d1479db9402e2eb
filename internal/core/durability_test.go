package core

import (
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cgi"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/store"
)

// durableNode builds a StandAlone server over a log store rooted at dir,
// registering the synthetic CGI used by the durability tests.
func durableNode(t *testing.T, mem *netx.Mem, dir, httpAddr, cluAddr string) (*Server, *store.RecoveryReport) {
	t.Helper()
	l, rep, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Costs:         DefaultCosts(),
		NodeID:        1,
		Mode:          StandAlone,
		Store:         l,
		Recovered:     rep.Recovered,
		Network:       mem,
		PurgeInterval: time.Hour,
	})
	s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 512})
	if err := s.Start(httpAddr, cluAddr); err != nil {
		t.Fatal(err)
	}
	return s, rep
}

// TestWarmRestartServesFromRecoveredCache shuts a node down and brings a new
// process up over the same cache directory: the first request after restart
// must be a local hit with the pre-restart body.
func TestWarmRestartServesFromRecoveredCache(t *testing.T) {
	mem := netx.NewMem()
	dir := t.TempDir() + "/cache"

	s1, rep := durableNode(t, mem, dir, "wr-http-a", "wr-clu-a")
	if len(rep.Recovered) != 0 {
		t.Fatalf("fresh directory recovered %d entries", len(rep.Recovered))
	}
	client := httpclient.New(mem)
	defer client.Close()
	bodies := make(map[string]string)
	for k := 0; k < 5; k++ {
		uri := fmt.Sprintf("/cgi-bin/q?k=%d", k)
		resp, err := client.Get("wr-http-a", uri)
		if err != nil {
			t.Fatal(err)
		}
		bodies[uri] = string(resp.Body)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "New process": fresh server over the same directory.
	s2, rep := durableNode(t, mem, dir, "wr-http-b", "wr-clu-b")
	defer s2.Close()
	if len(rep.Recovered) != 5 {
		t.Fatalf("recovered %d entries, want 5", len(rep.Recovered))
	}
	if s2.Directory().LocalLen() != 5 {
		t.Fatalf("directory has %d local entries after warm restart, want 5", s2.Directory().LocalLen())
	}
	for uri, want := range bodies {
		resp, err := client.Get("wr-http-b", uri)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Swala-Cache"); got != "local" {
			t.Fatalf("%s after warm restart: cache source %q, want local", uri, got)
		}
		if string(resp.Body) != want {
			t.Fatalf("%s after warm restart: body differs from pre-restart execution", uri)
		}
	}
	snap := s2.Counters()
	if snap.Misses != 0 || snap.LocalHits != 5 {
		t.Fatalf("counters after warm restart = %+v, want 5 local hits and no misses", snap)
	}
}

// TestWarmRestartReannouncesToPeers verifies a restarted cooperative node
// re-advertises its recovered entries: a fresh peer learns about them via
// the usual replication machinery and serves them as remote hits.
func TestWarmRestartReannouncesToPeers(t *testing.T) {
	mem := netx.NewMem()
	dir := t.TempDir() + "/cache"

	// Seed the cache directory with a stand-alone run.
	s0, _ := durableNode(t, mem, dir, "ra-http-0", "ra-clu-0")
	client := httpclient.New(mem)
	defer client.Close()
	for k := 0; k < 4; k++ {
		if _, err := client.Get("ra-http-0", fmt.Sprintf("/cgi-bin/q?k=%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s0.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart cooperative over the recovered store, next to a cold peer.
	l, rep, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 4 {
		t.Fatalf("recovered %d entries, want 4", len(rep.Recovered))
	}
	a := New(Config{
		Costs:         DefaultCosts(),
		NodeID:        1,
		Mode:          Cooperative,
		Store:         l,
		Recovered:     rep.Recovered,
		Network:       mem,
		PurgeInterval: time.Hour,
	})
	a.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 512})
	if err := a.Start("ra-http-1", "ra-clu-1"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := New(Config{
		Costs:         DefaultCosts(),
		NodeID:        2,
		Mode:          Cooperative,
		Network:       mem,
		PurgeInterval: time.Hour,
	})
	b.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 512})
	if err := b.Start("ra-http-2", "ra-clu-2"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.ConnectPeer(2, "ra-clu-2"); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(1, "ra-clu-1"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for b.Directory().TotalLen() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("peer learned %d of 4 recovered entries", b.Directory().TotalLen())
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := client.Get("ra-http-2", "/cgi-bin/q?k=0")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Swala-Cache"); got != "remote" {
		t.Fatalf("peer served recovered entry from %q, want remote", got)
	}
}

// TestStorageFaultDegradesWithoutFailingRequests fills the disk (every write
// fails with ENOSPC): requests must keep succeeding uncached while the store
// reports degraded mode on the status page and over the wire.
func TestStorageFaultDegradesWithoutFailingRequests(t *testing.T) {
	mem := netx.NewMem()
	ffs := store.NewFaultFS(nil)
	l, _, err := store.OpenLog(t.TempDir()+"/cache", store.LogOptions{FS: ffs, ReprobeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Costs:         DefaultCosts(),
		NodeID:        1,
		Mode:          StandAlone,
		Store:         l,
		Network:       mem,
		PurgeInterval: time.Hour,
	})
	s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 256})
	if err := s.Start("sf-http", "sf-clu"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := httpclient.New(mem)
	defer client.Close()

	ffs.FailWrites(syscall.ENOSPC)
	for i := 0; i < 20; i++ {
		resp, err := client.Get("sf-http", fmt.Sprintf("/cgi-bin/q?k=%d", i%5))
		if err != nil {
			t.Fatalf("request %d on full disk: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("request %d status = %d, want 200", i, resp.StatusCode)
		}
	}
	st, ok := store.StatusOf(s.Store())
	if !ok || !st.Degraded || st.PutFailures == 0 {
		t.Fatalf("store status on full disk = %+v, %v", st, ok)
	}
	status, err := client.Get("sf-http", StatusPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(status.Body), "\nswala_store_degraded 1\n") {
		t.Fatal("status page does not report degraded storage")
	}
	if !strings.Contains(string(status.Body), "no space left") {
		t.Fatal("status page does not surface the write error")
	}

	// Heal the disk: the next Put after the reprobe interval recovers the
	// store and caching resumes.
	ffs.FailWrites(nil)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if _, err := client.Get("sf-http", fmt.Sprintf("/cgi-bin/q?heal=%d", i)); err != nil {
			t.Fatal(err)
		}
		if st, _ := store.StatusOf(s.Store()); !st.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never recovered after the fault healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
