package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/accesslog"
	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/store"
)

// TestDiskStoreEndToEnd runs the server over the log store on disk, as
// swalad -cachedir does, and verifies the insert lands in a segment and the
// hit is served from it.
func TestDiskStoreEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mem := netx.NewMem()
	s := New(Config{
		Costs:         DefaultCosts(),
		NodeID:        1,
		Mode:          StandAlone,
		Store:         l,
		Network:       mem,
		PurgeInterval: time.Hour,
	})
	s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 1024})
	if err := s.Start("http", "clu"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	client := httpclient.New(mem)
	defer client.Close()

	first, err := client.Get("http", "/cgi-bin/q?a=1")
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "seg-1.log" || l.Len() != 1 {
		t.Fatalf("cache files on disk = %v with %d entries, want one segment with 1", files, l.Len())
	}

	second, err := client.Get("http", "/cgi-bin/q?a=1")
	if err != nil {
		t.Fatal(err)
	}
	if second.Header.Get("X-Swala-Cache") != "local" {
		t.Fatal("second request missed")
	}
	if string(second.Body) != string(first.Body) {
		t.Fatal("log-cached body differs from executed body")
	}
}

// TestRealSubprocessCGIThroughServer drives a real executable through the
// full HTTP + cache pipeline.
func TestRealSubprocessCGIThroughServer(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("/bin/sh not available")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "date.cgi")
	// The script emits a nanosecond timestamp: two executions produce
	// different bodies, so a byte-identical second response proves the
	// result came from the cache.
	content := "#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\n'\ndate +%s%N\n"
	if err := os.WriteFile(script, []byte(content), 0o755); err != nil {
		t.Fatal(err)
	}

	mem := netx.NewMem()
	s := New(Config{NodeID: 1, Mode: StandAlone, Costs: DefaultCosts(), Network: mem, PurgeInterval: time.Hour})
	s.CGI().Register("/cgi-bin/date", &cgi.Exec{Path: script})
	if err := s.Start("http", "clu"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	client := httpclient.New(mem)
	defer client.Close()
	first, err := client.Get("http", "/cgi-bin/date?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if first.StatusCode != 200 || len(first.Body) == 0 {
		t.Fatalf("first = %d %q", first.StatusCode, first.Body)
	}
	second, err := client.Get("http", "/cgi-bin/date?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if second.Header.Get("X-Swala-Cache") != "local" {
		t.Fatal("second request executed instead of hitting the cache")
	}
	if string(second.Body) != string(first.Body) {
		t.Fatal("cached body differs (timestamp regenerated => not cached)")
	}
}

// TestPurgeDaemonRuns verifies the background purge daemon deletes expired
// entries without explicit PurgeExpired calls.
func TestPurgeDaemonRuns(t *testing.T) {
	mem := netx.NewMem()
	pol := cacheability.CacheAll(30 * time.Millisecond)
	s := New(Config{
		Costs:         DefaultCosts(),
		NodeID:        1,
		Mode:          StandAlone,
		Network:       mem,
		Cacheability:  pol,
		PurgeInterval: 10 * time.Millisecond,
	})
	s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 64})
	if err := s.Start("http", "clu"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	client := httpclient.New(mem)
	defer client.Close()
	if _, err := client.Get("http", "/cgi-bin/q?a=1"); err != nil {
		t.Fatal(err)
	}
	if s.Directory().LocalLen() != 1 {
		t.Fatal("entry not cached")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Directory().LocalLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("purge daemon never removed the expired entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAccessLogging verifies that every served request produces a parseable
// extended-CLF entry with the right cache outcome.
func TestAccessLogging(t *testing.T) {
	var buf bytes.Buffer
	logW := accesslog.NewWriter(&buf)
	mem := netx.NewMem()
	s := New(Config{
		Costs:         DefaultCosts(),
		NodeID:        1,
		Mode:          StandAlone,
		Network:       mem,
		PurgeInterval: time.Hour,
		AccessLog:     logW,
	})
	s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 64})
	s.Files().AddSynthetic("/page.html", 100)
	if err := s.Start("al-http", "al-clu"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	client := httpclient.New(mem)
	defer client.Close()
	for _, uri := range []string{"/page.html", "/cgi-bin/q?a=1", "/cgi-bin/q?a=1", "/missing"} {
		if _, err := client.Get("al-http", uri); err != nil {
			t.Fatal(err)
		}
	}
	if err := logW.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := accesslog.Parse(&buf)
	if err != nil {
		t.Fatalf("server produced unparseable log: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	if entries[0].CacheSource != "" || entries[0].Status != 200 {
		t.Fatalf("file entry = %+v", entries[0])
	}
	if entries[1].CacheSource != "executed" {
		t.Fatalf("first CGI entry = %+v, want executed", entries[1])
	}
	if entries[2].CacheSource != "local" {
		t.Fatalf("second CGI entry = %+v, want local", entries[2])
	}
	if entries[3].Status != 404 {
		t.Fatalf("missing entry = %+v, want 404", entries[3])
	}
	for i, e := range entries[:3] {
		if e.Duration <= 0 {
			t.Fatalf("entry %d has no duration: %+v", i, e)
		}
		if e.RemoteHost == "" {
			t.Fatalf("entry %d missing remote host", i)
		}
	}
}

// TestPeerCrashFallback kills the owning node mid-stream: the survivor's
// remote fetches fail and every request must still be answered by falling
// back to local execution (Figure 2's error path).
func TestPeerCrashFallback(t *testing.T) {
	mem := netx.NewMem()
	mk := func(id uint32) *Server {
		s := New(Config{
			Costs:         DefaultCosts(),
			NodeID:        id,
			Mode:          Cooperative,
			Network:       mem,
			PurgeInterval: time.Hour,
			FetchTimeout:  200 * time.Millisecond,
		})
		s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 128})
		if err := s.Start(fmt.Sprintf("fc-http-%d", id), fmt.Sprintf("fc-clu-%d", id)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(1), mk(2)
	defer a.Close()
	if err := a.ConnectPeer(2, "fc-clu-2"); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(1, "fc-clu-1"); err != nil {
		t.Fatal(err)
	}

	client := httpclient.New(mem)
	defer client.Close()

	// Warm node 2 so node 1 learns about the entry.
	if _, err := client.Get("fc-http-2", "/cgi-bin/q?k=1"); err != nil {
		t.Fatal(err)
	}
	key := "GET /cgi-bin/q?k=1"
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := a.Directory().Lookup(key, time.Now()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("broadcast never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	// Crash node 2. Node 1 still believes node 2 owns the entry.
	b.Close()

	// Every subsequent request to node 1 must succeed (fallback execution),
	// and eventually node 1 caches its own copy.
	for i := 0; i < 3; i++ {
		resp, err := client.Get("fc-http-1", "/cgi-bin/q?k=1")
		if err != nil {
			t.Fatalf("request %d after peer crash: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("request %d status = %d", i, resp.StatusCode)
		}
	}
	snap := a.Counters()
	if snap.Misses == 0 {
		t.Fatalf("counters = %+v; expected fallback executions", snap)
	}
	// Node 1 now owns a local copy; requests hit locally.
	resp, err := client.Get("fc-http-1", "/cgi-bin/q?k=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Swala-Cache"); got != "local" {
		t.Fatalf("cache source after recovery = %q, want local", got)
	}
}

// TestEightNodeClusterSmoke spins up the paper's full eight-node group and
// pushes a mixed workload through it.
func TestEightNodeClusterSmoke(t *testing.T) {
	mem := netx.NewMem()
	const n = 8
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		s := New(Config{
			Costs:         DefaultCosts(),
			NodeID:        uint32(i + 1),
			Mode:          Cooperative,
			Network:       mem,
			PurgeInterval: time.Hour,
			FetchTimeout:  5 * time.Second,
		})
		s.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 256})
		if err := s.Start(fmt.Sprintf("http-%d", i+1), fmt.Sprintf("clu-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers[i] = s
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := servers[i].ConnectPeer(uint32(j+1), fmt.Sprintf("clu-%d", j+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	client := httpclient.New(mem)
	defer client.Close()

	// Issue 10 distinct requests to node 1 so it owns all entries, wait for
	// propagation, then read each from every other node.
	for k := 0; k < 10; k++ {
		if _, err := client.Get("http-1", fmt.Sprintf("/cgi-bin/q?k=%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ready := true
		for i := 1; i < n; i++ {
			if servers[i].Directory().TotalLen() < 10 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("directory replication incomplete after 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i := 1; i < n; i++ {
		for k := 0; k < 10; k++ {
			resp, err := client.Get(fmt.Sprintf("http-%d", i+1), fmt.Sprintf("/cgi-bin/q?k=%d", k))
			if err != nil {
				t.Fatalf("node %d key %d: %v", i+1, k, err)
			}
			if got := resp.Header.Get("X-Swala-Cache"); got != "remote" {
				t.Fatalf("node %d key %d: cache source %q, want remote", i+1, k, got)
			}
		}
	}
	// Node 1 served 7*10 remote fetches; its entries' hit counts reflect it.
	totalHits := int64(0)
	for _, e := range servers[0].Directory().SnapshotLocal() {
		totalHits += e.Hits
	}
	if totalHits != 70 {
		t.Fatalf("owner hit count = %d, want 70", totalHits)
	}
}
