package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/directory"
	"repro/internal/httpclient"
	"repro/internal/httpmsg"
	"repro/internal/netx"
	"repro/internal/replacement"
)

// harness bundles a test cluster and a client.
type harness struct {
	mem     *netx.Mem
	servers []*Server
	client  *httpclient.Client
}

func (h *harness) addr(i int) string { return fmt.Sprintf("http-%d", i+1) }

func (h *harness) get(t *testing.T, node int, uri string) *httpmsg.Response {
	t.Helper()
	resp, err := h.client.Get(h.addr(node), uri)
	if err != nil {
		t.Fatalf("GET %s on node %d: %v", uri, node+1, err)
	}
	return resp
}

// startCluster builds n connected servers over the in-memory network.
func startCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) *harness {
	t.Helper()
	mem := netx.NewMem()
	h := &harness{mem: mem, client: httpclient.New(mem)}
	t.Cleanup(func() { h.client.Close() })

	for i := 0; i < n; i++ {
		cfg := Config{
			NodeID:       uint32(i + 1),
			Mode:         Cooperative,
			Network:      mem,
			FetchTimeout: 2 * time.Second,
			// Long purge interval so tests control expiry explicitly.
			PurgeInterval: time.Hour,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := New(cfg)
		if err := s.Start(fmt.Sprintf("http-%d", i+1), fmt.Sprintf("clu-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		h.servers = append(h.servers, s)
		t.Cleanup(func() { s.Close() })
	}
	for i := 0; i < n; i++ {
		if h.servers[i].cfg.Mode != Cooperative {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || h.servers[j].cfg.Mode != Cooperative {
				continue
			}
			if err := h.servers[i].ConnectPeer(uint32(j+1), fmt.Sprintf("clu-%d", j+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h
}

func registerNullCGI(s *Server) {
	s.CGI().Register("/cgi-bin/null", &cgi.Synthetic{OutputSize: 64})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStaticFileServing(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	s.Files().AddSynthetic("/index.html", 500)

	resp := h.get(t, 0, "/index.html")
	if resp.StatusCode != 200 || len(resp.Body) != 500 {
		t.Fatalf("resp = %d, %d bytes", resp.StatusCode, len(resp.Body))
	}
	if resp.Header.Get("Content-Type") != "text/html" {
		t.Fatalf("content type = %q", resp.Header.Get("Content-Type"))
	}
	// Files are never cached.
	if snap := s.Counters(); snap.Lookups() != 0 {
		t.Fatalf("file fetch touched the cache: %+v", snap)
	}
}

func TestNotFound(t *testing.T) {
	h := startCluster(t, 1, nil)
	if resp := h.get(t, 0, "/missing"); resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := startCluster(t, 1, nil)
	req := httpmsg.NewRequest("DELETE", "/x")
	resp, err := h.client.Do(h.addr(0), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 405 {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestCGIMissThenLocalHit(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	registerNullCGI(s)

	first := h.get(t, 0, "/cgi-bin/null?a=1")
	if first.StatusCode != 200 {
		t.Fatalf("status = %d", first.StatusCode)
	}
	if first.Header.Get("X-Swala-Cache") != "" {
		t.Fatal("first request must execute, not hit cache")
	}

	second := h.get(t, 0, "/cgi-bin/null?a=1")
	if second.Header.Get("X-Swala-Cache") != "local" {
		t.Fatalf("second request cache header = %q, want local", second.Header.Get("X-Swala-Cache"))
	}
	if string(second.Body) != string(first.Body) {
		t.Fatal("cached body differs from executed body")
	}

	snap := s.Counters()
	if snap.Misses != 1 || snap.LocalHits != 1 || snap.Inserts != 1 {
		t.Fatalf("counters = %+v", snap)
	}
}

func TestDifferentQueryIsDifferentEntry(t *testing.T) {
	h := startCluster(t, 1, nil)
	registerNullCGI(h.servers[0])

	h.get(t, 0, "/cgi-bin/null?a=1")
	resp := h.get(t, 0, "/cgi-bin/null?a=2")
	if resp.Header.Get("X-Swala-Cache") != "" {
		t.Fatal("different query string must not hit the cache")
	}
	if h.servers[0].Directory().LocalLen() != 2 {
		t.Fatalf("entries = %d, want 2", h.servers[0].Directory().LocalLen())
	}
}

func TestRemoteFetch(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}

	// Warm node 1's cache.
	h.get(t, 0, "/cgi-bin/null?x=1")
	// Wait for the insert broadcast to land at node 2.
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup("GET /cgi-bin/null?x=1", time.Now())
		return ok
	})

	resp := h.get(t, 1, "/cgi-bin/null?x=1")
	if got := resp.Header.Get("X-Swala-Cache"); got != "remote" {
		t.Fatalf("cache header = %q, want remote", got)
	}
	s2 := h.servers[1].Counters()
	if s2.RemoteHits != 1 {
		t.Fatalf("node2 counters = %+v", s2)
	}
	// The owner updates meta-data statistics after serving the fetch.
	snap := h.servers[0].Directory().SnapshotLocal()
	if len(snap) != 1 || snap[0].Hits != 1 {
		t.Fatalf("owner entry = %+v, want 1 hit", snap)
	}
}

func TestFalseHitFallsBackToExecution(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	h.get(t, 0, "/cgi-bin/null?x=1")
	key := "GET /cgi-bin/null?x=1"
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	// Delete the entry on node 1 without node 2 hearing about it (simulates
	// the deletion broadcast still in flight). The delete does broadcast and
	// can land before node 2's request, so wait it out and replant the stale
	// replica pointer deterministically.
	h.servers[0].Directory().RemoveLocal(key)
	waitUntil(t, "delete broadcast", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return !ok
	})
	h.servers[1].Directory().ApplyInsert(directory.Entry{
		Key: key, Owner: 1, Size: 64, Inserted: time.Now(),
	}, time.Now())

	resp := h.get(t, 1, "/cgi-bin/null?x=1")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	snap := h.servers[1].Counters()
	if snap.FalseHits != 1 {
		t.Fatalf("counters = %+v, want 1 false hit", snap)
	}
	if snap.Misses != 1 {
		t.Fatalf("counters = %+v, want fallback execution", snap)
	}
}

func TestStandAloneDoesNotCooperate(t *testing.T) {
	h := startCluster(t, 2, func(i int, cfg *Config) { cfg.Mode = StandAlone })
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	h.get(t, 0, "/cgi-bin/null?x=1")
	// Node 2 must not learn about node 1's entry.
	time.Sleep(20 * time.Millisecond)
	if _, ok := h.servers[1].Directory().Lookup("GET /cgi-bin/null?x=1", time.Now()); ok {
		t.Fatal("stand-alone node received a broadcast")
	}
	// Node 2 re-executes.
	resp := h.get(t, 1, "/cgi-bin/null?x=1")
	if resp.Header.Get("X-Swala-Cache") != "" {
		t.Fatal("stand-alone node must not serve from a peer")
	}
	// But its own cache works.
	resp = h.get(t, 1, "/cgi-bin/null?x=1")
	if resp.Header.Get("X-Swala-Cache") != "local" {
		t.Fatal("stand-alone local cache broken")
	}
}

func TestNoCacheModeAlwaysExecutes(t *testing.T) {
	h := startCluster(t, 1, func(i int, cfg *Config) { cfg.Mode = NoCache })
	registerNullCGI(h.servers[0])
	for i := 0; i < 3; i++ {
		resp := h.get(t, 0, "/cgi-bin/null?x=1")
		if resp.Header.Get("X-Swala-Cache") != "" {
			t.Fatal("no-cache mode served from cache")
		}
	}
	if snap := h.servers[0].Counters(); snap.Lookups() != 0 {
		t.Fatalf("counters = %+v, want no cache activity", snap)
	}
}

func TestUncacheableRuleRespected(t *testing.T) {
	pol := cacheability.NewPolicy()
	pol.Add("/cgi-bin/private*", cacheability.NoCache, 0)
	pol.Add("/cgi-bin/*", cacheability.Cache, time.Hour)
	h := startCluster(t, 1, func(i int, cfg *Config) { cfg.Cacheability = pol })
	s := h.servers[0]
	s.CGI().Register("/cgi-bin/private", &cgi.Synthetic{OutputSize: 10})
	s.CGI().Register("/cgi-bin/public", &cgi.Synthetic{OutputSize: 10})

	h.get(t, 0, "/cgi-bin/private?u=1")
	h.get(t, 0, "/cgi-bin/private?u=1")
	if s.Directory().LocalLen() != 0 {
		t.Fatal("uncacheable request was cached")
	}
	h.get(t, 0, "/cgi-bin/public?u=1")
	if s.Directory().LocalLen() != 1 {
		t.Fatal("cacheable request was not cached")
	}
}

func TestPOSTNeverCached(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	registerNullCGI(s)
	req := httpmsg.NewRequest("POST", "/cgi-bin/null?x=1")
	req.Body = []byte("data")
	if _, err := h.client.Do(h.addr(0), req); err != nil {
		t.Fatal(err)
	}
	if s.Directory().LocalLen() != 0 {
		t.Fatal("POST result was cached")
	}
}

func TestFailedCGINotCached(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	s.CGI().Register("/cgi-bin/fail", &cgi.Synthetic{Fail: true})
	resp := h.get(t, 0, "/cgi-bin/fail?x=1")
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if s.Directory().LocalLen() != 0 {
		t.Fatal("failed execution was cached")
	}
}

func TestExecutionTimeThreshold(t *testing.T) {
	pol := cacheability.CacheAll(time.Hour)
	pol.MinExecTime = 50 * time.Millisecond
	h := startCluster(t, 1, func(i int, cfg *Config) { cfg.Cacheability = pol })
	s := h.servers[0]
	s.CGI().Register("/cgi-bin/fast", &cgi.Synthetic{OutputSize: 10})
	s.CGI().Register("/cgi-bin/slow", &cgi.Synthetic{OutputSize: 10, ServiceTime: 60 * time.Millisecond})

	h.get(t, 0, "/cgi-bin/fast?x=1")
	if s.Directory().LocalLen() != 0 {
		t.Fatal("sub-threshold result was cached")
	}
	h.get(t, 0, "/cgi-bin/slow?x=1")
	if s.Directory().LocalLen() != 1 {
		t.Fatal("above-threshold result was not cached")
	}
}

func TestMaxSizeNotCached(t *testing.T) {
	pol := cacheability.CacheAll(time.Hour)
	pol.MaxSize = 256
	h := startCluster(t, 1, func(i int, cfg *Config) { cfg.Cacheability = pol })
	s := h.servers[0]
	s.CGI().Register("/cgi-bin/small", &cgi.Synthetic{OutputSize: 200})
	s.CGI().Register("/cgi-bin/big", &cgi.Synthetic{OutputSize: 4096})

	h.get(t, 0, "/cgi-bin/big?x=1")
	if s.Directory().LocalLen() != 0 {
		t.Fatal("oversized result was cached")
	}
	h.get(t, 0, "/cgi-bin/small?x=1")
	if s.Directory().LocalLen() != 1 {
		t.Fatal("small result was not cached")
	}
}

func TestEvictionBroadcastsDelete(t *testing.T) {
	h := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.CacheCapacity = 1
		cfg.Policy = replacement.FIFO
	})
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	h.get(t, 0, "/cgi-bin/null?x=1")
	waitUntil(t, "insert propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup("GET /cgi-bin/null?x=1", time.Now())
		return ok
	})
	// Second insert evicts the first (capacity 1) and must broadcast it.
	h.get(t, 0, "/cgi-bin/null?x=2")
	waitUntil(t, "delete propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup("GET /cgi-bin/null?x=1", time.Now())
		return !ok
	})
	if snap := h.servers[0].Counters(); snap.Evictions != 1 {
		t.Fatalf("counters = %+v, want 1 eviction", snap)
	}
}

func TestTTLExpiryAndPurge(t *testing.T) {
	pol := cacheability.CacheAll(100 * time.Millisecond)
	h := startCluster(t, 2, func(i int, cfg *Config) { cfg.Cacheability = pol })
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	h.get(t, 0, "/cgi-bin/null?x=1")
	key := "GET /cgi-bin/null?x=1"
	waitUntil(t, "insert propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	time.Sleep(150 * time.Millisecond)
	// Entry is expired: a lookup-time check must refuse it even before the
	// purge daemon runs.
	resp := h.get(t, 0, "/cgi-bin/null?x=1")
	if resp.Header.Get("X-Swala-Cache") != "" {
		t.Fatal("expired entry served from cache")
	}

	// The re-execution just re-inserted the entry with a fresh TTL; expire
	// it again, then purge explicitly.
	time.Sleep(150 * time.Millisecond)
	if n := h.servers[0].PurgeExpired(); n != 1 {
		t.Fatalf("purged %d entries, want 1", n)
	}
	waitUntil(t, "purge delete propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return !ok
	})
}

func TestConcurrentIdenticalRequestsFalseMiss(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	s.CGI().Register("/cgi-bin/slow", &cgi.Synthetic{ServiceTime: 50 * time.Millisecond, OutputSize: 10})

	// Two identical requests in flight: the paper's first false-miss case —
	// the second executes rather than waiting for the first.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := httpclient.New(h.mem)
			defer c.Close()
			if _, err := c.Get(h.addr(0), "/cgi-bin/slow?x=1"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap := s.Counters()
	if snap.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (no request coalescing, per the paper)", snap.Misses)
	}
	if snap.FalseMisses == 0 {
		t.Fatalf("counters = %+v, want at least one false miss", snap)
	}
}

func TestConcurrentLoadManyKeys(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := httpclient.New(h.mem)
			defer c.Close()
			for i := 0; i < 25; i++ {
				node := (w + i) % 2
				uri := fmt.Sprintf("/cgi-bin/null?k=%d", i%10)
				resp, err := c.Get(h.addr(node), uri)
				if err != nil {
					t.Errorf("GET %s: %v", uri, err)
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("GET %s: status %d", uri, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	total := h.servers[0].Counters().Add(h.servers[1].Counters())
	if total.Lookups() != 200 { // 8 workers x 25 requests
		t.Fatalf("lookups = %d, want 200", total.Lookups())
	}
	if total.Hits() == 0 {
		t.Fatal("no cache hits under repeated load")
	}
}

func TestStatusPage(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	registerNullCGI(s)
	h.get(t, 0, "/cgi-bin/null?a=1")
	h.get(t, 0, "/cgi-bin/null?a=1")

	resp := h.get(t, 0, StatusPath)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := string(resp.Body)
	for _, want := range []string{
		`swala_node_info{node="1",name="swala-1",mode="cooperative",policy="lru",capacity="0"} 1`,
		"\nswala_local_hits_total 1\n", "\nswala_misses_total 1\n",
		`swala_entry_hits_total{key="GET /cgi-bin/null?a=1"} 1`, "\nswala_directory_local_entries 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("status page missing %q:\n%s", want, body)
		}
	}
}

func TestRemoteExpiryPruned(t *testing.T) {
	pol := cacheability.CacheAll(50 * time.Millisecond)
	h := startCluster(t, 2, func(i int, cfg *Config) { cfg.Cacheability = pol })
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	h.get(t, 0, "/cgi-bin/null?x=1")
	waitUntil(t, "replication", func() bool {
		return h.servers[1].Directory().TotalLen() == 1
	})
	time.Sleep(80 * time.Millisecond)
	// Node 2 prunes its replica of node 1's expired entry during its own
	// purge, without any broadcast from node 1.
	h.servers[1].PurgeExpired()
	if got := h.servers[1].Directory().TotalLen(); got != 0 {
		t.Fatalf("TotalLen = %d after remote expiry prune, want 0", got)
	}
}

func TestInvalidateLocal(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	registerNullCGI(s)
	s.CGI().Register("/cgi-bin/other", &cgi.Synthetic{OutputSize: 32})

	h.get(t, 0, "/cgi-bin/null?a=1")
	h.get(t, 0, "/cgi-bin/null?a=2")
	h.get(t, 0, "/cgi-bin/other?b=1")
	if s.Directory().LocalLen() != 3 {
		t.Fatalf("entries = %d, want 3", s.Directory().LocalLen())
	}

	if n := s.Invalidate("GET /cgi-bin/null*"); n != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", n)
	}
	if s.Directory().LocalLen() != 1 {
		t.Fatalf("entries after invalidate = %d, want 1", s.Directory().LocalLen())
	}
	// The next identical request executes again.
	resp := h.get(t, 0, "/cgi-bin/null?a=1")
	if resp.Header.Get("X-Swala-Cache") != "" {
		t.Fatal("invalidated entry served from cache")
	}
}

func TestInvalidatePropagatesAcrossCluster(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	// Each node caches its own copy of a different query.
	h.get(t, 0, "/cgi-bin/null?x=1")
	h.get(t, 1, "/cgi-bin/null?x=2")
	waitUntil(t, "replication", func() bool {
		return h.servers[0].Directory().TotalLen() == 2 &&
			h.servers[1].Directory().TotalLen() == 2
	})

	// Invalidating on node 1 must clear matching entries everywhere: node
	// 2's own entry via the invalidation wave, and the directory replicas
	// via the per-entry deletes.
	h.servers[0].Invalidate("GET /cgi-bin/null*")
	waitUntil(t, "cluster-wide invalidation", func() bool {
		return h.servers[0].Directory().TotalLen() == 0 &&
			h.servers[1].Directory().TotalLen() == 0
	})
}

func TestInvalidateNoMatch(t *testing.T) {
	h := startCluster(t, 1, nil)
	registerNullCGI(h.servers[0])
	h.get(t, 0, "/cgi-bin/null?a=1")
	if n := h.servers[0].Invalidate("GET /cgi-bin/zzz*"); n != 0 {
		t.Fatalf("Invalidate dropped %d, want 0", n)
	}
	if h.servers[0].Directory().LocalLen() != 1 {
		t.Fatal("non-matching invalidation removed an entry")
	}
}

func TestModeString(t *testing.T) {
	if NoCache.String() != "no-cache" || StandAlone.String() != "stand-alone" ||
		Cooperative.String() != "cooperative" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestCloseIdempotent(t *testing.T) {
	h := startCluster(t, 1, nil)
	if err := h.servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.servers[0].Close(); err != nil {
		t.Fatal(err)
	}
}

// countingCGI counts real executions and serves a fixed body after an
// optional delay, for coalescing tests that must observe duplicate
// suppression directly.
type countingCGI struct {
	execs atomic.Int64
	delay time.Duration
	gen   cgi.Synthetic
}

func (p *countingCGI) Run(ctx context.Context, req cgi.Request) (cgi.Result, error) {
	p.execs.Add(1)
	if p.delay > 0 {
		select {
		case <-time.After(p.delay):
		case <-ctx.Done():
			return cgi.Result{}, ctx.Err()
		}
	}
	return p.gen.Run(ctx, req)
}

func TestCoalescedConcurrentMissesShareOneExecution(t *testing.T) {
	h := startCluster(t, 1, func(i int, cfg *Config) {
		cfg.Mode = StandAlone
		cfg.CoalesceMisses = true
	})
	s := h.servers[0]
	prog := &countingCGI{delay: 100 * time.Millisecond, gen: cgi.Synthetic{OutputSize: 64}}
	s.CGI().Register("/cgi-bin/slow", prog)

	const dups = 8
	var wg sync.WaitGroup
	var bodies sync.Map
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := httpclient.New(h.mem)
			defer c.Close()
			resp, err := c.Get(h.addr(0), "/cgi-bin/slow?x=1")
			if err != nil || resp.StatusCode != 200 {
				t.Errorf("GET: %v status=%v", err, resp)
				return
			}
			bodies.Store(i, string(resp.Body))
		}(i)
	}
	wg.Wait()

	if n := prog.execs.Load(); n != 1 {
		t.Fatalf("CGI executions = %d, want 1 (coalescing must suppress all duplicates)", n)
	}
	snap := s.Counters()
	if snap.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (only the leader)", snap.Misses)
	}
	if snap.Coalesced != dups-1 {
		t.Fatalf("coalesced = %d, want %d", snap.Coalesced, dups-1)
	}
	if snap.FalseMisses != 0 {
		t.Fatalf("false misses = %d, want 0 with coalescing on", snap.FalseMisses)
	}
	var first string
	bodies.Range(func(_, v any) bool {
		if first == "" {
			first = v.(string)
		} else if v.(string) != first {
			t.Error("coalesced responses differ")
			return false
		}
		return true
	})

	// The leader's execution was inserted: the next request is a local hit.
	resp := h.get(t, 0, "/cgi-bin/slow?x=1")
	if resp.Header.Get("X-Swala-Cache") != "local" {
		t.Fatalf("follow-up not a local hit: %v", resp.Header)
	}
	if prog.execs.Load() != 1 {
		t.Fatalf("follow-up hit re-executed the CGI")
	}
}

func TestCoalescedDistinctKeysExecuteIndependently(t *testing.T) {
	h := startCluster(t, 1, func(i int, cfg *Config) {
		cfg.Mode = StandAlone
		cfg.CoalesceMisses = true
	})
	s := h.servers[0]
	prog := &countingCGI{gen: cgi.Synthetic{OutputSize: 16}}
	s.CGI().Register("/cgi-bin/q", prog)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := httpclient.New(h.mem)
			defer c.Close()
			if _, err := c.Get(h.addr(0), fmt.Sprintf("/cgi-bin/q?x=%d", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := prog.execs.Load(); n != 6 {
		t.Fatalf("executions = %d, want 6 (distinct keys must not coalesce)", n)
	}
}

func TestCoalescedFailedExecutionNotCached(t *testing.T) {
	h := startCluster(t, 1, func(i int, cfg *Config) {
		cfg.Mode = StandAlone
		cfg.CoalesceMisses = true
	})
	s := h.servers[0]
	s.CGI().Register("/cgi-bin/fail", &cgi.Synthetic{Fail: true})

	resp := h.get(t, 0, "/cgi-bin/fail?x=1")
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if s.Directory().LocalLen() != 0 {
		t.Fatal("failed execution was cached")
	}
}

// TestFalseHitLocalExecutionWithCoalescing covers the false-hit fallback
// (Figure 2's last arrow) with miss coalescing enabled: the remote owner
// deletes the entry between this node's directory lookup and the fetch; the
// request must fall back to a (coalesced) local execution, count a false
// hit, and still succeed.
func TestFalseHitLocalExecutionWithCoalescing(t *testing.T) {
	h := startCluster(t, 2, func(i int, cfg *Config) { cfg.CoalesceMisses = true })
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	h.get(t, 0, "/cgi-bin/null?x=1")
	key := "GET /cgi-bin/null?x=1"
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	// The owner drops the entry; node 2's directory replica still points at
	// it (the delete broadcast is "in flight"), so node 2's next lookup is
	// a false hit and its remote fetch comes back empty. The broadcast can
	// win the race against node 2's request, so make the stale pointer
	// deterministic: wait for the delete to land, then replant the replica
	// entry by hand.
	h.servers[0].Directory().RemoveLocal(key)
	waitUntil(t, "delete broadcast", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return !ok
	})
	h.servers[1].Directory().ApplyInsert(directory.Entry{
		Key: key, Owner: 1, Size: 64, Inserted: time.Now(),
	}, time.Now())

	resp := h.get(t, 1, "/cgi-bin/null?x=1")
	if resp.StatusCode != 200 || len(resp.Body) == 0 {
		t.Fatalf("status = %d, body %d bytes; want a served response", resp.StatusCode, len(resp.Body))
	}
	snap := h.servers[1].Counters()
	if snap.FalseHits != 1 {
		t.Fatalf("counters = %+v, want 1 false hit", snap)
	}
	if snap.Misses != 1 {
		t.Fatalf("counters = %+v, want 1 miss (local fallback execution)", snap)
	}
	// The fallback execution re-cached the result locally on node 2.
	if _, ok := h.servers[1].Directory().LookupLocal(key, time.Now()); !ok {
		t.Fatal("fallback execution was not re-cached locally")
	}
}
