package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/httpclient"
	"repro/internal/netx"
)

// startRing builds an n-node ring-placement cluster: node 1 boots alone and
// the rest join through it, exactly as swalad -placement=ring -join would.
func startRing(t *testing.T, n int, mutate func(i int, cfg *Config)) *harness {
	t.Helper()
	mem := netx.NewMem()
	h := &harness{mem: mem, client: httpclient.New(mem)}
	t.Cleanup(func() { h.client.Close() })

	for i := 0; i < n; i++ {
		cfg := Config{
			Costs:         DefaultCosts(),
			NodeID:        uint32(i + 1),
			Mode:          Cooperative,
			Network:       mem,
			FetchTimeout:  2 * time.Second,
			PurgeInterval: time.Hour,
			RingPlacement: true,
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
		if i > 0 {
			if err := s.JoinRing(context.Background(), []string{"clu-1"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitRingSize(t, h.servers, n)
	// Ring convergence means every node knows every member — not that the
	// dial-back links are registered yet. A routed fetch that races the dial
	// fails fast and degrades to local execution by design, so tests that
	// assert on fetch sources right away also need pairwise connectivity.
	waitMeshConnected(t, h.servers)
	return h
}

// waitMeshConnected waits until every server can round-trip a ping to every
// other server.
func waitMeshConnected(t *testing.T, servers []*Server) {
	t.Helper()
	waitUntil(t, "full mesh connectivity", func() bool {
		for i, s := range servers {
			for j := range servers {
				if i == j {
					continue
				}
				if err := s.Cluster().Ping(context.Background(), uint32(j+1)); err != nil {
					return false
				}
			}
		}
		return true
	})
}

// waitRingSize waits for every given server to see a ring of size want.
func waitRingSize(t *testing.T, servers []*Server, want int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("ring to converge on %d members", want), func() bool {
		for _, s := range servers {
			r := s.Cluster().Ring()
			if r == nil || r.Len() != want {
				return false
			}
		}
		return true
	})
}

// uriOwnedBy finds a null-CGI URI whose cache key the ring places on owner.
func uriOwnedBy(t *testing.T, s *Server, owner uint32) string {
	t.Helper()
	r := s.Cluster().Ring()
	for i := 0; i < 100000; i++ {
		uri := fmt.Sprintf("/cgi-bin/null?k=%d", i)
		if o, ok := r.Owner("GET " + uri); ok && o == owner {
			return uri
		}
	}
	t.Fatalf("no key owned by node %d", owner)
	return ""
}

func TestRingSingleNodeDegeneratesToLocal(t *testing.T) {
	h := startRing(t, 1, nil)
	s := h.servers[0]
	registerNullCGI(s)

	if resp := h.get(t, 0, "/cgi-bin/null?x=1"); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp := h.get(t, 0, "/cgi-bin/null?x=1"); resp.Header.Get("X-Swala-Cache") != "local" {
		t.Fatalf("second request not a local hit: %q", resp.Header.Get("X-Swala-Cache"))
	}
	snap := s.Counters()
	if snap.Misses != 1 || snap.LocalHits != 1 || snap.RemoteHits != 0 {
		t.Fatalf("counters = %+v", snap)
	}
}

func TestRingMissExecutesAtOwner(t *testing.T) {
	h := startRing(t, 3, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	uri := uriOwnedBy(t, h.servers[0], 2) // owned by node 2
	requester := 0                        // request it on node 1

	// First request anywhere: routed to the owner, executed there, cached
	// there — a miss for the requester, an insert (not a miss) for the owner.
	resp := h.get(t, requester, uri)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Swala-Cache"); src != "owner" {
		t.Fatalf("first fetch source = %q, want owner", src)
	}
	if snap := h.servers[requester].Counters(); snap.Misses != 1 {
		t.Fatalf("requester counters = %+v", snap)
	}
	waitUntil(t, "owner to cache the executed result", func() bool {
		return h.servers[1].Counters().Inserts == 1
	})
	if snap := h.servers[1].Counters(); snap.Misses != 0 {
		t.Fatalf("owner counted the routed execution as its own miss: %+v", snap)
	}

	// Second request from the same non-owner: a remote hit off the owner's
	// cache. Third, from the owner itself: a local hit.
	if src := h.get(t, requester, uri).Header.Get("X-Swala-Cache"); src != "remote" {
		t.Fatalf("second fetch source = %q, want remote", src)
	}
	if src := h.get(t, 1, uri).Header.Get("X-Swala-Cache"); src != "local" {
		t.Fatalf("owner fetch source = %q, want local", src)
	}

	// Placement means no replication: only the owner has directory state.
	if n := h.servers[0].Directory().TotalLen(); n != 0 {
		t.Fatalf("non-owner holds %d directory entries; ring mode should hold none", n)
	}
	if n := h.servers[1].Directory().TotalLen(); n != 1 {
		t.Fatalf("owner directory has %d entries, want 1", n)
	}
}

func TestRingJoinTriggersHandoff(t *testing.T) {
	h := startRing(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	// Populate both nodes by requesting each key on its owner.
	const keys = 60
	for i := 0; i < keys; i++ {
		uri := fmt.Sprintf("/cgi-bin/null?k=%d", i)
		owner, _ := h.servers[0].Cluster().Ring().Owner("GET " + uri)
		h.get(t, int(owner)-1, uri)
	}
	total := h.servers[0].Directory().LocalLen() + h.servers[1].Directory().LocalLen()
	if total != keys {
		t.Fatalf("seeded %d entries, directory holds %d", keys, total)
	}

	// A third node joins under no load: the movers must migrate to it.
	mem := h.mem
	cfg := Config{
		Costs:  DefaultCosts(),
		NodeID: 3, Mode: Cooperative, Network: mem,
		FetchTimeout: 2 * time.Second, PurgeInterval: time.Hour,
		RingPlacement: true,
	}
	s3 := New(cfg)
	if err := s3.Start("http-3", "clu-3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s3.Close() })
	registerNullCGI(s3)
	if err := s3.JoinRing(context.Background(), []string{"clu-1"}); err != nil {
		t.Fatal(err)
	}
	h.servers = append(h.servers, s3)
	waitRingSize(t, h.servers, 3)

	// Every key the new ring assigns to node 3 must end up there, bodies
	// included, with nothing lost overall.
	wantMoved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("GET /cgi-bin/null?k=%d", i)
		if o, _ := s3.Cluster().Ring().Owner(key); o == 3 {
			wantMoved++
		}
	}
	if wantMoved == 0 {
		t.Fatal("no keys moved to the joiner; test is vacuous")
	}
	waitUntil(t, "handoff to complete", func() bool {
		return s3.Directory().LocalLen() == wantMoved
	})
	_, in, bytes := s3.HandoffStats()
	if in != uint64(wantMoved) || bytes == 0 {
		t.Fatalf("handoff stats in=%d bytes=%d, want in=%d", in, bytes, wantMoved)
	}
	waitUntil(t, "old owners to release moved entries", func() bool {
		n := 0
		for _, s := range h.servers {
			n += s.Directory().LocalLen()
		}
		return n == keys
	})

	// Moved entries serve as hits (no re-execution): a request for a moved
	// key on node 3 is a local hit.
	uri := uriOwnedBy(t, s3, 3)
	if src := h.get(t, 2, uri).Header.Get("X-Swala-Cache"); src != "local" {
		t.Fatalf("moved entry source = %q, want local", src)
	}
}

func TestRingGracefulLeaveHandsEntriesOff(t *testing.T) {
	h := startRing(t, 3, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	const keys = 45
	for i := 0; i < keys; i++ {
		uri := fmt.Sprintf("/cgi-bin/null?k=%d", i)
		owner, _ := h.servers[0].Cluster().Ring().Owner("GET " + uri)
		h.get(t, int(owner)-1, uri)
	}
	leaving := h.servers[2]
	hadEntries := leaving.Directory().LocalLen()
	if hadEntries == 0 {
		t.Fatal("leaving node owns nothing; test is vacuous")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	leaving.LeaveRing(ctx)

	waitRingSize(t, h.servers[:2], 2)
	waitUntil(t, "survivors to hold every entry", func() bool {
		return h.servers[0].Directory().LocalLen()+h.servers[1].Directory().LocalLen() == keys
	})
	if n := leaving.Directory().LocalLen(); n != 0 {
		t.Fatalf("leaving node still holds %d entries after handoff", n)
	}

	// No key was lost: requesting all of them on the survivors re-executes
	// nothing.
	before := h.servers[0].Counters().Misses + h.servers[1].Counters().Misses
	for i := 0; i < keys; i++ {
		uri := fmt.Sprintf("/cgi-bin/null?k=%d", i)
		if resp := h.get(t, 0, uri); resp.StatusCode != 200 {
			t.Fatalf("GET %s after leave: %d", uri, resp.StatusCode)
		}
	}
	after := h.servers[0].Counters().Misses + h.servers[1].Counters().Misses
	if after != before {
		t.Fatalf("%d keys re-executed after graceful leave", after-before)
	}
}

// TestRingChurnUnderLoad exercises the racy edges: a node joins while
// handoffs are in flight, and an owner crashes mid-rebalance so detector
// eviction races the handoff traffic. The assertions are convergence and
// availability; -race covers the rest.
func TestRingChurnUnderLoad(t *testing.T) {
	fast := func(i int, cfg *Config) {
		cfg.HealthProbeInterval = 20 * time.Millisecond
		cfg.HealthProbeTimeout = 20 * time.Millisecond
		cfg.HealthSuspectAfter = 1
		cfg.HealthDeadAfter = 3
	}
	h := startRing(t, 3, fast)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	const keys = 80
	for i := 0; i < keys; i++ {
		h.get(t, i%3, fmt.Sprintf("/cgi-bin/null?k=%d", i))
	}

	// Load on nodes 1 and 3 throughout the churn (node 2 is about to die).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := httpclient.New(h.mem)
			defer client.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				node := []int{0, 2}[i%2]
				client.Get(h.addr(node), fmt.Sprintf("/cgi-bin/null?k=%d", (i+w)%keys))
			}
		}(w)
	}

	// Node 4 joins (handoffs start flowing toward it) and, while those are in
	// flight, node 2 crashes.
	cfg := Config{
		Costs:  DefaultCosts(),
		NodeID: 4, Mode: Cooperative, Network: h.mem,
		FetchTimeout: 2 * time.Second, PurgeInterval: time.Hour,
		RingPlacement: true,
	}
	fast(3, &cfg)
	s4 := New(cfg)
	if err := s4.Start("http-4", "clu-4"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s4.Close() })
	registerNullCGI(s4)
	if err := s4.JoinRing(context.Background(), []string{"clu-1"}); err != nil {
		t.Fatal(err)
	}
	h.servers[1].Close() // crash, no goodbye

	survivors := []*Server{h.servers[0], h.servers[2], s4}
	waitUntil(t, "survivors to converge on {1,3,4}", func() bool {
		for _, s := range survivors {
			r := s.Cluster().Ring()
			if r == nil || r.Len() != 3 || r.Contains(2) || !r.Contains(4) {
				return false
			}
		}
		return true
	})
	close(stop)
	wg.Wait()

	// Availability after the dust settles: every key is serveable from every
	// survivor (re-execution allowed — node 2 took its entries down with it).
	for i := 0; i < keys; i++ {
		uri := fmt.Sprintf("/cgi-bin/null?k=%d", i)
		if resp := h.get(t, 2, uri); resp.StatusCode != 200 {
			t.Fatalf("GET %s after churn: %d", uri, resp.StatusCode)
		}
	}
}
