package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cgi"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/stats"
)

// startFaultyPair builds a 2-node cooperative cluster over a Faulty network
// so tests can inject gray failures (per-direction delay) between the nodes.
func startFaultyPair(t *testing.T, mutate func(i int, cfg *Config)) (*netx.Faulty, []*Server, *httpclient.Client) {
	t.Helper()
	mem := netx.NewMem()
	faulty := netx.NewFaulty(mem, 1)
	client := httpclient.New(mem)
	t.Cleanup(func() { client.Close() })

	servers := make([]*Server, 2)
	for i := range servers {
		cfg := Config{
			Costs:         DefaultCosts(),
			NodeID:        uint32(i + 1),
			Mode:          Cooperative,
			Network:       faulty.Endpoint(fmt.Sprintf("clu-%d", i+1)),
			FetchTimeout:  2 * time.Second,
			PurgeInterval: time.Hour,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := New(cfg)
		if err := s.Start(fmt.Sprintf("http-%d", i+1), fmt.Sprintf("clu-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		registerNullCGI(s)
		servers[i] = s
	}
	for i := range servers {
		for j := range servers {
			if i != j {
				if err := servers[i].ConnectPeer(uint32(j+1), fmt.Sprintf("clu-%d", j+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return faulty, servers, client
}

// TestHedgeAbandonsSlowPeerForLocalExecution: a remote fetch to a gray-slow
// owner must be abandoned at the hedge trigger and executed locally, far
// under the peer's injected delay — and the abandoned loser must be
// cancelled, counted, and must not leak its goroutine.
func TestHedgeAbandonsSlowPeerForLocalExecution(t *testing.T) {
	const peerDelay = 400 * time.Millisecond
	faulty, servers, client := startFaultyPair(t, func(i int, cfg *Config) {
		cfg.Hedge = true
		cfg.HedgeTrigger = 20 * time.Millisecond
	})

	// Warm the key at node 2 (making it owner) and wait for the directory
	// announcement to reach node 1, all at full network speed.
	uri := "/cgi-bin/null?hedge=1"
	if resp, err := client.Get("http-2", uri); err != nil || resp.StatusCode != 200 {
		t.Fatalf("warm-up: %v %+v", err, resp)
	}
	waitUntil(t, "directory propagation", func() bool {
		_, ok := servers[0].Directory().Lookup("GET "+uri, time.Now())
		return ok
	})

	// Now node 2 limps: everything it writes (fetch replies, pongs) is
	// delayed below the probe timeout, so the failure detector keeps calling
	// it alive — the gray failure.
	faulty.SetDelayFrom("clu-2", peerDelay)

	before := runtime.NumGoroutine()
	start := time.Now()
	resp, err := client.Get("http-1", uri)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("hedged GET: %v %+v", err, resp)
	}
	if d := time.Since(start); d > peerDelay/2 {
		t.Fatalf("hedged request took %v; the trigger must abandon the %v-slow peer", d, peerDelay)
	}
	if metric(servers[0], "swala_hedges_local_total") == 0 {
		t.Fatal("no local-fallback hedge counted")
	}
	if metric(servers[0], "swala_hedges_abandoned_total") == 0 {
		t.Fatal("abandoned loser not counted")
	}

	// Hammer the same path; the retry budget must cap hedge spend, and the
	// cancelled losers must all drain (no goroutine growth beyond noise).
	const extra = 30
	for i := 0; i < extra; i++ {
		if resp, err := client.Get("http-1", fmt.Sprintf("/cgi-bin/null?hedge=%d", i+2)); err != nil || resp.StatusCode != 200 {
			t.Fatalf("request %d: %v %+v", i, err, resp)
		}
	}
	m := servers[0].Metrics()
	issued, _ := stats.Find(m, "swala_hedges_issued_total")
	local, _ := stats.Find(m, "swala_hedges_local_total")
	denied, _ := stats.Find(m, "swala_hedges_denied_total")
	spent := uint64(issued + local)
	budget := uint64((issued+local+denied)*RetryBudgetRatio) + RetryBudgetBurst + 1
	if primaries := uint64(extra + 1); spent > uint64(float64(primaries)*RetryBudgetRatio)+RetryBudgetBurst+1 {
		t.Fatalf("hedge spend %d exceeded the retry budget (%d primaries, cap %d)", spent, primaries, budget)
	}
	waitUntil(t, "hedge losers to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+10
	})
}

// TestShedOverloadRefusesExecutesServesHits: past the high watermark a node
// 503s requests that would execute (with Retry-After and the shed header),
// refuses peer serves, but keeps serving its cache hits.
func TestShedOverloadRefusesExecutesServesHits(t *testing.T) {
	h := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.Shed = true
		cfg.ShedLowWatermark = 30 * time.Millisecond
		cfg.ShedHighWatermark = 100 * time.Millisecond
	})
	for _, s := range h.servers {
		registerNullCGI(s)
		s.CGI().Register("/cgi-bin/slow", &cgi.Synthetic{ServiceTime: 150 * time.Millisecond, OutputSize: 64})
	}

	// Warm one key on node 1 (it becomes owner) so we can check that hits
	// still serve under overload, and that a peer fetch to it is refused.
	warm := "/cgi-bin/null?warm=1"
	if resp := h.get(t, 0, warm); resp.StatusCode != 200 {
		t.Fatalf("warm-up status %d", resp.StatusCode)
	}
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup("GET "+warm, time.Now())
		return ok
	})

	// Sustained flash crowd on node 1: distinct slow executions pile onto
	// the 1-core virtual CPU. The level oscillates around the watermarks —
	// level 1 admits local executions which rebuild the queue — so the flood
	// holds the node at or above level 1 until stopped.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.client.Get(h.addr(0), fmt.Sprintf("/cgi-bin/slow?g=%d&i=%d", g, i))
			}
		}(g)
	}
	defer func() { close(stop); wg.Wait() }()

	// A request that would execute is shed with the full refusal contract.
	waitUntil(t, "a 503 shed response", func() bool {
		resp, err := h.client.Get(h.addr(0), fmt.Sprintf("/cgi-bin/null?probe=%d", time.Now().UnixNano()))
		if err != nil || resp.StatusCode != 503 {
			return false
		}
		if resp.Header.Get("X-Swala-Shed") != "local" {
			t.Fatalf("shed response missing X-Swala-Shed: %+v", resp.Header)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
		return true
	})

	// The warm key still serves: hits are the cheap work the node keeps.
	if resp := h.get(t, 0, warm); resp.StatusCode != 200 || resp.Header.Get("X-Swala-Cache") != "local" {
		t.Fatalf("cache hit under overload: %d %q", resp.StatusCode, resp.Header.Get("X-Swala-Cache"))
	}

	// A peer fetch to the overloaded owner is refused (cheap to refuse: the
	// requester executes locally as a false hit) and still answers 200. The
	// level oscillates, so retry until a fetch lands in a shed window.
	waitUntil(t, "a refused peer serve", func() bool {
		resp := h.get(t, 1, warm)
		if resp.StatusCode != 200 {
			t.Fatalf("peer request during owner overload: %d", resp.StatusCode)
		}
		return metric(h.servers[0], "swala_shed_total", "class", "remote") > 0
	})
	if metric(h.servers[0], "swala_shed_total", "class", "local") == 0 {
		t.Fatal("no shed local requests counted")
	}
	if snap := h.servers[1].Counters(); snap.FalseHits == 0 {
		t.Fatalf("requester counters = %+v, want a false hit from the refused serve", snap)
	}
}

// TestShedServesParkedStaleUnderOverload: at level 2 a miss with a parked
// SWR body degrades to stale-overload instead of a 503.
func TestShedServesParkedStaleUnderOverload(t *testing.T) {
	h := startCluster(t, 1, func(i int, cfg *Config) {
		cfg.Shed = true
		cfg.ShedLowWatermark = 30 * time.Millisecond
		cfg.ShedHighWatermark = 100 * time.Millisecond
		cfg.SWR = true
	})
	s := h.servers[0]
	// A stale window longer than the test, so the parked body outlasts the
	// wait for overload.
	s.swr.mu.Lock()
	s.swr.window = time.Minute
	s.swr.mu.Unlock()
	registerNullCGI(s)
	s.CGI().Register("/cgi-bin/slow", &cgi.Synthetic{ServiceTime: 150 * time.Millisecond, OutputSize: 64})

	// Warm, then invalidate: the body parks in the SWR cell.
	stale := "/cgi-bin/null?stale=1"
	want := h.get(t, 0, stale).Body
	if n := s.Invalidate("GET " + stale); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.client.Get(h.addr(0), fmt.Sprintf("/cgi-bin/slow?g=%d&i=%d", g, i))
			}
		}(g)
	}
	defer func() { close(stop); wg.Wait() }()

	waitUntil(t, "a stale-overload response", func() bool {
		resp, err := h.client.Get(h.addr(0), stale)
		if err != nil {
			return false
		}
		switch resp.Header.Get("X-Swala-Cache") {
		case "stale-overload":
			if resp.StatusCode != 200 || string(resp.Body) != string(want) {
				t.Fatalf("stale response = %d, body match %v", resp.StatusCode, string(resp.Body) == string(want))
			}
			return true
		case "local":
			// A probe slipped through a low-level window, executed, and
			// re-cached the entry; evict it back into the cell and retry.
			s.Invalidate("GET " + stale)
			return false
		default:
			return false
		}
	})
	if metric(s, "swala_shed_total", "class", "stale") == 0 {
		t.Fatal("no stale sheds counted")
	}
}

// TestShedWhileDrainingShutdown: closing a node mid-overload, with shed
// refusals and queued executions in flight, must not deadlock or race.
func TestShedWhileDrainingShutdown(t *testing.T) {
	h := startCluster(t, 1, func(i int, cfg *Config) {
		cfg.Shed = true
		cfg.ShedLowWatermark = 20 * time.Millisecond
		cfg.ShedHighWatermark = 60 * time.Millisecond
	})
	s := h.servers[0]
	s.CGI().Register("/cgi-bin/slow", &cgi.Synthetic{ServiceTime: 100 * time.Millisecond, OutputSize: 64})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors and 503s are both fine — the server is overloaded
				// and then dying; only a hang or a race is a failure.
				h.client.Get(h.addr(0), fmt.Sprintf("/cgi-bin/slow?g=%d&i=%d", g, i))
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond) // let the queue and shed level build

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung while shedding and draining")
	}
	close(stop)
	wg.Wait()
}
