package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/httpclient"
	"repro/internal/netx"
)

// fastHealth makes the failure detector converge in a few hundred
// milliseconds for tests.
func fastHealth(cfg *Config) {
	cfg.HealthProbeInterval = 20 * time.Millisecond
	cfg.HealthProbeTimeout = 20 * time.Millisecond
	cfg.HealthSuspectAfter = 2
	cfg.HealthDeadAfter = 4
}

// TestDeadPeerQuarantinedAndServedLocally: once the detector declares a peer
// dead, its directory entries are quarantined — a request that maps to them
// is an ordinary local miss served immediately, not a remote fetch that has
// to wait out FetchTimeout.
func TestDeadPeerQuarantinedAndServedLocally(t *testing.T) {
	h := startCluster(t, 2, func(i int, cfg *Config) {
		fastHealth(cfg)
		cfg.FetchTimeout = 2 * time.Second
	})
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	key := "GET /cgi-bin/null?x=1"

	// Warm node 1's cache and wait for the entry to replicate to node 2.
	h.get(t, 0, "/cgi-bin/null?x=1")
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	// Kill node 1; node 2 must quarantine its entries.
	h.servers[0].Close()
	waitUntil(t, "quarantine of node 1", func() bool {
		return h.servers[1].Directory().IsQuarantined(1)
	})
	if q, _ := h.servers[1].QuarantineStats(); q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
	}

	// The key still physically exists in node 2's replica of node 1's table,
	// but Lookup must skip it now.
	if _, ok := h.servers[1].Directory().Lookup(key, time.Now()); ok {
		t.Fatal("dead peer's entry still visible to Lookup")
	}

	// A request for the dead node's key is served locally, fast.
	start := time.Now()
	resp := h.get(t, 1, "/cgi-bin/null?x=1")
	elapsed := time.Since(start)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("request took %v, want immediate local execution (FetchTimeout is 2s)", elapsed)
	}
	snap := h.servers[1].Counters()
	if snap.RemoteHits != 0 {
		t.Fatalf("counters = %+v, want no remote fetch to a dead peer", snap)
	}

	// The status page reports the quarantine.
	body := string(h.get(t, 1, StatusPath).Body)
	for _, want := range []string{`swala_peer_state{peer="1",state="dead",`, `swala_peer_quarantined{peer="1"} 1`, "\nswala_quarantines_total 1\n"} {
		if !strings.Contains(body, want) {
			t.Fatalf("status page missing %q:\n%s", want, body)
		}
	}
}

// TestHealthDisabledKeepsPaperSemantics: with -health=false nothing probes,
// nothing is quarantined, and a request that maps to a dead peer's entry
// degrades the paper's way — attempt the fetch, count a false hit, fall back
// to local execution.
func TestHealthDisabledKeepsPaperSemantics(t *testing.T) {
	h := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.DisableHealth = true
		cfg.FetchTimeout = time.Second
	})
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	key := "GET /cgi-bin/null?x=1"
	h.get(t, 0, "/cgi-bin/null?x=1")
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	h.servers[0].Close()
	// Give a detector (if one were wrongly running) ample time to react.
	time.Sleep(150 * time.Millisecond)
	if h.servers[1].Directory().IsQuarantined(1) {
		t.Fatal("health disabled but node 1 was quarantined")
	}
	if hp := h.servers[1].Cluster().PeerHealth(); hp != nil {
		t.Fatalf("health disabled but PeerHealth = %+v", hp)
	}
	if _, ok := h.servers[1].Directory().Lookup(key, time.Now()); !ok {
		t.Fatal("dead peer's entry vanished without quarantine")
	}

	// The request still succeeds by falling back to local execution after
	// the failed fetch — the paper's false-hit path.
	resp := h.get(t, 1, "/cgi-bin/null?x=1")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	snap := h.servers[1].Counters()
	if snap.FalseHits != 1 {
		t.Fatalf("counters = %+v, want 1 false hit (paper semantics)", snap)
	}
}

// TestHungPeerQuarantineAndRecovery covers the failure mode the detector
// exists for: a hung host whose kernel keeps ACKing, so no connection ever
// dies and a reactive design pays FetchTimeout on every request. The
// detector's probes time out, the peer is quarantined, and on recovery —
// where no reconnect would naturally happen — the link is recycled to force
// a fresh sync exchange that lifts the quarantine.
func TestHungPeerQuarantineAndRecovery(t *testing.T) {
	mem := netx.NewMem()
	faulty := netx.NewFaulty(mem, 1)
	client := httpclient.New(mem)
	t.Cleanup(func() { client.Close() })

	servers := make([]*Server, 2)
	for i := range servers {
		cfg := Config{
			NodeID:        uint32(i + 1),
			Mode:          Cooperative,
			Network:       faulty.Endpoint(fmt.Sprintf("clu-%d", i+1)),
			FetchTimeout:  time.Second,
			PurgeInterval: time.Hour,
		}
		fastHealth(&cfg)
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
	get := func(node int, uri string) time.Duration {
		t.Helper()
		start := time.Now()
		resp, err := client.Get(fmt.Sprintf("http-%d", node+1), uri)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s on node %d: err=%v resp=%+v", uri, node+1, err, resp)
		}
		return time.Since(start)
	}

	key := "GET /cgi-bin/null?x=1"
	get(0, "/cgi-bin/null?x=1")
	waitUntil(t, "directory propagation", func() bool {
		_, ok := servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	// Hang node 1: every cluster byte to and from it is swallowed, but all
	// connections stay up — the case where nothing ever reports it down.
	faulty.Hang("clu-1")
	waitUntil(t, "quarantine of hung node 1", func() bool {
		return servers[1].Directory().IsQuarantined(1)
	})

	// Requests mapping to the hung node are served locally, fast — not
	// after a FetchTimeout wait.
	if d := get(1, "/cgi-bin/null?x=1"); d > 500*time.Millisecond {
		t.Fatalf("request took %v during hang, want immediate local execution", d)
	}

	// Recovery: probes flow again, the peer turns alive, and the recycled
	// link's fresh sync exchange lifts the quarantine on both sides.
	faulty.Unhang("clu-1")
	waitUntil(t, "quarantine lift on node 2", func() bool {
		return !servers[1].Directory().IsQuarantined(1)
	})
	waitUntil(t, "quarantine lift on node 1", func() bool {
		return len(servers[0].Directory().Quarantined()) == 0
	})
	if _, lifted := servers[1].QuarantineStats(); lifted == 0 {
		t.Fatal("no quarantine lift recorded")
	}
}

// TestQuarantineLiftsAfterRejoinAndResync: restarting the dead node lifts
// the quarantine only after the detector sees it alive AND its anti-entropy
// catch-up has been applied; the stale replica is replaced by the rejoined
// node's (empty) snapshot.
func TestQuarantineLiftsAfterRejoinAndResync(t *testing.T) {
	h := startCluster(t, 2, func(i int, cfg *Config) {
		fastHealth(cfg)
		cfg.FetchTimeout = 2 * time.Second
	})
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	key := "GET /cgi-bin/null?x=1"
	h.get(t, 0, "/cgi-bin/null?x=1")
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	h.servers[0].Close()
	waitUntil(t, "quarantine of node 1", func() bool {
		return h.servers[1].Directory().IsQuarantined(1)
	})

	// Restart node 1 at the same addresses (empty cache) and reconnect it.
	cfg := Config{
		NodeID:        1,
		Mode:          Cooperative,
		Network:       h.mem,
		FetchTimeout:  2 * time.Second,
		PurgeInterval: time.Hour,
	}
	fastHealth(&cfg)
	s1 := New(cfg)
	if err := s1.Start("http-1", "clu-1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	registerNullCGI(s1)
	if err := s1.ConnectPeer(2, "clu-2"); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, "quarantine lift", func() bool {
		return !h.servers[1].Directory().IsQuarantined(1)
	})
	if _, lifted := h.servers[1].QuarantineStats(); lifted != 1 {
		t.Fatalf("lifted = %d, want 1", lifted)
	}
	// The restarted node came back empty, so its full-snapshot catch-up must
	// have wiped the stale entry from node 2's replica.
	if _, ok := h.servers[1].Directory().Lookup(key, time.Now()); ok {
		t.Fatal("stale pre-restart entry survived the rejoin resync")
	}

	// Cooperation works again: warm the restarted node, node 2 fetches.
	h.get(t, 0, "/cgi-bin/null?y=2")
	waitUntil(t, "replication after rejoin", func() bool {
		_, ok := h.servers[1].Directory().Lookup("GET /cgi-bin/null?y=2", time.Now())
		return ok
	})
	resp := h.get(t, 1, "/cgi-bin/null?y=2")
	if got := resp.Header.Get("X-Swala-Cache"); got != "remote" {
		t.Fatalf("cache header after rejoin = %q, want remote", got)
	}
}
