package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cgi"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/wire"
)

func TestWaveInvalidationPropagates(t *testing.T) {
	h := startCluster(t, 3, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	key := "GET /cgi-bin/null?x=1"
	h.get(t, 0, "/cgi-bin/null?x=1")
	waitUntil(t, "directory propagation", func() bool {
		for _, s := range h.servers {
			if _, ok := s.Directory().Lookup(key, time.Now()); !ok {
				return false
			}
		}
		return true
	})

	// Invalidate from a node that does NOT own the entry: the wave must reach
	// the owner and drop it there, and every node's directory view converges.
	if n := h.servers[2].Invalidate("GET /cgi-bin/null*"); n != 0 {
		t.Fatalf("non-owner dropped %d local entries", n)
	}
	waitUntil(t, "wave to drop the entry everywhere", func() bool {
		for _, s := range h.servers {
			if _, ok := s.Directory().Lookup(key, time.Now()); ok {
				return false
			}
		}
		return true
	})
	// The next fetch is a fresh execution, not any kind of cache hit.
	if src := h.get(t, 0, "/cgi-bin/null?x=1").Header.Get("X-Swala-Cache"); src != "" {
		t.Fatalf("post-wave fetch source = %q, want origin execution", src)
	}
}

// Regression (invalidation vs -replicate-hot): a wave must retire matching
// held replicas in full — lease record, announcement, body — not just the
// directory entry. Pre-fix, invalidateLocal removed the holder's entry but
// left rep.held and the cluster-wide holder index intact, so healing waited
// on the next controller tick; with ticks dormant (as under controller
// stall or a long HotInterval) holders kept serving the stale replica body.
// The test freezes the controller (HotInterval = 1h), forms replicas by
// driving the tracker and ticking manually, then asserts invalidation alone
// retires everything: the holders drop their copies when the wave reaches
// them, with no retire push from the owner.
func TestInvalidateRetiresHeldReplicaLeases(t *testing.T) {
	h := startHotRing(t, 4, func(i int, cfg *Config) {
		cfg.HotInterval = time.Hour // dormant: no tick-time self-healing
	})
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	const ownerID = 2
	uri := uriOwnedBy(t, h.servers[0], ownerID)
	key := "GET " + uri
	owner := h.servers[ownerID-1]

	h.get(t, ownerID-1, uri) // owner executes and caches its own key
	for i := 0; i < 50; i++ {
		owner.rep.tracker.Bump(key)
	}
	// One manual controller round: the burst makes the key hot and pushes
	// replicas to the two ring successors, which pull asynchronously.
	owner.replicaTick(time.Now(), 100*time.Millisecond)
	waitUntil(t, "two replica holders with live leases", func() bool {
		held := 0
		for i, s := range h.servers {
			if i == ownerID-1 {
				continue
			}
			held += int(metric(s, "swala_replica_held"))
		}
		return held == 2
	})
	waitUntil(t, "holder announcements reach every node", func() bool {
		if len(owner.Directory().ReplicaHolders(key)) < 2 {
			return false
		}
		for _, s := range h.servers {
			// A holder doesn't hear its own broadcast; it still sees the other's.
			if s.Directory().ReplicatedKeys() < 1 {
				return false
			}
		}
		return true
	})

	h.servers[0].Invalidate("GET /cgi-bin/null*")

	// No controller tick will run for an hour: the invalidation itself must
	// have retired the leases and the holder routes.
	waitUntil(t, "held replica leases retired by the invalidation", func() bool {
		for _, s := range h.servers {
			if metric(s, "swala_replica_held") != 0 {
				return false
			}
		}
		return true
	})
	waitUntil(t, "holder index cleared on every node", func() bool {
		for _, s := range h.servers {
			if s.Directory().ReplicatedKeys() != 0 {
				return false
			}
		}
		return true
	})
	// The owner hears the wave from node 1 on its own link, so the holders'
	// retire announcements can clear every holder index first.
	waitUntil(t, "owner to drop the invalidated entry", func() bool {
		_, ok := owner.Directory().LookupLocal(key, time.Now())
		return !ok
	})
	// A read from a former holder must re-execute, never serve the replica.
	if src := h.get(t, 0, uri).Header.Get("X-Swala-Cache"); src == "replica" || src == "local" {
		t.Fatalf("post-invalidation read source = %q, want a fresh execution", src)
	}
}

// gate is a CGI program that blocks until released, so tests can hold an
// execution in flight while something else happens.
type gate struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gate) Run(ctx context.Context, req cgi.Request) (cgi.Result, error) {
	g.once.Do(func() { close(g.started) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return cgi.Result{}, ctx.Err()
	}
	return cgi.Result{Status: 200, ContentType: "text/plain", Body: []byte("from-before-the-wave")}, nil
}

// Regression: an execution already in flight when a wave arrives used to
// store its result AFTER the wave had passed, resurrecting invalidated
// content with a full TTL. Flights are stamped with the wave apply-version
// at launch and their results discarded on store if a matching wave applied
// in between. (CI repeats this test under -race.)
func TestWaveDiscardsSupersededInflightResult(t *testing.T) {
	h := startCluster(t, 1, nil)
	s := h.servers[0]
	g := &gate{started: make(chan struct{}), release: make(chan struct{})}
	s.CGI().Register("/cgi-bin/block", g)
	key := "GET /cgi-bin/block?x=1"

	done := make(chan *int, 1)
	go func() {
		resp := h.get(t, 0, "/cgi-bin/block?x=1")
		done <- &resp.StatusCode
	}()
	<-g.started

	// The wave passes while the execution is still blocked inside the CGI.
	s.Invalidate("GET /cgi-bin/block*")
	close(g.release)

	if status := <-done; *status != 200 {
		t.Fatalf("in-flight request status = %d", *status)
	}
	// The request itself succeeded, but its result is from before the wave
	// and must not have been cached.
	if _, ok := s.Directory().LookupLocal(key, time.Now()); ok {
		t.Fatal("superseded in-flight result was stored")
	}
}

// Satellite: a node partitioned away during an invalidation converges after
// the partition heals — the wave journal replays over the anti-entropy sync
// path, so the stale entry is dropped without any re-send from the origin.
func TestWaveSyncHealsPartitionedNode(t *testing.T) {
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
	get := func(node int, uri string) string {
		t.Helper()
		resp, err := client.Get(fmt.Sprintf("http-%d", node+1), uri)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s on node %d: err=%v resp=%+v", uri, node+1, err, resp)
		}
		return resp.Header.Get("X-Swala-Cache")
	}

	key := "GET /cgi-bin/null?x=1"
	get(1, "/cgi-bin/null?x=1") // node 2 caches it locally
	waitUntil(t, "directory propagation", func() bool {
		_, ok := servers[0].Directory().Lookup(key, time.Now())
		return ok
	})

	faulty.Partition("clu-1", "clu-2")
	servers[0].Invalidate("GET /cgi-bin/null*")

	// The partitioned holder can't know yet: it still serves its local copy.
	if src := get(1, "/cgi-bin/null?x=1"); src != "local" {
		t.Fatalf("partitioned node source = %q, want local (wave not yet seen)", src)
	}

	faulty.Heal("clu-1", "clu-2")
	// Recovery recycles the link; the handshake's floor exchange makes node 1
	// replay the missed wave, and node 2 drops the stale entry.
	waitUntil(t, "missed wave replayed after heal", func() bool {
		_, ok := servers[1].Directory().LookupLocal(key, time.Now())
		return !ok
	})
	if src := get(1, "/cgi-bin/null?x=1"); src != "" {
		t.Fatalf("post-heal source = %q, want fresh execution (no stale serve)", src)
	}
}

func TestSWRServesStaleDuringRefresh(t *testing.T) {
	h := startCluster(t, 1, func(i int, cfg *Config) {
		cfg.SWR = true
	})
	s := h.servers[0]
	registerNullCGI(s)
	key := "GET /cgi-bin/null?x=1"

	h.get(t, 0, "/cgi-bin/null?x=1")
	if src := h.get(t, 0, "/cgi-bin/null?x=1").Header.Get("X-Swala-Cache"); src != "local" {
		t.Fatalf("warm-up source = %q, want local", src)
	}

	s.Invalidate("GET /cgi-bin/null*")
	if _, ok := s.Directory().LookupLocal(key, time.Now()); ok {
		t.Fatal("entry survived the invalidation")
	}

	// During the stale window the old body is served, flagged, while one
	// background flight refreshes the entry.
	resp := h.get(t, 0, "/cgi-bin/null?x=1")
	if src := resp.Header.Get("X-Swala-Cache"); src != "stale-revalidate" {
		t.Fatalf("stale-window source = %q, want stale-revalidate", src)
	}
	if len(resp.Body) != 64 {
		t.Fatalf("stale body = %d bytes, want the parked 64", len(resp.Body))
	}
	waitUntil(t, "background refresh to restore a local hit", func() bool {
		return h.get(t, 0, "/cgi-bin/null?x=1").Header.Get("X-Swala-Cache") == "local"
	})
}

// Satellite: an admin invalidation reports how many peers the fan-out could
// not reach right now (links still dialing, severed), instead of silently
// dropping them — the count swalactl invalidate surfaces.
func TestAdminInvalidateCountsUnreachedPeers(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	key := "GET /cgi-bin/null?x=1"
	h.get(t, 0, "/cgi-bin/null?x=1")
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})
	// A third peer that never answers: ConnectPeer registers it as intended
	// before the first dial attempt and then retries in the background of
	// this goroutine until the node closes — the "link still dialing" state.
	go h.servers[0].ConnectPeer(3, "clu-3")
	time.Sleep(50 * time.Millisecond)

	matched, peers, unreached := (*clusterHandler)(h.servers[0]).HandleInvalidate(
		&wire.Invalidate{Origin: wire.AdminID, Pattern: "GET /cgi-bin/null*", Seq: 1})
	if matched != 1 {
		t.Fatalf("matched = %d, want 1", matched)
	}
	if peers != 2 || unreached != 1 {
		t.Fatalf("peers = %d, unreached = %d, want 2 intended with 1 unreached", peers, unreached)
	}
}

// Tentpole: declared write dependencies originate waves. A successful
// execution of a writer program invalidates every cached result of each
// reader of the written resource, cluster-wide.
func TestWriteDepsTriggerWave(t *testing.T) {
	h := startCluster(t, 2, nil)
	for _, s := range h.servers {
		s.CGI().Register("/cgi-bin/report", &cgi.Synthetic{OutputSize: 64})
		s.CGI().RegisterDeps("/cgi-bin/report", cgi.Deps{Reads: []string{"db"}})
		s.CGI().Register("/cgi-bin/update", &cgi.Synthetic{OutputSize: 8})
		s.CGI().RegisterDeps("/cgi-bin/update", cgi.Deps{Writes: []string{"db"}})
	}
	key := "GET /cgi-bin/report?q=1"
	h.get(t, 0, "/cgi-bin/report?q=1")
	waitUntil(t, "directory propagation", func() bool {
		_, ok := h.servers[1].Directory().Lookup(key, time.Now())
		return ok
	})

	// The write executes on the OTHER node; its wave must drop the reader's
	// cached result back on node 1.
	h.get(t, 1, "/cgi-bin/update?go=1")
	waitUntil(t, "write-triggered wave to drop the reader's entry", func() bool {
		_, ok := h.servers[0].Directory().LookupLocal(key, time.Now())
		return !ok
	})
	if src := h.get(t, 0, "/cgi-bin/report?q=1").Header.Get("X-Swala-Cache"); src != "" {
		t.Fatalf("post-write fetch source = %q, want fresh execution", src)
	}
}
