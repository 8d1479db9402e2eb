package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accesslog"
	"repro/internal/cacheability"
	"repro/internal/stats"
)

// startHotRing builds an n-node ring with adaptive replication on and fast
// controller ticks, so replicas form and retire within test timeouts.
func startHotRing(t *testing.T, n int, mutate func(i int, cfg *Config)) *harness {
	t.Helper()
	return startRing(t, n, func(i int, cfg *Config) {
		cfg.ReplicateHot = true
		cfg.HotRPS = 2
		cfg.HotReplicas = 2
		cfg.HotInterval = 20 * time.Millisecond
		if mutate != nil {
			mutate(i, cfg)
		}
	})
}

// hammer issues the URI from every node but the owner until stop is closed,
// failing the test on any non-200. It returns a counter of "replica"-sourced
// responses.
func hammer(t *testing.T, h *harness, uri string, owner int, stop chan struct{}) (*sync.WaitGroup, *atomic.Int64) {
	t.Helper()
	var wg sync.WaitGroup
	var viaReplica atomic.Int64
	for i := range h.servers {
		if i == owner {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := h.client.Get(h.addr(i), uri)
				if err != nil {
					// A node killed mid-read surfaces as a transport error on
					// requests already in its HTTP server; tolerate only those.
					continue
				}
				if resp.StatusCode != 200 {
					t.Errorf("node %d: status %d", i+1, resp.StatusCode)
					return
				}
				if resp.Header.Get("X-Swala-Cache") == "replica" {
					viaReplica.Add(1)
				}
			}
		}(i)
	}
	return &wg, &viaReplica
}

func TestReplicateHotFormsServesAndRetires(t *testing.T) {
	h := startHotRing(t, 4, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	const ownerID = 2
	uri := uriOwnedBy(t, h.servers[0], ownerID)
	owner := h.servers[ownerID-1]

	stop := make(chan struct{})
	wg, viaReplica := hammer(t, h, uri, ownerID-1, stop)
	waitUntil(t, "replica holders announced at every node", func() bool {
		for _, s := range h.servers {
			if s.Directory().ReplicatedKeys() < 1 {
				return false
			}
		}
		return true
	})
	waitUntil(t, "a read served from a replica holder", func() bool {
		return viaReplica.Load() > 0
	})
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if metric(owner, "swala_replica_pushes_total") == 0 {
		t.Fatal("owner pushed no replicas")
	}

	// With the load gone, the decayed rate collapses and every copy retires.
	waitUntil(t, "replicas to retire after load stops", func() bool {
		for _, s := range h.servers {
			if s.Directory().ReplicatedKeys() != 0 {
				return false
			}
			if metric(s, "swala_replica_held") != 0 {
				return false
			}
		}
		return true
	})
	// The entry itself must survive retirement at its home owner.
	if _, ok := owner.Directory().LookupLocal("GET "+uri, time.Now()); !ok {
		t.Fatal("home owner lost the entry when its replicas retired")
	}
}

// TestAccessLogRecordsReplicaHit: a read served by a replica holder is
// logged with the source its response names, not as an execution.
func TestAccessLogRecordsReplicaHit(t *testing.T) {
	bufs := make([]bytes.Buffer, 4)
	logs := make([]*accesslog.Writer, len(bufs))
	for i := range bufs {
		logs[i] = accesslog.NewWriter(&bufs[i])
	}
	h := startHotRing(t, len(bufs), func(i int, cfg *Config) { cfg.AccessLog = logs[i] })
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	const ownerID = 2
	uri := uriOwnedBy(t, h.servers[0], ownerID)

	stop := make(chan struct{})
	wg, viaReplica := hammer(t, h, uri, ownerID-1, stop)
	waitUntil(t, "a read served from a replica holder", func() bool {
		return viaReplica.Load() > 0
	})
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	logged := 0
	for i := range logs {
		if err := logs[i].Flush(); err != nil {
			t.Fatal(err)
		}
		entries, err := accesslog.Parse(&bufs[i])
		if err != nil {
			t.Fatalf("node %d: unparseable access log: %v", i+1, err)
		}
		for _, e := range entries {
			if e.CacheSource == "replica" {
				logged++
			}
		}
	}
	if want := viaReplica.Load(); int64(logged) < want {
		t.Fatalf("%d replica entries logged, %d responses served from a replica", logged, want)
	}
}

func TestReplicaHolderDeathFallsBackToHome(t *testing.T) {
	h := startHotRing(t, 4, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	const ownerID = 2
	uri := uriOwnedBy(t, h.servers[0], ownerID)
	key := "GET " + uri

	stop := make(chan struct{})
	wg, _ := hammer(t, h, uri, ownerID-1, stop)
	waitUntil(t, "replica holders announced at every node", func() bool {
		for _, s := range h.servers {
			if s.Directory().ReplicatedKeys() < 1 {
				return false
			}
		}
		return true
	})

	// Kill one announced holder abruptly while the readers keep going: reads
	// routed to it must fall back to the home owner, never fail.
	holders := h.servers[0].Directory().ReplicaHolders(key)
	if len(holders) == 0 {
		t.Fatal("no holders recorded")
	}
	victim := h.servers[holders[0]-1]
	victim.Close()
	// Keep reading through the fallback window.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Requesters that hit the dead holder drop it from their holder sets.
	waitUntil(t, "dead holder dropped from requester holder sets", func() bool {
		for i, s := range h.servers {
			if s == victim || i == ownerID-1 {
				continue
			}
			for _, hd := range s.Directory().ReplicaHolders(key) {
				if hd == holders[0] {
					return false
				}
			}
		}
		return true
	})
}

func TestReplicaControllerChurnDuringJoin(t *testing.T) {
	h := startHotRing(t, 3, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	uri := uriOwnedBy(t, h.servers[0], 2)

	stop := make(chan struct{})
	wg, _ := hammer(t, h, uri, 1, stop)

	// Two nodes join mid-load: handoff, ring-change promotion/forget, and the
	// controller's push/retire loop all race the readers (the -race CI step
	// repeats this test).
	for i := 3; i < 5; i++ {
		cfg := Config{
			NodeID:        uint32(i + 1),
			Mode:          Cooperative,
			Network:       h.mem,
			FetchTimeout:  2 * time.Second,
			PurgeInterval: time.Hour,
			RingPlacement: true,
			ReplicateHot:  true,
			HotRPS:        2,
			HotReplicas:   2,
			HotInterval:   20 * time.Millisecond,
		}
		s := New(cfg)
		registerNullCGI(s)
		if err := s.Start(fmt.Sprintf("http-%d", i+1), fmt.Sprintf("clu-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		h.servers = append(h.servers, s)
		t.Cleanup(func() { s.Close() })
		if err := s.JoinRing(context.Background(), []string{"clu-1"}); err != nil {
			t.Fatal(err)
		}
	}
	waitRingSize(t, h.servers, 5)
	time.Sleep(100 * time.Millisecond) // churn window under load
	close(stop)
	wg.Wait()
}

func TestRoutedMissNegativeHintSkipsRepeatHop(t *testing.T) {
	// MinExecTime far above any real execution: every key is cacheable (so
	// misses route to their ring owner) but nothing is ever worth inserting —
	// each routed miss executes at the owner WITHOUT being stored.
	h := startHotRing(t, 2, func(i int, cfg *Config) {
		pol := cacheability.NewPolicy()
		pol.Add("/cgi-bin/*", cacheability.Cache, time.Hour)
		pol.MinExecTime = time.Hour
		cfg.Cacheability = pol
	})
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	uri := uriOwnedBy(t, h.servers[0], 2)
	requester := h.servers[0]

	if src := h.get(t, 0, uri).Header.Get("X-Swala-Cache"); src != "owner" {
		t.Fatalf("first fetch source = %q, want owner (routed execution)", src)
	}
	if n := metric(requester, "swala_replica_hint_skips_total"); n != 0 {
		t.Fatalf("hint skips after first fetch = %v, want 0", n)
	}
	// The immediate re-miss must skip the wasted hop and execute locally.
	if src := h.get(t, 0, uri).Header.Get("X-Swala-Cache"); src != "" {
		t.Fatalf("second fetch source = %q, want local execution", src)
	}
	if n := metric(requester, "swala_replica_hint_skips_total"); n != 1 {
		t.Fatalf("hint skips after second fetch = %v, want 1", n)
	}
}

func TestReplicateHotOffKeepsSingleOwnerSemantics(t *testing.T) {
	// Default-off: no replica state, no hints, routed fetches always hit the
	// home owner — byte-identical to plain ring placement.
	h := startRing(t, 3, nil)
	for _, s := range h.servers {
		registerNullCGI(s)
		if _, ok := stats.Find(s.Metrics(), "swala_replica_held"); ok {
			t.Fatal("replica stats present with -replicate-hot off")
		}
	}
	uri := uriOwnedBy(t, h.servers[0], 2)
	h.get(t, 0, uri)
	for i := 0; i < 50; i++ {
		if src := h.get(t, 0, uri).Header.Get("X-Swala-Cache"); src != "remote" {
			t.Fatalf("fetch %d source = %q, want remote", i, src)
		}
	}
	for _, s := range h.servers {
		if n := s.Directory().ReplicatedKeys(); n != 0 {
			t.Fatalf("holder index populated with replication off: %d", n)
		}
	}
}
