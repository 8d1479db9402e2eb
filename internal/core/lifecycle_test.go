package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cacheability"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/store"
)

// TestReadFaultLeavesNoOrphan: a local hit whose body read fails drops the
// directory entry and, with it, the store's record. With the store's writes
// failing too, the re-execution cannot overwrite that record, so a record
// left behind would be a live body no directory entry points to: out of
// reach of waves, the purge daemon, and the cleaner's liveness test.
func TestReadFaultLeavesNoOrphan(t *testing.T) {
	mem := netx.NewMem()
	ffs := store.NewFaultFS(nil)
	l, _, err := store.OpenLog(t.TempDir(), store.LogOptions{FS: ffs})
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
	registerNullCGI(s)
	if err := s.Start("rf-http", "rf-clu"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := httpclient.New(mem)
	defer client.Close()
	get := func(want string) {
		t.Helper()
		resp, err := client.Get("rf-http", "/cgi-bin/null?x=1")
		if err != nil {
			t.Fatal(err)
		}
		if src := resp.Header.Get("X-Swala-Cache"); resp.StatusCode != 200 || src != want {
			t.Fatalf("GET = %d from %q, want 200 from %q", resp.StatusCode, src, want)
		}
	}
	get("")      // executed and cached
	get("local") // the body is in the store

	ffs.FailReads(syscall.EIO)
	ffs.FailWrites(syscall.EIO)
	get("") // the body cannot be read: re-executed, and the Put fails
	ffs.FailReads(nil)
	ffs.FailWrites(nil)

	if why := checkBodies(s); why != "" {
		t.Fatal(why)
	}
	if n := metric(s, "swala_missing_bodies_total"); n != 1 {
		t.Fatalf("swala_missing_bodies_total = %v, want 1", n)
	}
}

// checkBodies reports how s's log store fails to hold exactly the bodies of
// its local entries — an entry whose location does not read back a record of
// its own key, or live bytes beyond the entries' records — or "" when it
// holds them.
func checkBodies(s *Server) string {
	l := s.Store().(*store.Log)
	var listed int64
	for _, e := range s.Directory().SnapshotLocal() {
		_, _, release, err := l.ReadAt(e.Key, e.Loc)
		if err != nil {
			return fmt.Sprintf("entry %q has no body at its location: %v", e.Key, err)
		}
		release()
		listed += int64(e.Loc.Len())
	}
	if live := l.LiveBytes(); live != listed {
		return fmt.Sprintf("the log holds %d live bytes, its %d local entries' records %d", live, s.Directory().LocalLen(), listed)
	}
	return ""
}

// TestOwnedEntryLifecycle churns small caches in both profiles — a two-node
// Paper cluster, and a Production cluster that a third node joins mid-run
// (ring handoff, replicas, stale-while-revalidate) — with evictions, TTL
// expiry, purges and invalidation waves interleaved, on log stores with 16
// KiB segments and a cleaner that runs at any dead byte, so records move
// under installs and removals. Once the cluster is quiet, each node's store
// holds exactly the bodies of its local directory entries.
func TestOwnedEntryLifecycle(t *testing.T) {
	const (
		capacity = 8
		keys     = 40
		ttl      = 30 * time.Millisecond
		churn    = 400 * time.Millisecond
	)
	for _, profile := range []string{"paper", "production"} {
		t.Run(profile, func(t *testing.T) {
			mem := netx.NewMem()
			h := &harness{mem: mem, client: httpclient.New(mem)}
			t.Cleanup(func() { h.client.Close() })
			nodes := 2
			if profile == "production" {
				nodes = 3
			}
			start := func(i int) {
				cfg := Paper()
				if profile == "production" {
					cfg = Production()
					cfg.HotRPS = 2
					cfg.HotInterval = 20 * time.Millisecond
				}
				cfg.NodeID = uint32(i + 1)
				cfg.Network = mem
				cfg.FetchTimeout = 2 * time.Second
				cfg.PurgeInterval = time.Hour // the test purges
				cfg.CacheCapacity = capacity
				cfg.Cacheability = cacheability.CacheAll(ttl)
				l, _, err := store.OpenLog(t.TempDir(), store.LogOptions{SegmentMaxBytes: 16 << 10, CompactMinBytes: 1})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store = l
				s := New(cfg)
				registerNullCGI(s)
				if err := s.Start(h.addr(i), fmt.Sprintf("clu-%d", i+1)); err != nil {
					t.Fatal(err)
				}
				h.servers = append(h.servers, s)
				t.Cleanup(func() { s.Close() })
			}
			live := nodes
			if profile == "paper" {
				start(0)
				start(1)
				for i, j := range []int{1, 0} {
					if err := h.servers[i].ConnectPeer(uint32(j+1), fmt.Sprintf("clu-%d", j+1)); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				// The third node joins during the churn.
				live = 2
				for i := 0; i < live; i++ {
					start(i)
					if i > 0 {
						if err := h.servers[i].JoinRing(context.Background(), []string{"clu-1"}); err != nil {
							t.Fatal(err)
						}
					}
				}
				waitRingSize(t, h.servers, live)
				waitMeshConnected(t, h.servers)
			}

			var mu sync.Mutex // guards live against the client goroutines
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w + 1)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						mu.Lock()
						n := rng.Intn(live)
						mu.Unlock()
						uri := fmt.Sprintf("/cgi-bin/null?k=%d", rng.Intn(keys))
						resp, err := h.client.Get(h.addr(n), uri)
						if err != nil || resp.StatusCode != 200 {
							t.Errorf("GET %s on node %d: %v", uri, n+1, err)
							return
						}
					}
				}(w)
			}
			rng := rand.New(rand.NewSource(99))
			deadline := time.Now().Add(churn)
			for step := 0; time.Now().Before(deadline) && !t.Failed(); step++ {
				time.Sleep(10 * time.Millisecond)
				mu.Lock()
				n := live
				mu.Unlock()
				if step%2 == 0 {
					h.servers[rng.Intn(n)].Invalidate(fmt.Sprintf("GET /cgi-bin/null?k=%d*", rng.Intn(4)))
				} else {
					for _, s := range h.servers[:n] {
						s.PurgeExpired()
					}
				}
				if profile == "production" && step == 10 {
					start(2)
					if err := h.servers[2].JoinRing(context.Background(), []string{"clu-1"}); err != nil {
						t.Fatal(err)
					}
					waitRingSize(t, h.servers, 3)
					mu.Lock()
					live = 3
					mu.Unlock()
				}
			}
			close(stop)
			wg.Wait()
			if live != nodes {
				t.Fatalf("%d of %d nodes joined during the churn", live, nodes)
			}

			// Handoff pulls and replica pulls and drops finish on their own
			// goroutines; an orphan, once made, never goes away.
			var why string
			quiet := func() bool {
				for i, s := range h.servers {
					if why = checkBodies(s); why != "" {
						why = fmt.Sprintf("node %d: %s", i+1, why)
						return false
					}
				}
				return true
			}
			for end := time.Now().Add(5 * time.Second); !quiet(); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(end) {
					t.Fatal(why)
				}
			}
			var inserts int64
			for i, s := range h.servers {
				if n := metric(s, "swala_missing_bodies_total"); n != 0 {
					t.Errorf("node %d: swala_missing_bodies_total = %v without a fault", i+1, n)
				}
				inserts += s.Counters().Inserts
			}
			if inserts <= capacity*int64(nodes) {
				t.Fatalf("%d inserts over %d nodes: the caches never churned", inserts, nodes)
			}
		})
	}
}
