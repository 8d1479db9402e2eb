package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/replacement"
)

// TestPaperProfile: Paper holds the values New filled into a zero Config
// before the profiles existed, and Production keeps its zero cost model
// through New.
func TestPaperProfile(t *testing.T) {
	p := Paper()
	want := Config{
		Mode:              Cooperative,
		Cores:             1,
		Costs:             DefaultCosts(),
		Policy:            replacement.LRU,
		Cacheability:      cacheability.CacheAll(10 * time.Minute),
		PurgeInterval:     time.Second,
		HotRPS:            50,
		HotReplicas:       2,
		HotInterval:       time.Second,
		HedgeTrigger:      100 * time.Millisecond,
		ShedLowWatermark:  100 * time.Millisecond,
		ShedHighWatermark: 400 * time.Millisecond,
	}
	// Every mechanism beyond the paper is off and the failure detector on:
	// want leaves those fields zero.
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("Paper() = %+v\nwant %+v", p, want)
	}

	s := New(Config{NodeID: 1, Costs: DefaultCosts()})
	defer s.Close()
	filled := s.cfg
	filled.Mode, filled.NodeID, filled.Name = p.Mode, 0, ""
	filled.Store, filled.Network, filled.ClusterNetwork, filled.Clock = nil, nil, nil, nil
	if !reflect.DeepEqual(filled, p) {
		t.Fatalf("New filled %+v\nwant Paper's %+v", filled, p)
	}

	prod := Production()
	prod.NodeID = 2
	ps := New(prod)
	defer ps.Close()
	if ps.cfg.Costs != (CostModel{}) {
		t.Fatalf("New(Production()) costs = %+v, want the zero model", ps.cfg.Costs)
	}
}

// rwDB backs a read-write CGI pair shared by every node, like a database
// behind the cluster: /cgi-bin/report?q=<item> renders the item's version
// and declares a read of "db", /cgi-bin/update?item=<item>&n=<n> bumps it and
// declares a write, so a completed update originates an invalidation wave.
type rwDB struct {
	mu   sync.Mutex
	vers map[string]int
}

func (db *rwDB) item(query string) string {
	for _, kv := range strings.Split(query, "&") {
		if k, v, _ := strings.Cut(kv, "="); k == "q" || k == "item" {
			return v
		}
	}
	return query
}

func reportBody(item string, v int) string { return fmt.Sprintf("report %s v%06d\n", item, v) }

type rwReport struct{ db *rwDB }

func (p rwReport) Run(_ context.Context, req cgi.Request) (cgi.Result, error) {
	it := p.db.item(req.Query)
	p.db.mu.Lock()
	defer p.db.mu.Unlock()
	return cgi.Result{Status: 200, ContentType: "text/plain", Body: []byte(reportBody(it, p.db.vers[it]))}, nil
}

type rwUpdate struct{ db *rwDB }

func (p rwUpdate) Run(_ context.Context, req cgi.Request) (cgi.Result, error) {
	it := p.db.item(req.Query)
	p.db.mu.Lock()
	defer p.db.mu.Unlock()
	p.db.vers[it]++
	return cgi.Result{Status: 200, ContentType: "text/plain", Body: []byte(fmt.Sprintf("updated %s\n", it))}, nil
}

// countedGate counts one node's executions of a shared gate.
type countedGate struct {
	*gate
	runs atomic.Int64
}

func (g *countedGate) Run(ctx context.Context, req cgi.Request) (cgi.Result, error) {
	g.runs.Add(1)
	return g.gate.Run(ctx, req)
}

// TestProductionProfile runs the production mechanisms together on three
// Production nodes: ring placement with owner-routed misses, hot-entry
// replication, miss coalescing, write-triggered waves with
// stale-while-revalidate, and no simulated CPU. Only the wall-clock
// replication timings are changed, so replicas form within the test.
func TestProductionProfile(t *testing.T) {
	mem := netx.NewMem()
	h := &harness{mem: mem, client: httpclient.New(mem)}
	t.Cleanup(func() { h.client.Close() })
	db := &rwDB{vers: make(map[string]int)}
	g := &gate{started: make(chan struct{}), release: make(chan struct{})}
	gates := make([]*countedGate, 3)
	for i := 0; i < 3; i++ {
		cfg := Production()
		cfg.NodeID = uint32(i + 1)
		cfg.Network = mem
		cfg.HotRPS = 2
		cfg.HotInterval = 20 * time.Millisecond
		s := New(cfg)
		registerNullCGI(s)
		s.CGI().Register("/cgi-bin/report", rwReport{db})
		s.CGI().RegisterDeps("/cgi-bin/report", cgi.Deps{Reads: []string{"db"}})
		s.CGI().Register("/cgi-bin/update", rwUpdate{db})
		s.CGI().RegisterDeps("/cgi-bin/update", cgi.Deps{Writes: []string{"db"}})
		gates[i] = &countedGate{gate: g}
		s.CGI().Register("/cgi-bin/gate", gates[i])
		if err := s.Start(h.addr(i), fmt.Sprintf("clu-%d", i+1)); err != nil {
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
	waitRingSize(t, h.servers, 3)
	waitMeshConnected(t, h.servers)
	ownerOf := func(uri string) int {
		o, ok := h.servers[0].Cluster().Ring().Owner("GET " + uri)
		if !ok {
			t.Fatalf("no owner for %s", uri)
		}
		return int(o) - 1
	}

	// get fetches uri on node and checks the body byte for byte against
	// what the URI's program renders; it returns the X-Swala-Cache source.
	seen := make(map[string]int)
	var seenMu sync.Mutex
	get := func(node int, uri string, want string) string {
		resp, err := h.client.Get(h.addr(node), uri)
		if err != nil {
			t.Errorf("GET %s on node %d: %v", uri, node+1, err)
			return "error"
		}
		src := resp.Header.Get("X-Swala-Cache")
		if resp.StatusCode != 200 || string(resp.Body) != want {
			t.Errorf("GET %s on node %d (%q): %d %q, want 200 %q", uri, node+1, src, resp.StatusCode, resp.Body, want)
		}
		seenMu.Lock()
		seen[src]++
		seenMu.Unlock()
		return src
	}
	nullBody := func(uri string) string {
		_, query, _ := strings.Cut(uri, "?")
		return string(cgi.GenerateBody("/cgi-bin/null", query, 64))
	}

	// Placement: a miss anywhere executes at the owner; the owner then
	// answers its own reads locally and every other node's remotely, and a
	// hit books no simulated CPU.
	hot := uriOwnedBy(t, h.servers[0], 2)
	owner, a, b := 1, 0, 2
	if src := get(a, hot, nullBody(hot)); src != "owner" {
		t.Fatalf("first read at a non-owner = %q, want owner", src)
	}
	busy, _ := h.servers[owner].node.Usage()
	if src := get(owner, hot, nullBody(hot)); src != "local" {
		t.Fatalf("owner read = %q, want local", src)
	}
	if after, _ := h.servers[owner].node.Usage(); after != busy {
		t.Fatalf("a local hit booked %v of simulated CPU, want none", after-busy)
	}
	if src := get(b, hot, nullBody(hot)); src != "remote" {
		t.Fatalf("read at the other non-owner = %q, want remote", src)
	}

	// Hot key: reads from both non-owners make the key hot at its owner, the
	// replicas spread to the ring successors, and a requester that is not
	// yet (or no longer) a holder routes to the one that is.
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for _, n := range []int{a, b} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for time.Now().Before(deadline) && !t.Failed() {
				get(n, hot, nullBody(hot))
				seenMu.Lock()
				done := seen["replica"] > 0
				seenMu.Unlock()
				if done {
					return
				}
			}
		}(n)
	}
	wg.Wait()

	// Concurrent duplicate misses share one execution at the owner, whether
	// they arrive there or are routed to it from the other nodes. (A
	// requester whose routed fetch outlives the hedge trigger may also run
	// the program itself; that is hedging's trade, bounded by its budget.)
	gateURI := ""
	for k := 0; gateURI == "" || ownerOf(gateURI) != owner; k++ {
		gateURI = fmt.Sprintf("/cgi-bin/gate?k=%d", k)
	}
	attempts := func(node int, stage string) int64 {
		for _, st := range h.servers[node].PipelineSnapshot() {
			if st.Name == stage {
				return st.Attempts
			}
		}
		return 0
	}
	origin0, ringA, ringB := attempts(owner, "origin"), attempts(a, "ring"), attempts(b, "ring")
	for i, n := range []int{owner, owner, a, a, b, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(n, gateURI, "from-before-the-wave")
		}()
		if i == 0 {
			<-g.started
		}
	}
	waitUntil(t, "duplicate misses to reach the owner's flight", func() bool {
		return attempts(owner, "origin") == origin0+2 &&
			attempts(a, "ring") == ringA+2 && attempts(b, "ring") == ringB+2
	})
	close(g.release)
	wg.Wait()
	if n := gates[owner].runs.Load(); n != 1 {
		t.Errorf("six concurrent duplicate misses ran the program %d times at the owner, want 1", n)
	}

	// Read-write pair: a report cached at its owner, then an update routed
	// anywhere. Once the update's wave reached every node, the owner serves
	// the parked pre-update body flagged stale-revalidate while one refresh
	// runs; after that refresh no node serves the pre-update report.
	report := "/cgi-bin/report?q=item001"
	ro := ownerOf(report)
	if src := get(ro, report, reportBody("item001", 0)); src != "" {
		t.Fatalf("first report read at its owner = %q, want an execution", src)
	}
	for n := range h.servers {
		get(n, report, reportBody("item001", 0))
	}
	get((ro+1)%3, "/cgi-bin/update?item=item001&n=1", "updated item001\n")
	waitUntil(t, "the update's wave to reach every node", func() bool {
		for _, origin := range h.servers {
			for _, s := range h.servers {
				if s != origin && s.Directory().PeerVersion(origin.cfg.NodeID) < origin.Directory().LastWave() {
					return false
				}
			}
		}
		return true
	})
	if src := get(ro, report, reportBody("item001", 0)); src != "stale-revalidate" {
		t.Fatalf("owner's first read after the wave = %q, want stale-revalidate", src)
	}
	waitUntil(t, "the stale-while-revalidate refresh", func() bool {
		_, ok := h.servers[ro].Directory().LookupLocal("GET "+report, time.Now())
		return ok
	})
	for n := range h.servers {
		if src := get(n, report, reportBody("item001", 1)); src == "stale-revalidate" {
			t.Fatalf("node %d still serves the pre-update report after the refresh", n+1)
		}
	}

	for _, src := range []string{"", "owner", "remote", "local", "replica", "coalesced", "stale-revalidate"} {
		if seen[src] == 0 {
			t.Errorf("no response with X-Swala-Cache %q; saw %v", src, seen)
		}
	}
}
