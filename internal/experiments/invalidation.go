package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/stats"
	"repro/internal/workload"
)

// InvalidationResult is the machine-readable outcome of the dependency-based
// invalidation experiment (benchsuite -run invalidation). Four schedules share
// one versioned backing store (every node's CGI programs read the same item
// versions, standing in for the shared database the paper's dynamic content
// is generated from):
//
//  1. Coherence: a read-write mix over a cooperative group; after wave
//     quiescence every item is fetched on every node and byte-compared
//     against its current version. The gate is ZERO stale bodies.
//  2. Replica: the same check with ReplicateHot holders formed for a hot
//     item before the write — the wave must retire the replicas too.
//  3. Partition: a node is partitioned away during the write, serves its
//     stale copy while cut off (counted, expected), and must converge via
//     anti-entropy wave replay after the heal.
//  4. SWR: stale-while-revalidate under a continuous write storm — read p50
//     must stay within 2x of the steady all-hit p50, with stale windows
//     actually exercised.
type InvalidationResult struct {
	Meta Meta `json:"meta"`

	Nodes int `json:"nodes"`
	Items int `json:"items"`

	// Coherence is the read-write-mix schedule on a cooperative group.
	Coherence struct {
		Requests int `json:"requests"`
		// Writes is how many update executions ran (version bumps).
		Writes int64 `json:"writes"`
		// Waves is the total number of invalidation waves originated.
		Waves uint64 `json:"waves"`
		// QuiesceTime is load end until every node's floor of every origin's
		// log reached the origin's newest wave.
		QuiesceTime time.Duration `json:"quiesce_time_ns"`
		// Checked is how many (node, item) bodies were byte-compared.
		Checked int `json:"checked"`
		// StaleServed is how many compared bodies were stale. Gate: 0.
		StaleServed int `json:"stale_served"`
	} `json:"coherence"`

	// Replica is the hot-replica schedule on a ReplicateHot ring.
	Replica struct {
		Holders     int           `json:"holders"`
		QuiesceTime time.Duration `json:"quiesce_time_ns"`
		Checked     int           `json:"checked"`
		StaleServed int           `json:"stale_served"`
	} `json:"replica"`

	// Partition is the partition-during-write schedule.
	Partition struct {
		// StaleDuringCut is whether the partitioned node served its old copy
		// while cut off — expected, the wave cannot reach it.
		StaleDuringCut bool `json:"stale_during_cut"`
		// ConvergeTime is heal until the missed wave was replayed and the
		// node dropped the stale entry.
		ConvergeTime time.Duration `json:"converge_time_ns"`
		Checked      int           `json:"checked"`
		StaleServed  int           `json:"stale_served"`
	} `json:"partition"`

	// SWR is the stale-while-revalidate write-storm schedule.
	SWR struct {
		SteadyP50 time.Duration `json:"steady_p50_ns"`
		StormP50  time.Duration `json:"storm_p50_ns"`
		// StaleServes counts reads answered from the stale window
		// (X-Swala-Cache: stale-revalidate) during the storm.
		StaleServes int   `json:"stale_serves"`
		Writes      int64 `json:"writes"`
	} `json:"swr"`

	// Gates. GateChecked is always true: no special host capability needed.
	GateChecked bool `json:"gate_checked"`
	// CoherenceGate: zero stale bodies after quiescence in the rw mix.
	CoherenceGate bool `json:"coherence_gate"`
	// ReplicaGate: zero stale bodies with replica holders in play.
	ReplicaGate bool `json:"replica_gate"`
	// PartitionGate: zero stale bodies after the heal converged.
	PartitionGate bool `json:"partition_gate"`
	// SWRGate: storm read p50 within 2x of steady p50, stale window used.
	SWRGate bool `json:"swr_gate"`
}

// Failed names the acceptance gates that did not hold.
func (r InvalidationResult) Failed() []string {
	return failedGates(
		gate{"coherence_gate", r.CoherenceGate},
		gate{"replica_gate", r.ReplicaGate},
		gate{"partition_gate", r.PartitionGate},
		gate{"swr_gate", r.SWRGate},
	)
}

// itemStore is the shared versioned backing store: one version counter per
// item, shared by every node's programs — the stand-in for the database a
// dynamic-content site generates pages from.
type itemStore struct {
	vers   []atomic.Int64
	writes atomic.Int64
	// execDelay is wall-clock service time per report execution, making a
	// fresh execution measurably slower than any cache serve (the SWR
	// schedule's latency comparison needs the contrast).
	execDelay time.Duration
}

func newItemStore(items int, execDelay time.Duration) *itemStore {
	return &itemStore{vers: make([]atomic.Int64, items), execDelay: execDelay}
}

// body renders the canonical current content of item k: any served body that
// differs from a later call's rendering (same k) is provably stale.
func (st *itemStore) body(k int) []byte {
	return []byte(fmt.Sprintf("item%03d v%06d %s\n", k, st.vers[k].Load(),
		strings.Repeat("x", 160)))
}

// parseItem extracts the item index from a query like "q=item012&cost=5" or
// "item=012&cost=5"; -1 if absent.
func parseItem(query string) int {
	i := strings.Index(query, "item")
	if i < 0 {
		return -1
	}
	rest := query[i+len("item"):]
	if len(rest) > 0 && rest[0] == '=' {
		rest = rest[1:]
	}
	n, digits := 0, 0
	for _, c := range rest {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return n
}

// reportProgram is the reader CGI: renders the current version of one item.
type reportProgram struct{ st *itemStore }

func (p *reportProgram) Run(ctx context.Context, req cgi.Request) (cgi.Result, error) {
	k := parseItem(req.Query)
	if k < 0 || k >= len(p.st.vers) {
		return cgi.Result{Status: 404, ContentType: "text/plain", Body: []byte("no such item")}, nil
	}
	if p.st.execDelay > 0 {
		select {
		case <-time.After(p.st.execDelay):
		case <-ctx.Done():
			return cgi.Result{}, ctx.Err()
		}
	}
	return cgi.Result{Status: 200, ContentType: "text/plain", Body: p.st.body(k)}, nil
}

// updateProgram is the writer CGI: bumps one item's version.
type updateProgram struct{ st *itemStore }

func (p *updateProgram) Run(ctx context.Context, req cgi.Request) (cgi.Result, error) {
	k := parseItem(req.Query)
	if k < 0 || k >= len(p.st.vers) {
		return cgi.Result{Status: 404, ContentType: "text/plain", Body: []byte("no such item")}, nil
	}
	v := p.st.vers[k].Add(1)
	p.st.writes.Add(1)
	return cgi.Result{Status: 200, ContentType: "text/plain",
		Body: []byte(fmt.Sprintf("item%03d -> v%06d\n", k, v))}, nil
}

// registerRWContent mounts the read-write pair with declared dependencies on
// the shared resource "db" — the declaration that turns writer executions
// into invalidation waves for the reader's cached results.
func registerRWContent(engine *cgi.Engine, st *itemStore) {
	engine.Register("/cgi-bin/report", &reportProgram{st: st})
	engine.RegisterDeps("/cgi-bin/report", cgi.Deps{Reads: []string{"db"}})
	engine.Register("/cgi-bin/update", &updateProgram{st: st})
	engine.RegisterDeps("/cgi-bin/update", cgi.Deps{Writes: []string{"db"}})
}

// rwPolicy caches reads but never the writer's acks (a cached update would
// not execute and so could not originate its wave).
func rwPolicy() *cacheability.Policy {
	pol := cacheability.NewPolicy()
	pol.Add("/cgi-bin/update*", cacheability.NoCache, 0)
	pol.Add("/cgi-bin/private*", cacheability.NoCache, 0)
	pol.Add("/cgi-bin/*", cacheability.Cache, time.Hour)
	pol.DefaultTTL = time.Hour
	return pol
}

// waveQuiesced reports whether every node's floor of every origin's log has
// reached the origin's newest wave — no wave is still in flight or missing.
// A floor passes a wave only once its drop has finished.
func waveQuiesced(servers []*core.Server) bool {
	for _, origin := range servers {
		last := origin.Directory().LastWave()
		for _, n := range servers {
			if n != origin && n.Directory().PeerVersion(origin.Directory().Self()) < last {
				return false
			}
		}
	}
	return true
}

// byteCompare fetches every item on every node and counts bodies that do not
// match the item's canonical current rendering. With no writer running, any
// mismatch is a stale cached body.
func byteCompare(client *httpclient.Client, addrs []string, st *itemStore, items, cost int) (checked, stale int, err error) {
	for _, addr := range addrs {
		for k := 0; k < items; k++ {
			want := string(st.body(k))
			resp, gerr := client.Get(addr, workload.RWReadURI(k, cost))
			if gerr != nil || resp.StatusCode != 200 {
				return checked, stale, fmt.Errorf("invalidation: GET item %d at %s: err=%v", k, addr, gerr)
			}
			checked++
			if string(resp.Body) != want {
				stale++
			}
		}
	}
	return checked, stale, nil
}

// RunInvalidation measures dependency-based invalidation coherence and
// stale-while-revalidate behavior.
func RunInvalidation(o Options) (InvalidationResult, error) {
	o = o.withDefaults()
	var r InvalidationResult
	r.Meta = CollectMeta()
	r.GateChecked = true
	const nodes = 4
	items := o.pick(16, 48)
	r.Nodes, r.Items = nodes, items
	cost := 5 // paper-ms tag in the URIs (the custom programs ignore it)
	clients := 8
	perClient := o.pick(100, 400)
	execDelay := 2 * time.Millisecond

	// --- schedule 1: coherence under a read-write mix ---

	st := newItemStore(items, 0)
	c, err := newSwalaCluster(o, clusterSpec{
		n: nodes, mode: core.Cooperative,
		mutate: func(i int, cfg *core.Config) {
			cfg.Cacheability = rwPolicy()
		},
	})
	if err != nil {
		return r, err
	}
	for _, s := range c.servers {
		registerRWContent(s.CGI(), st)
	}
	d := &workload.Driver{
		Client:  c.client,
		Clients: clients,
		Source:  workload.RWMixSource(c.addrs, items, perClient, cost, 0.15, o.Seed),
	}
	out := d.Run()
	if out.Errors > 0 {
		c.Close()
		return r, fmt.Errorf("invalidation: rw mix: %d errors", out.Errors)
	}
	r.Coherence.Requests = out.Requests
	r.Coherence.Writes = st.writes.Load()
	quiesce, err := waitCond("wave quiescence", 30*time.Second, func() bool {
		return waveQuiesced(c.servers)
	})
	if err != nil {
		c.Close()
		return r, err
	}
	r.Coherence.QuiesceTime = quiesce
	for _, s := range c.servers {
		waves, _ := stats.Find(s.Metrics(), "swala_waves_total", "kind", "originated")
		r.Coherence.Waves += uint64(waves)
	}
	r.Coherence.Checked, r.Coherence.StaleServed, err = byteCompare(c.client, c.addrs, st, items, cost)
	c.Close()
	if err != nil {
		return r, err
	}

	// --- schedule 2: the wave must retire ReplicateHot holders too ---

	st = newItemStore(items, 0)
	rc, err := newScaleoutCluster(o, true, nodes, func(i int, cfg *core.Config) {
		cfg.Cacheability = rwPolicy()
		cfg.ReplicateHot = true
		cfg.HotRPS = 10
		cfg.HotReplicas = 2
		cfg.HotInterval = 25 * time.Millisecond
	})
	if err != nil {
		return r, err
	}
	for _, s := range rc.servers {
		registerRWContent(s.CGI(), st)
	}
	// Hammer item 0 from every node until replica holders are announced.
	hotURI := workload.RWReadURI(0, cost)
	formed := func() bool {
		for _, s := range rc.servers {
			if s.Directory().ReplicatedKeys() < 1 {
				return false
			}
		}
		return true
	}
	for try := 0; try < 400 && !formed(); try++ {
		for _, addr := range rc.addrs {
			if _, err := rc.client.Get(addr, hotURI); err != nil {
				rc.Close()
				return r, fmt.Errorf("invalidation: replica ramp: %w", err)
			}
		}
	}
	if !formed() {
		rc.Close()
		return r, fmt.Errorf("invalidation: no replica holders formed")
	}
	for _, s := range rc.servers {
		r.Replica.Holders += int(count(s.Metrics(), "swala_replica_held"))
	}
	// One write to the hot item; its wave must reach owner and holders.
	if _, err := rc.client.Get(rc.addrs[1], workload.RWWriteURI(0, cost)); err != nil {
		rc.Close()
		return r, fmt.Errorf("invalidation: hot write: %w", err)
	}
	quiesce, err = waitCond("replica wave quiescence", 30*time.Second, func() bool {
		return waveQuiesced(rc.servers)
	})
	if err != nil {
		rc.Close()
		return r, err
	}
	r.Replica.QuiesceTime = quiesce
	r.Replica.Checked, r.Replica.StaleServed, err = byteCompare(rc.client, rc.addrs, st, items, cost)
	rc.Close()
	if err != nil {
		return r, err
	}

	// --- schedule 3: partition during the write, converge after heal ---

	st = newItemStore(items, 0)
	settle()
	mem := netx.NewMem()
	faulty := netx.NewFaulty(mem, o.Seed)
	cluAddr := func(i int) string { return fmt.Sprintf("swala-clu-%d", i+1) }
	pc, err := newSwalaCluster(o, clusterSpec{
		n: 2, mode: core.Cooperative, mem: mem,
		netFor: func(i int) netx.Network { return faulty.Endpoint(cluAddr(i)) },
		mutate: func(i int, cfg *core.Config) {
			cfg.Cacheability = rwPolicy()
			cfg.FetchTimeout = time.Second
			cfg.HealthProbeInterval = 25 * time.Millisecond
			cfg.HealthProbeTimeout = 25 * time.Millisecond
			cfg.HealthSuspectAfter = 2
			cfg.HealthDeadAfter = 4
		},
	})
	if err != nil {
		return r, err
	}
	for _, s := range pc.servers {
		registerRWContent(s.CGI(), st)
	}
	// Node 2 caches item 0, then loses the wave for a write on node 1.
	if _, err := pc.client.Get(pc.addrs[1], workload.RWReadURI(0, cost)); err != nil {
		pc.Close()
		return r, err
	}
	before := string(st.body(0))
	faulty.Partition(cluAddr(0), cluAddr(1))
	if _, err := pc.client.Get(pc.addrs[0], workload.RWWriteURI(0, cost)); err != nil {
		pc.Close()
		return r, err
	}
	resp, err := pc.client.Get(pc.addrs[1], workload.RWReadURI(0, cost))
	if err != nil {
		pc.Close()
		return r, err
	}
	r.Partition.StaleDuringCut = string(resp.Body) == before
	faulty.Heal(cluAddr(0), cluAddr(1))
	conv, err := waitCond("partition heal wave replay", 30*time.Second, func() bool {
		return waveQuiesced(pc.servers)
	})
	if err != nil {
		pc.Close()
		return r, err
	}
	r.Partition.ConvergeTime = conv
	r.Partition.Checked, r.Partition.StaleServed, err = byteCompare(pc.client, pc.addrs, st, items, cost)
	pc.Close()
	if err != nil {
		return r, err
	}

	// --- schedule 4: SWR read latency through a write storm ---

	st = newItemStore(items, execDelay)
	sc, err := newSwalaCluster(o, clusterSpec{
		n: 2, mode: core.Cooperative,
		mutate: func(i int, cfg *core.Config) {
			cfg.SWR = true
			cfg.Cacheability = rwPolicy()
		},
	})
	if err != nil {
		return r, err
	}
	defer sc.Close()
	for _, s := range sc.servers {
		registerRWContent(s.CGI(), st)
	}
	// Warm every item at node 1, where all measured reads land, so each
	// steady read is a local hit.
	for k := 0; k < items; k++ {
		if _, err := sc.client.Get(sc.addrs[0], workload.RWReadURI(k, cost)); err != nil {
			return r, err
		}
	}
	readPass := func(n int) (stats.Summary, int, error) {
		var rec stats.LatencyRecorder
		staleServes := 0
		for i := 0; i < n; i++ {
			k := i % items
			start := time.Now()
			resp, err := sc.client.Get(sc.addrs[0], workload.RWReadURI(k, cost))
			if err != nil || resp.StatusCode != 200 {
				return stats.Summary{}, 0, fmt.Errorf("invalidation: swr read: err=%v", err)
			}
			rec.Record(time.Since(start))
			if resp.Header.Get("X-Swala-Cache") == "stale-revalidate" {
				staleServes++
			}
		}
		return rec.Summary(), staleServes, nil
	}
	readN := o.pick(400, 1600)
	steady, _, err := readPass(readN)
	if err != nil {
		return r, err
	}
	r.SWR.SteadyP50 = steady.P50

	writesBefore := st.writes.Load()
	stormStop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Continuous writes from node 2: every one invalidates the whole
		// reader result set (path-level dependency), the worst case.
		for k := 0; ; k++ {
			select {
			case <-stormStop:
				return
			default:
			}
			sc.client.Get(sc.addrs[1], workload.RWWriteURI(k%items, cost))
			time.Sleep(5 * time.Millisecond)
		}
	}()
	storm, staleServes, err := readPass(readN)
	close(stormStop)
	wg.Wait()
	if err != nil {
		return r, err
	}
	r.SWR.StormP50 = storm.P50
	r.SWR.StaleServes = staleServes
	r.SWR.Writes = st.writes.Load() - writesBefore

	r.CoherenceGate = r.Coherence.StaleServed == 0 && r.Coherence.Writes > 0
	r.ReplicaGate = r.Replica.StaleServed == 0 && r.Replica.Holders > 0
	r.PartitionGate = r.Partition.StaleServed == 0
	r.SWRGate = r.SWR.StormP50 <= 2*r.SWR.SteadyP50 && r.SWR.StaleServes > 0
	return r, nil
}

// Render formats the result as a human-readable report.
func (r InvalidationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dependency-based invalidation: %d nodes, %d items (go %s, GOMAXPROCS %d):\n",
		r.Nodes, r.Items, r.Meta.GoVersion, r.Meta.GOMAXPROCS)
	fmt.Fprintf(&b, "  coherence: %d requests (%d writes, %d waves), quiesced in %v; %d/%d bodies stale\n",
		r.Coherence.Requests, r.Coherence.Writes, r.Coherence.Waves,
		r.Coherence.QuiesceTime.Round(time.Millisecond), r.Coherence.StaleServed, r.Coherence.Checked)
	fmt.Fprintf(&b, "  replica:   %d holders formed; after write, %d/%d bodies stale (quiesced in %v)\n",
		r.Replica.Holders, r.Replica.StaleServed, r.Replica.Checked,
		r.Replica.QuiesceTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  partition: stale served during cut=%v (expected); converged %v after heal; %d/%d bodies stale\n",
		r.Partition.StaleDuringCut, r.Partition.ConvergeTime.Round(time.Millisecond),
		r.Partition.StaleServed, r.Partition.Checked)
	fmt.Fprintf(&b, "  swr:       steady p50 %v, storm p50 %v (%d stale-window serves, %d writes)\n",
		r.SWR.SteadyP50.Round(time.Microsecond), r.SWR.StormP50.Round(time.Microsecond),
		r.SWR.StaleServes, r.SWR.Writes)
	fmt.Fprintf(&b, "  gates: coherence=%v replica=%v partition=%v swr(p50<=2x,used)=%v\n",
		r.CoherenceGate, r.ReplicaGate, r.PartitionGate, r.SWRGate)
	return b.String()
}
