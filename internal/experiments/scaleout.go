package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cacheability"
	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ScaleoutResult is the machine-readable outcome of the scale-out experiment
// (benchsuite -run scaleout): a ring-placement group grows from 8 to 12 nodes
// live, under a steady hot-set load, then shrinks gracefully back — measuring
// rebalance traffic, the hit-ratio dip and its recovery, and per-node
// directory footprint against the paper's fully-replicated directory.
type ScaleoutResult struct {
	Meta Meta `json:"meta"`

	BaseNodes int `json:"base_nodes"`
	JoinNodes int `json:"join_nodes"`
	HotKeys   int `json:"hot_keys"`

	// Replicate is the paper-semantics baseline at BaseNodes: every node
	// carries the full directory.
	Replicate struct {
		HitRatio float64 `json:"hit_ratio"`
		// PerNodeDirEntries is the directory size each node pays (full table).
		PerNodeDirEntries int `json:"per_node_dir_entries"`
	} `json:"replicate"`

	// RingSteady is ring placement at BaseNodes before any churn.
	RingSteady struct {
		HitRatio           float64 `json:"hit_ratio"`
		PerNodeDirMean     float64 `json:"per_node_dir_mean"`
		PerNodeDirMax      int     `json:"per_node_dir_max"`
		BalanceWithin15Pct bool    `json:"owned_share_within_15pct"`
	} `json:"ring_steady"`

	// Join: JoinNodes nodes join live while the hot-set load keeps running.
	Join struct {
		// Windows is the hit ratio of each fixed-size request window; the
		// joins land after window JoinAfterWindow.
		Windows         []float64 `json:"window_hit_ratios"`
		JoinAfterWindow int       `json:"join_after_window"`
		// DipPoints is steady-state ratio minus the worst post-join window,
		// in percentage points.
		DipPoints float64 `json:"dip_points"`
		// RecoveryTime is join start until a window's ratio is back within 2
		// points of steady state.
		RecoveryTime     time.Duration `json:"recovery_time_ns"`
		RecoveredWithin2 bool          `json:"recovered_within_2_points"`
		// RebalanceTime is join start until every entry sits at its
		// ring-designated owner (handoff quiesced, nothing lost).
		RebalanceTime time.Duration `json:"rebalance_time_ns"`
		// HandoffEntries/Bytes is the rebalance traffic the joins caused,
		// summed over the joiners.
		HandoffEntries uint64 `json:"handoff_entries"`
		HandoffBytes   uint64 `json:"handoff_bytes"`
	} `json:"join"`

	// Ring12 is the grown ring at BaseNodes+JoinNodes: the flat-memory claim.
	Ring12 struct {
		HitRatio       float64 `json:"hit_ratio"`
		PerNodeDirMean float64 `json:"per_node_dir_mean"`
		PerNodeDirMax  int     `json:"per_node_dir_max"`
		// DirMemoryFlat: per-node directory state did not grow with the
		// cluster (the replicated design pays HotKeys on every node at any
		// size; ring placement pays HotKeys/N).
		DirMemoryFlat bool `json:"dir_memory_flat"`
	} `json:"ring12"`

	// Leave: one joiner leaves gracefully under load.
	Leave struct {
		Node uint32 `json:"node"`
		// HandedOff is how many entries the leaver pushed out; Lost is how
		// many of the hot keys had to be re-executed afterwards (0 = the
		// graceful drain preserved all cached work).
		HandedOff uint64  `json:"handed_off_entries"`
		Lost      int     `json:"lost_entries"`
		HitRatio  float64 `json:"hit_ratio_after"`
	} `json:"leave"`
}

// Failed names the acceptance gates that did not hold.
func (r ScaleoutResult) Failed() []string {
	return failedGates(
		gate{"ring_steady.owned_share_within_15pct", r.RingSteady.BalanceWithin15Pct},
		gate{"join.recovered_within_2_points", r.Join.RecoveredWithin2},
		gate{"ring12.dir_memory_flat", r.Ring12.DirMemoryFlat},
		gate{"leave.lost_entries", r.Leave.Lost == 0},
	)
}

// scaleoutCluster is a dynamically-sized ring cluster: nodes are added (join
// through node 1) and removed at runtime, unlike the fixed full-mesh
// swalaCluster.
type scaleoutCluster struct {
	mem     *netx.Mem
	opt     Options
	client  *httpclient.Client
	servers []*core.Server
	addrs   []string
	ring    bool
	mutate  func(i int, cfg *core.Config)
}

func (c *scaleoutCluster) httpAddr(i int) string { return fmt.Sprintf("swala-http-%d", i+1) }
func (c *scaleoutCluster) cluAddr(i int) string  { return fmt.Sprintf("swala-clu-%d", i+1) }

// add starts node index i (ID i+1) and, in ring mode, joins it through node 1.
func (c *scaleoutCluster) add(i int) error {
	pol := cacheability.NewPolicy()
	pol.Add("/cgi-bin/*", cacheability.Cache, time.Hour)
	pol.DefaultTTL = time.Hour
	cfg := core.Config{
		NodeID:        uint32(i + 1),
		Mode:          core.Cooperative,
		Costs:         core.ScaledCosts(c.opt.Scale),
		Cacheability:  pol,
		Network:       c.mem,
		FetchTimeout:  10 * time.Second,
		PurgeInterval: time.Hour,
		RingPlacement: c.ring,
	}
	if c.mutate != nil {
		c.mutate(i, &cfg)
	}
	s := core.New(cfg)
	registerExperimentContent(s.Files(), s.CGI(), c.opt.Scale)
	if err := s.Start(c.httpAddr(i), c.cluAddr(i)); err != nil {
		return err
	}
	c.servers = append(c.servers, s)
	c.addrs = append(c.addrs, c.httpAddr(i))
	if c.ring && i > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.JoinRing(ctx, []string{c.cluAddr(0)}); err != nil {
			return err
		}
	}
	if !c.ring && i > 0 {
		// Replicate mode keeps the paper's static full mesh.
		for j := 0; j < i; j++ {
			if err := s.ConnectPeer(uint32(j+1), c.cluAddr(j)); err != nil {
				return err
			}
			if err := c.servers[j].ConnectPeer(uint32(i+1), c.cluAddr(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *scaleoutCluster) Close() {
	if c.client != nil {
		c.client.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// waitRing blocks until every given server sees a ring of n members.
func (c *scaleoutCluster) waitRing(n int, servers ...*core.Server) error {
	if len(servers) == 0 {
		servers = c.servers
	}
	_, err := waitCond(fmt.Sprintf("ring convergence on %d members", n), 30*time.Second, func() bool {
		for _, s := range servers {
			rs := s.RingStatus()
			if rs == nil || len(rs.Members) != n {
				return false
			}
		}
		return true
	})
	return err
}

func newScaleoutCluster(opt Options, ring bool, n int, mutate func(i int, cfg *core.Config)) (*scaleoutCluster, error) {
	settle()
	mem := netx.NewMem()
	c := &scaleoutCluster{mem: mem, opt: opt, client: httpclient.New(mem), ring: ring, mutate: mutate}
	for i := 0; i < n; i++ {
		if err := c.add(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	if ring {
		if err := c.waitRing(n); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// RunScaleout measures a live 8→12 grow and a graceful shrink of a
// ring-placement group under steady hot-set load, against the replicated
// directory's footprint at 8 nodes.
func RunScaleout(o Options) (ScaleoutResult, error) {
	o = o.withDefaults()
	var r ScaleoutResult
	r.Meta = CollectMeta()
	const baseNodes, joinNodes = 8, 4
	r.BaseNodes, r.JoinNodes = baseNodes, joinNodes
	hotKeys := o.pick(96, 256)
	r.HotKeys = hotKeys
	cost := o.pick(50, 100) // paper-ms per request
	perWindow := o.pick(240, 640)

	// window runs one fixed-size closed-loop hot-set pass over the given
	// front ends and returns the group hit ratio for just that pass.
	window := func(c *scaleoutCluster, addrs []string, seed int64) (float64, error) {
		before := make([]stats.HitSnapshot, len(c.servers))
		for i, s := range c.servers {
			before[i] = s.Counters()
		}
		d := &workload.Driver{
			Client:  c.client,
			Clients: 8,
			Source:  workload.HotSetSource(addrs, hotKeys, perWindow/8, cost, seed),
		}
		out := d.Run()
		if out.Errors > 0 {
			return 0, fmt.Errorf("scaleout: window run: %d errors", out.Errors)
		}
		var hits, lookups int64
		for i, s := range c.servers {
			snap := s.Counters()
			dh := snap.Hits() - before[i].Hits()
			dm := snap.Misses - before[i].Misses
			hits += dh
			lookups += dh + dm
		}
		if lookups == 0 {
			return 0, nil
		}
		return float64(hits) / float64(lookups), nil
	}

	// warm touches every hot key once so the steady-state windows measure
	// cache behavior, not cold misses.
	warm := func(c *scaleoutCluster) error {
		for k := 0; k < hotKeys; k++ {
			uri := workload.HotSetURI(k, cost)
			if _, err := c.client.Get(c.addrs[k%len(c.addrs)], uri); err != nil {
				return fmt.Errorf("scaleout: warm key %d: %w", k, err)
			}
		}
		return nil
	}

	localSum := func(c *scaleoutCluster) (sum, max int) {
		for _, s := range c.servers {
			n := s.Directory().LocalLen()
			sum += n
			if n > max {
				max = n
			}
		}
		return
	}

	// --- replicate baseline at 8 nodes: the footprint being escaped ---

	rep, err := newScaleoutCluster(o, false, baseNodes, nil)
	if err != nil {
		return r, err
	}
	if err := warm(rep); err != nil {
		rep.Close()
		return r, err
	}
	// Let the insert broadcasts replicate everywhere before measuring.
	if _, err := waitCond("full replication", 30*time.Second, func() bool {
		for _, s := range rep.servers {
			if s.Directory().TotalLen() < hotKeys {
				return false
			}
		}
		return true
	}); err != nil {
		rep.Close()
		return r, err
	}
	if r.Replicate.HitRatio, err = window(rep, rep.addrs, o.Seed); err != nil {
		rep.Close()
		return r, err
	}
	r.Replicate.PerNodeDirEntries = rep.servers[0].Directory().TotalLen()
	rep.Close()

	// --- ring placement: steady state at 8 ---

	c, err := newScaleoutCluster(o, true, baseNodes, nil)
	if err != nil {
		return r, err
	}
	defer c.Close()
	if err := warm(c); err != nil {
		return r, err
	}
	steady := 0.0
	for i := 0; i < 2; i++ { // second window measures pure steady state
		if steady, err = window(c, c.addrs, o.Seed+int64(i)); err != nil {
			return r, err
		}
	}
	r.RingSteady.HitRatio = steady
	sum, max := localSum(c)
	if sum != hotKeys {
		return r, fmt.Errorf("scaleout: ring holds %d entries, warmed %d", sum, hotKeys)
	}
	r.RingSteady.PerNodeDirMean = float64(sum) / baseNodes
	r.RingSteady.PerNodeDirMax = max
	r.RingSteady.BalanceWithin15Pct = true
	if rs := c.servers[0].RingStatus(); rs != nil {
		for _, m := range rs.Members {
			if share := m.Owned * baseNodes; share < 0.85 || share > 1.15 {
				r.RingSteady.BalanceWithin15Pct = false
			}
		}
	}

	// --- live join: 4 nodes enter while the load keeps coming ---

	const windows = 10
	const joinAfter = 2
	r.Join.JoinAfterWindow = joinAfter
	var joinStart time.Time
	recovered := time.Duration(0)
	for w := 0; w < windows; w++ {
		if w == joinAfter {
			joinStart = time.Now()
			for i := baseNodes; i < baseNodes+joinNodes; i++ {
				if err := c.add(i); err != nil {
					return r, err
				}
			}
		}
		ratio, err := window(c, c.addrs, o.Seed+10+int64(w))
		if err != nil {
			return r, err
		}
		r.Join.Windows = append(r.Join.Windows, ratio)
		if w >= joinAfter && recovered == 0 && ratio >= steady-0.02 {
			recovered = time.Since(joinStart)
		}
	}
	if err := c.waitRing(baseNodes + joinNodes); err != nil {
		return r, err
	}
	// Handoff quiesces: every entry at exactly one owner, nothing lost.
	if _, err := waitCond("rebalance quiescence", 60*time.Second, func() bool {
		sum, _ := localSum(c)
		return sum == hotKeys
	}); err != nil {
		return r, err
	}
	r.Join.RebalanceTime = time.Since(joinStart)
	dip := 0.0
	for _, w := range r.Join.Windows[joinAfter:] {
		if d := steady - w; d > dip {
			dip = d
		}
	}
	r.Join.DipPoints = 100 * dip
	r.Join.RecoveryTime = recovered
	r.Join.RecoveredWithin2 = recovered > 0
	for i := baseNodes; i < baseNodes+joinNodes; i++ {
		_, in, bytes := c.servers[i].HandoffStats()
		r.Join.HandoffEntries += in
		r.Join.HandoffBytes += bytes
	}

	// --- grown ring at 12: the flat-memory measurement ---

	if r.Ring12.HitRatio, err = window(c, c.addrs, o.Seed+40); err != nil {
		return r, err
	}
	sum, max = localSum(c)
	r.Ring12.PerNodeDirMean = float64(sum) / float64(baseNodes+joinNodes)
	r.Ring12.PerNodeDirMax = max
	// Flat: growing the cluster must not grow any node's directory (the
	// replicated design pays the full table everywhere at every size).
	r.Ring12.DirMemoryFlat = max <= r.RingSteady.PerNodeDirMax &&
		max < r.Replicate.PerNodeDirEntries

	// --- graceful leave under load ---

	leaver := c.servers[len(c.servers)-1]
	r.Leave.Node = uint32(len(c.servers))
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		leaver.LeaveRing(ctx)
	}()
	// Keep load on the survivors while the leaver drains.
	survivors := c.addrs[:len(c.addrs)-1]
	if _, err := window(c, survivors, o.Seed+41); err != nil {
		return r, err
	}
	<-done
	leaver.Close()
	c.servers = c.servers[:len(c.servers)-1]
	c.addrs = survivors
	if err := c.waitRing(baseNodes + joinNodes - 1); err != nil {
		return r, err
	}
	out, _, _ := leaver.HandoffStats()
	r.Leave.HandedOff = out
	if _, err := waitCond("post-leave settle", 30*time.Second, func() bool {
		sum, _ := localSum(c)
		return sum >= hotKeys-int(out) // handed-off entries have landed
	}); err != nil {
		return r, err
	}
	sum, _ = localSum(c)
	r.Leave.Lost = hotKeys - sum
	if r.Leave.Lost < 0 {
		r.Leave.Lost = 0
	}
	if r.Leave.HitRatio, err = window(c, c.addrs, o.Seed+42); err != nil {
		return r, err
	}
	return r, nil
}

// Render formats the result as a human-readable report.
func (r ScaleoutResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale-out: %d -> %d nodes live, %d hot keys (go %s, GOMAXPROCS %d):\n",
		r.BaseNodes, r.BaseNodes+r.JoinNodes, r.HotKeys, r.Meta.GoVersion, r.Meta.GOMAXPROCS)
	fmt.Fprintf(&b, "  replicate@%d: hit ratio %.1f%%, per-node directory %d entries (full table)\n",
		r.BaseNodes, 100*r.Replicate.HitRatio, r.Replicate.PerNodeDirEntries)
	fmt.Fprintf(&b, "  ring@%d:      hit ratio %.1f%%, per-node directory mean %.1f / max %d, balance within 15%%: %v\n",
		r.BaseNodes, 100*r.RingSteady.HitRatio, r.RingSteady.PerNodeDirMean,
		r.RingSteady.PerNodeDirMax, r.RingSteady.BalanceWithin15Pct)
	fmt.Fprintf(&b, "  live join of %d nodes after window %d:\n", r.JoinNodes, r.Join.JoinAfterWindow)
	fmt.Fprintf(&b, "    window hit ratios:")
	for _, w := range r.Join.Windows {
		fmt.Fprintf(&b, " %.1f", 100*w)
	}
	fmt.Fprintf(&b, "\n    dip %.1f points, recovered within 2 points in %v (gate: %v)\n",
		r.Join.DipPoints, r.Join.RecoveryTime.Round(time.Millisecond), r.Join.RecoveredWithin2)
	fmt.Fprintf(&b, "    rebalance: %d entries / %d bytes handed off, quiesced in %v\n",
		r.Join.HandoffEntries, r.Join.HandoffBytes, r.Join.RebalanceTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  ring@%d:      hit ratio %.1f%%, per-node directory mean %.1f / max %d, flat vs node count: %v\n",
		r.BaseNodes+r.JoinNodes, 100*r.Ring12.HitRatio, r.Ring12.PerNodeDirMean,
		r.Ring12.PerNodeDirMax, r.Ring12.DirMemoryFlat)
	fmt.Fprintf(&b, "  graceful leave of node %d: %d entries handed off, %d lost, hit ratio after %.1f%%\n",
		r.Leave.Node, r.Leave.HandedOff, r.Leave.Lost, 100*r.Leave.HitRatio)
	return b.String()
}
