package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ReplicationResult is the machine-readable outcome of the adaptive
// hot-entry replication experiment (benchsuite -run replication): an 8-node ring
// serving a single viral key, with and without -replicate-hot. Single-owner
// placement funnels every routed read through one node; the controller
// should spread that load across the owner plus its replica holders, improve
// the hotset tail, and retire the replicas once the hotspot moves away.
type ReplicationResult struct {
	Meta Meta `json:"meta"`

	Nodes    int `json:"nodes"`
	HotKeys  int `json:"hot_keys"`
	Replicas int `json:"replicas"`

	// Baseline is plain ring placement: one owner serves everything.
	Baseline struct {
		// HottestShare is the hottest node's fraction of all peer-routed
		// serves (RemoteServes) in the measurement window — ~1.0 with a
		// single hot key.
		HottestShare float64       `json:"hottest_share"`
		P99          time.Duration `json:"p99_ns"`
		Throughput   float64       `json:"throughput_rps"`
	} `json:"baseline"`

	// Replicated is the same ring with -replicate-hot.
	Replicated struct {
		HottestShare float64       `json:"hottest_share"`
		P99          time.Duration `json:"p99_ns"`
		Throughput   float64       `json:"throughput_rps"`
		// FormationTime is load start until every node sees the hot key's
		// holder set.
		FormationTime time.Duration `json:"formation_time_ns"`
		// ReplicaServes is how many measurement-window fetches the holders
		// (rather than the home owner) served, summed over the cluster.
		ReplicaServes uint64 `json:"replica_serves"`
		Pushes        uint64 `json:"pushes"`
		Pulls         uint64 `json:"pulls"`
		HintSkips     uint64 `json:"hint_skips"`
	} `json:"replicated"`

	// Retire: the hotspot moves to a fresh key range and the now-cold
	// replicas must retire on their own.
	Retire struct {
		Retired    bool          `json:"retired"`
		RetireTime time.Duration `json:"retire_time_ns"`
		Drops      uint64        `json:"drops"`
	} `json:"retire"`

	// Gates. GateChecked is always true: this experiment needs no special
	// host capability.
	GateChecked bool `json:"gate_checked"`
	// SpreadGate: the hottest node's serve share drops to at most 60% of
	// baseline (ideal for 2 replicas is ~1/3 of baseline's ~1.0).
	SpreadGate bool `json:"spread_gate"`
	// TailGate: hotset p99 with replication is no worse than single-owner.
	TailGate bool `json:"tail_gate"`
	// RetireGate: every replica retired after the hotspot moved.
	RetireGate bool `json:"retire_gate"`
}

// Failed names the acceptance gates that did not hold.
func (r ReplicationResult) Failed() []string {
	return failedGates(
		gate{"spread_gate", r.SpreadGate},
		gate{"tail_gate", r.TailGate},
		gate{"retire_gate", r.RetireGate},
	)
}

// RunReplication measures adaptive hot-entry replication on an 8-node ring.
func RunReplication(o Options) (ReplicationResult, error) {
	o = o.withDefaults()
	var r ReplicationResult
	r.Meta = CollectMeta()
	r.GateChecked = true
	const nodes = 8
	const hotKeys = 1 // one viral key: the worst case for single-owner placement
	const replicas = 2
	r.Nodes, r.HotKeys, r.Replicas = nodes, hotKeys, replicas
	cost := 10 // paper-ms to execute the key once
	clients := 16
	measureN := o.pick(1600, 6400)
	rampN := o.pick(400, 800)
	hotInterval := 50 * time.Millisecond

	// window runs one closed-loop pass of perClient requests per client over
	// the given source and returns the driver result plus each node's
	// RemoteServes delta.
	window := func(c *scaleoutCluster, src workload.Source) (workload.Result, []int64, error) {
		before := make([]stats.HitSnapshot, len(c.servers))
		for i, s := range c.servers {
			before[i] = s.Counters()
		}
		d := &workload.Driver{Client: c.client, Clients: clients, Source: src}
		out := d.Run()
		if out.Errors > 0 {
			return out, nil, fmt.Errorf("replication: window run: %d errors", out.Errors)
		}
		serves := make([]int64, len(c.servers))
		for i, s := range c.servers {
			serves[i] = s.Counters().RemoteServes - before[i].RemoteServes
		}
		return out, serves, nil
	}

	warm := func(c *scaleoutCluster) error {
		for k := 0; k < hotKeys; k++ {
			if _, err := c.client.Get(c.addrs[k%len(c.addrs)], workload.HotSetURI(k, cost)); err != nil {
				return fmt.Errorf("replication: warm key %d: %w", k, err)
			}
		}
		return nil
	}

	hottestShare := func(serves []int64) float64 {
		var sum, max int64
		for _, s := range serves {
			sum += s
			if s > max {
				max = s
			}
		}
		if sum == 0 {
			return 0
		}
		return float64(max) / float64(sum)
	}

	// --- baseline: single-owner ring ---

	base, err := newScaleoutCluster(o, true, nodes, nil)
	if err != nil {
		return r, err
	}
	if err := warm(base); err != nil {
		base.Close()
		return r, err
	}
	out, serves, err := window(base,
		workload.HotSetSource(base.addrs, hotKeys, measureN/clients, cost, o.Seed))
	if err != nil {
		base.Close()
		return r, err
	}
	r.Baseline.HottestShare = hottestShare(serves)
	r.Baseline.P99 = out.Latency.P99
	r.Baseline.Throughput = out.Throughput()
	base.Close()

	// --- replicated: same ring, -replicate-hot ---

	c, err := newScaleoutCluster(o, true, nodes, func(i int, cfg *core.Config) {
		cfg.ReplicateHot = true
		cfg.HotRPS = 20
		cfg.HotReplicas = replicas
		cfg.HotInterval = hotInterval
	})
	if err != nil {
		return r, err
	}
	defer c.Close()
	if err := warm(c); err != nil {
		return r, err
	}

	// Ramp: drive the hot key until every node has folded the holder
	// announcements into its directory (the controller needs a few decayed-
	// rate ticks above threshold, plus push, pull, and broadcast).
	formed := func() bool {
		for _, s := range c.servers {
			if s.Directory().ReplicatedKeys() < 1 {
				return false
			}
		}
		return true
	}
	rampStart := time.Now()
	for try := 0; try < 40 && !formed(); try++ {
		if _, _, err := window(c,
			workload.HotSetSource(c.addrs, hotKeys, rampN/clients, cost, o.Seed+int64(try)+1)); err != nil {
			return r, err
		}
	}
	if !formed() {
		return r, fmt.Errorf("replication: no replicas formed under hot load")
	}
	r.Replicated.FormationTime = time.Since(rampStart)

	repServesBefore, hintsBefore := replicaTotals(c)
	out, serves, err = window(c,
		workload.HotSetSource(c.addrs, hotKeys, measureN/clients, cost, o.Seed+100))
	if err != nil {
		return r, err
	}
	r.Replicated.HottestShare = hottestShare(serves)
	r.Replicated.P99 = out.Latency.P99
	r.Replicated.Throughput = out.Throughput()
	repServesAfter, hintsAfter := replicaTotals(c)
	r.Replicated.ReplicaServes = repServesAfter - repServesBefore
	r.Replicated.HintSkips = hintsAfter - hintsBefore
	for _, s := range c.servers {
		m := s.Metrics()
		r.Replicated.Pushes += count(m, "swala_replica_pushes_total")
		r.Replicated.Pulls += count(m, "swala_replica_pulls_total")
	}

	// --- retirement: move the hotspot, replicas must drain on their own ---

	// A brief burst on a fresh, spread-out key range (no single key crosses
	// the threshold), then nothing: the old key's decayed rate collapses and
	// the controller retires its replicas.
	if _, _, err := window(c,
		workload.HotSetRangeSource(c.addrs, 100, 32, rampN/clients, cost, o.Seed+200)); err != nil {
		return r, err
	}
	retireStart := time.Now()
	retired, err := waitCond("replica retirement", 30*time.Second, func() bool {
		for _, s := range c.servers {
			if s.Directory().ReplicatedKeys() != 0 {
				return false
			}
			if count(s.Metrics(), "swala_replica_held") != 0 {
				return false
			}
		}
		return true
	})
	r.Retire.Retired = err == nil
	if err == nil {
		r.Retire.RetireTime = retired
	} else {
		r.Retire.RetireTime = time.Since(retireStart)
	}
	for _, s := range c.servers {
		r.Retire.Drops += count(s.Metrics(), "swala_replica_drops_total")
	}

	r.SpreadGate = r.Baseline.HottestShare > 0 &&
		r.Replicated.HottestShare <= 0.6*r.Baseline.HottestShare
	r.TailGate = r.Replicated.P99 <= r.Baseline.P99
	r.RetireGate = r.Retire.Retired && r.Retire.Drops > 0
	return r, nil
}

// replicaTotals sums holder-side serve and requester-side hint-skip counters
// over a cluster.
func replicaTotals(c *scaleoutCluster) (replicaServes, hintSkips uint64) {
	for _, s := range c.servers {
		m := s.Metrics()
		replicaServes += count(m, "swala_replica_serves_total")
		hintSkips += count(m, "swala_replica_hint_skips_total")
	}
	return
}

// Render formats the result as a human-readable report.
func (r ReplicationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive replication: %d-node ring, %d hot key(s), %d replicas (go %s, GOMAXPROCS %d):\n",
		r.Nodes, r.HotKeys, r.Replicas, r.Meta.GoVersion, r.Meta.GOMAXPROCS)
	fmt.Fprintf(&b, "  single-owner: hottest node serves %.1f%% of routed fetches, p99 %v, %.0f req/s\n",
		100*r.Baseline.HottestShare, r.Baseline.P99.Round(time.Microsecond), r.Baseline.Throughput)
	fmt.Fprintf(&b, "  replicated:   hottest node serves %.1f%% of routed fetches, p99 %v, %.0f req/s\n",
		100*r.Replicated.HottestShare, r.Replicated.P99.Round(time.Microsecond), r.Replicated.Throughput)
	fmt.Fprintf(&b, "    replicas formed in %v; %d holder serves, %d pushes / %d pulls, %d hint skips\n",
		r.Replicated.FormationTime.Round(time.Millisecond), r.Replicated.ReplicaServes,
		r.Replicated.Pushes, r.Replicated.Pulls, r.Replicated.HintSkips)
	fmt.Fprintf(&b, "  retirement:   hotspot moved; replicas drained=%v in %v (%d drops)\n",
		r.Retire.Retired, r.Retire.RetireTime.Round(time.Millisecond), r.Retire.Drops)
	fmt.Fprintf(&b, "  gates: spread(<=0.6x)=%v tail(p99<=baseline)=%v retire=%v\n",
		r.SpreadGate, r.TailGate, r.RetireGate)
	return b.String()
}
