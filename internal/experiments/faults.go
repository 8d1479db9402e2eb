package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netx"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FaultsResult is the machine-readable outcome of the fault-injection
// schedule (benchsuite -run faults): an 8-node group driven with a steady-state
// hot-set workload while one node hangs, a pair partitions, and the hung
// node recovers. The headline comparison is what a request that maps to the
// dead node's directory entries costs: with the failure detector the entry
// is quarantined and the request degrades to an ordinary local miss; with
// the paper's reactive-only fallback (-health=false) every such request
// pays the full FetchTimeout before degrading.
type FaultsResult struct {
	Meta Meta `json:"meta"`

	Nodes   int `json:"nodes"`
	HotKeys int `json:"hot_keys"`
	// NaiveFetchTimeout is the FetchTimeout used for the reactive-only
	// comparison run.
	NaiveFetchTimeout time.Duration `json:"naive_fetch_timeout_ns"`

	// Clean is the all-alive baseline over the warmed hot set.
	Clean struct {
		Requests int           `json:"requests"`
		HitRatio float64       `json:"hit_ratio"`
		P50      time.Duration `json:"p50_ns"`
		Mean     time.Duration `json:"mean_ns"`
		// MissP50 is the local miss path (execute + insert) — the floor any
		// degraded request can hope for.
		MissP50 time.Duration `json:"miss_p50_ns"`
	} `json:"clean"`

	// Hang: one node freezes (connections stay up, nothing is delivered).
	Hang struct {
		DeadNode uint32 `json:"dead_node"`
		// DetectTime is hang start until every survivor has quarantined the
		// node's directory entries.
		DetectTime time.Duration `json:"detect_time_ns"`
		// DeadOwnedKeys is how many hot keys the dead node owned.
		DeadOwnedKeys int `json:"dead_owned_keys"`
		// HealthP50/Mean: latency of requests for dead-owned keys with the
		// detector on (quarantined -> local miss).
		HealthP50  time.Duration `json:"health_p50_ns"`
		HealthMean time.Duration `json:"health_mean_ns"`
		// NaiveP50/Mean: the same requests with -health=false (every one
		// pays FetchTimeout before local fallback).
		NaiveP50  time.Duration `json:"naive_p50_ns"`
		NaiveMean time.Duration `json:"naive_mean_ns"`
		// HitRatio is the hot-set ratio over the surviving nodes during the
		// outage.
		HitRatio float64 `json:"hit_ratio"`
		// Within2xMiss: acceptance gate — dead-owned p50 with health on is
		// within 2x of the all-alive miss-path p50.
		Within2xMiss bool `json:"health_p50_within_2x_miss"`
	} `json:"hang"`

	// Partition: a pairwise cut between two healthy nodes, then heal.
	Partition struct {
		NodeA uint32 `json:"node_a"`
		NodeB uint32 `json:"node_b"`
		// DetectTime is cut until both sides quarantine each other;
		// HealTime is heal until both quarantines lift.
		DetectTime time.Duration `json:"detect_time_ns"`
		HealTime   time.Duration `json:"heal_time_ns"`
	} `json:"partition"`

	// Rejoin: the hung node recovers.
	Rejoin struct {
		// ResyncTime is recovery until every quarantine (both directions)
		// has lifted via the anti-entropy exchange.
		ResyncTime time.Duration `json:"resync_time_ns"`
		Requests   int           `json:"requests"`
		HitRatio   float64       `json:"hit_ratio"`
		// DropPoints is the clean hit ratio minus the post-rejoin hit ratio,
		// in percentage points; the acceptance gate is <= 1.
		DropPoints       float64 `json:"drop_points"`
		RecoveredWithin1 bool    `json:"recovered_within_1_point"`
	} `json:"rejoin"`
}

// Failed names the acceptance gates that did not hold.
func (r FaultsResult) Failed() []string {
	return failedGates(
		gate{"hang.health_p50_within_2x_miss", r.Hang.Within2xMiss},
		gate{"rejoin.recovered_within_1_point", r.Rejoin.RecoveredWithin1},
	)
}

// hitRatio aggregates the hit ratio across servers from counter deltas.
func hitRatio(before, after []stats.HitSnapshot) float64 {
	var hits, lookups int64
	for i := range after {
		dh := after[i].Hits() - before[i].Hits()
		dm := after[i].Misses - before[i].Misses
		hits += dh
		lookups += dh + dm
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

func snapshotCounters(c *swalaCluster) []stats.HitSnapshot {
	out := make([]stats.HitSnapshot, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.Counters()
	}
	return out
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(what string, timeout time.Duration, cond func() bool) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("faults: timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// RunFaults measures hit ratio and latency through a hang / partition /
// rejoin schedule on an 8-node group, with the failure detector on, and
// compares the dead-node request cost against the reactive-only fallback.
func RunFaults(o Options) (FaultsResult, error) {
	o = o.withDefaults()
	var r FaultsResult
	r.Meta = CollectMeta()
	const nodes = 8
	r.Nodes = nodes
	hotKeys := o.pick(64, 256)
	r.HotKeys = hotKeys
	cost := o.pick(100, 200) // paper-ms per request
	perClient := o.pick(40, 120)
	naiveTO := time.Duration(o.pick(100, 250)) * time.Millisecond
	r.NaiveFetchTimeout = naiveTO

	cluAddr := func(i int) string { return fmt.Sprintf("swala-clu-%d", i+1) }

	// buildCluster assembles an 8-node group whose cluster links run through
	// a fault-injection transport; HTTP client traffic uses the inner
	// network directly and is never faulted.
	buildCluster := func(health bool, fetchTO time.Duration) (*swalaCluster, *netx.Faulty, error) {
		settle()
		mem := netx.NewMem()
		faulty := netx.NewFaulty(mem, o.Seed)
		c, err := newSwalaCluster(o, clusterSpec{
			n: nodes, mode: core.Cooperative, mem: mem,
			netFor: func(i int) netx.Network { return faulty.Endpoint(cluAddr(i)) },
			mutate: func(i int, cfg *core.Config) {
				cfg.FetchTimeout = fetchTO
				if health {
					cfg.HealthProbeInterval = 25 * time.Millisecond
					cfg.HealthProbeTimeout = 25 * time.Millisecond
					cfg.HealthSuspectAfter = 2
					cfg.HealthDeadAfter = 4
				} else {
					cfg.DisableHealth = true
				}
			},
		})
		if err != nil {
			return nil, nil, err
		}
		return c, faulty, nil
	}

	// warm issues every hot key once, round-robin, so key k is owned by
	// node k mod nodes, and waits until every replica holds the whole set.
	warm := func(c *swalaCluster) error {
		for k := 0; k < hotKeys; k++ {
			uri := workload.HotSetURI(k, cost)
			if _, err := c.client.Get(c.addrs[k%nodes], uri); err != nil {
				return fmt.Errorf("faults: warm key %d: %w", k, err)
			}
		}
		_, err := waitCond("hot-set replication", 30*time.Second, func() bool {
			for _, s := range c.servers {
				if s.Directory().TotalLen() < hotKeys {
					return false
				}
			}
			return true
		})
		return err
	}

	// measureKeys fetches each URI once against addr and summarizes latency.
	measureKeys := func(c *swalaCluster, addr string, uris []string) (stats.Summary, error) {
		var rec stats.LatencyRecorder
		for _, uri := range uris {
			start := time.Now()
			resp, err := c.client.Get(addr, uri)
			if err != nil || resp.StatusCode != 200 {
				return stats.Summary{}, fmt.Errorf("faults: GET %s: err=%v", uri, err)
			}
			rec.Record(time.Since(start))
		}
		return rec.Summary(), nil
	}

	runHotSet := func(c *swalaCluster, addrs []string, seed int64) (workload.Result, float64, error) {
		before := snapshotCounters(c)
		d := &workload.Driver{
			Client:  c.client,
			Clients: len(addrs),
			Source:  workload.HotSetSource(addrs, hotKeys, perClient, cost, seed),
		}
		out := d.Run()
		if out.Errors > 0 {
			return out, 0, fmt.Errorf("faults: hot-set run: %d errors", out.Errors)
		}
		return out, hitRatio(before, snapshotCounters(c)), nil
	}

	const victim = nodes - 1 // node 8, index 7
	deadOwned := make([]string, 0, hotKeys/nodes+1)
	for k := victim; k < hotKeys; k += nodes {
		deadOwned = append(deadOwned, workload.HotSetURI(k, cost))
	}
	r.Hang.DeadNode = victim + 1
	r.Hang.DeadOwnedKeys = len(deadOwned)

	// --- detector-on schedule: clean -> hang -> partition -> rejoin ---

	c, faulty, err := buildCluster(true, 10*time.Second)
	if err != nil {
		return r, err
	}
	defer c.Close()
	if err := warm(c); err != nil {
		return r, err
	}

	out, ratio, err := runHotSet(c, c.addrs, o.Seed)
	if err != nil {
		return r, err
	}
	r.Clean.Requests = out.Requests
	r.Clean.HitRatio = ratio
	r.Clean.P50 = out.Latency.P50
	r.Clean.Mean = out.Latency.Mean

	// All-alive miss path: unique cold keys, pure execute + insert.
	coldURIs := make([]string, o.pick(16, 48))
	for i := range coldURIs {
		coldURIs[i] = fmt.Sprintf("/cgi-bin/adl?q=cold-%d&cost=%d", i, cost)
	}
	missSum, err := measureKeys(c, c.addrs[0], coldURIs)
	if err != nil {
		return r, err
	}
	r.Clean.MissP50 = missSum.P50

	// Hang the victim: connections stay up, nothing is delivered.
	faulty.Hang(cluAddr(victim))
	r.Hang.DetectTime, err = waitCond("survivors quarantining the hung node", 30*time.Second, func() bool {
		for i, s := range c.servers {
			if i != victim && !s.Directory().IsQuarantined(uint32(victim+1)) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return r, err
	}

	healthSum, err := measureKeys(c, c.addrs[0], deadOwned)
	if err != nil {
		return r, err
	}
	r.Hang.HealthP50 = healthSum.P50
	r.Hang.HealthMean = healthSum.Mean
	r.Hang.Within2xMiss = healthSum.P50 <= 2*r.Clean.MissP50

	if _, ratio, err = runHotSet(c, c.addrs[:victim], o.Seed+1); err != nil {
		return r, err
	}
	r.Hang.HitRatio = ratio

	// Pairwise partition between two healthy survivors, then heal. The cut
	// severs the links, so this exercises the link-death detection path
	// (immediate suspicion) rather than the silent-timeout one.
	a, b := 1, 2 // nodes 2 and 3
	r.Partition.NodeA, r.Partition.NodeB = uint32(a+1), uint32(b+1)
	faulty.Partition(cluAddr(a), cluAddr(b))
	r.Partition.DetectTime, err = waitCond("partitioned pair quarantining each other", 30*time.Second, func() bool {
		return c.servers[a].Directory().IsQuarantined(uint32(b+1)) &&
			c.servers[b].Directory().IsQuarantined(uint32(a+1))
	})
	if err != nil {
		return r, err
	}
	faulty.Heal(cluAddr(a), cluAddr(b))
	r.Partition.HealTime, err = waitCond("partition quarantines lifting", 30*time.Second, func() bool {
		return !c.servers[a].Directory().IsQuarantined(uint32(b+1)) &&
			!c.servers[b].Directory().IsQuarantined(uint32(a+1))
	})
	if err != nil {
		return r, err
	}

	// Rejoin: the hung node recovers; quarantines lift in both directions
	// once the recycled links re-exchange syncs.
	faulty.Unhang(cluAddr(victim))
	r.Rejoin.ResyncTime, err = waitCond("rejoin quarantines lifting", 30*time.Second, func() bool {
		for i, s := range c.servers {
			if i != victim && s.Directory().IsQuarantined(uint32(victim+1)) {
				return false
			}
		}
		return len(c.servers[victim].Directory().Quarantined()) == 0
	})
	if err != nil {
		return r, err
	}

	out, ratio, err = runHotSet(c, c.addrs, o.Seed+2)
	if err != nil {
		return r, err
	}
	r.Rejoin.Requests = out.Requests
	r.Rejoin.HitRatio = ratio
	r.Rejoin.DropPoints = 100 * (r.Clean.HitRatio - ratio)
	r.Rejoin.RecoveredWithin1 = r.Rejoin.DropPoints <= 1

	// --- reactive-only comparison: same hang, health off ---

	cn, faultyN, err := buildCluster(false, naiveTO)
	if err != nil {
		return r, err
	}
	defer cn.Close()
	if err := warm(cn); err != nil {
		return r, err
	}
	faultyN.Hang(cluAddr(victim))
	// No detector: give the links a beat to carry any in-flight traffic,
	// then measure — every dead-owned request must wait out FetchTimeout.
	time.Sleep(50 * time.Millisecond)
	naiveSum, err := measureKeys(cn, cn.addrs[0], deadOwned)
	if err != nil {
		return r, err
	}
	r.Hang.NaiveP50 = naiveSum.P50
	r.Hang.NaiveMean = naiveSum.Mean

	return r, nil
}

// Render formats the result as a human-readable report.
func (r FaultsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault schedule, %d nodes, %d hot keys (go %s, GOMAXPROCS %d):\n",
		r.Nodes, r.HotKeys, r.Meta.GoVersion, r.Meta.GOMAXPROCS)
	fmt.Fprintf(&b, "  clean: %d requests, hit ratio %.1f%%, p50 %v, mean %v, miss-path p50 %v\n",
		r.Clean.Requests, 100*r.Clean.HitRatio,
		r.Clean.P50.Round(time.Microsecond), r.Clean.Mean.Round(time.Microsecond),
		r.Clean.MissP50.Round(time.Microsecond))
	fmt.Fprintf(&b, "  hang node %d (%d owned keys): detected+quarantined in %v\n",
		r.Hang.DeadNode, r.Hang.DeadOwnedKeys, r.Hang.DetectTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "    dead-owned p50: health %v vs naive %v (FetchTimeout %v)\n",
		r.Hang.HealthP50.Round(time.Microsecond), r.Hang.NaiveP50.Round(time.Millisecond),
		r.NaiveFetchTimeout)
	fmt.Fprintf(&b, "    within 2x miss-path: %v; outage hit ratio %.1f%%\n",
		r.Hang.Within2xMiss, 100*r.Hang.HitRatio)
	fmt.Fprintf(&b, "  partition %d<->%d: detected in %v, healed in %v\n",
		r.Partition.NodeA, r.Partition.NodeB,
		r.Partition.DetectTime.Round(time.Millisecond), r.Partition.HealTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  rejoin: resynced+unquarantined in %v, hit ratio %.1f%% (drop %.2f points, within 1: %v)\n",
		r.Rejoin.ResyncTime.Round(time.Millisecond), 100*r.Rejoin.HitRatio,
		r.Rejoin.DropPoints, r.Rejoin.RecoveredWithin1)
	return b.String()
}
