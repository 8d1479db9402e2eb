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

// GrayFaultResult is the machine-readable outcome of the gray-failure and
// overload schedule (benchsuite -run grayfault). Two phases:
//
// Phase A (gray-slow peer): a 4-node group serves a warmed hot set while one
// node's outbound writes are delayed just below the failure detector's probe
// timeout — the classic gray failure the liveness detector cannot see. With
// hedging and breakers on, requesters hedge past the slow replies, the
// latency breaker trips, and false-hit local execution re-adopts the slow
// node's keys, so the converged hot-set p99 returns to the healthy baseline.
// With resilience off, every request touching the slow node pays the
// injected delay forever.
//
// Phase B (flash crowd): a single 1-core node takes 3x its measured
// capacity of always-execute traffic under a server-side request timeout.
// Without shedding, queued work outlives its clients and the node burns
// capacity on abandoned executions (goodput collapse); with the watermark
// controller on, would-execute requests are refused at the door and goodput
// stays near capacity.
type GrayFaultResult struct {
	Meta Meta `json:"meta"`

	Nodes    int    `json:"nodes"`
	HotKeys  int    `json:"hot_keys"`
	SlowNode uint32 `json:"slow_node"`
	// InjectedDelay is added to every write the slow node makes on its
	// cluster links; DelayJitter spreads it uniformly by +-fraction.
	InjectedDelay time.Duration `json:"injected_delay_ns"`
	DelayJitter   float64       `json:"delay_jitter"`

	// Healthy is the all-fast baseline over the warmed hot set, measured on
	// the resilient cluster before injection (same code paths as SlowOn).
	Healthy struct {
		Requests int           `json:"requests"`
		HitRatio float64       `json:"hit_ratio"`
		P50      time.Duration `json:"p50_ns"`
		P99      time.Duration `json:"p99_ns"`
	} `json:"healthy"`

	// SlowOff probes the slow node's keys with all resilience off: every
	// request waits out the injected delay (the "timeout floor").
	SlowOff struct {
		Keys int           `json:"keys"`
		P50  time.Duration `json:"p50_ns"`
		P99  time.Duration `json:"p99_ns"`
	} `json:"slow_off"`

	// SlowOn is the resilient cluster under the same injected delay.
	SlowOn struct {
		// ConvergeTime is injection until a full pass of every (node, key)
		// pair completes with no request paying more than half the delay;
		// ConvergePasses is how many passes that took.
		ConvergeTime   time.Duration `json:"converge_time_ns"`
		ConvergePasses int           `json:"converge_passes"`
		Requests       int           `json:"requests"`
		HitRatio       float64       `json:"hit_ratio"`
		P50            time.Duration `json:"p50_ns"`
		P99            time.Duration `json:"p99_ns"`
		// Resilience counters summed across nodes after the measured run.
		BreakerTrips     uint64 `json:"breaker_trips"`
		BreakerFastFails uint64 `json:"breaker_fast_fails"`
		FetchPrimaries   uint64 `json:"fetch_primaries"`
		HedgesIssued     uint64 `json:"hedges_issued"`
		HedgesWon        uint64 `json:"hedges_won"`
		HedgesAbandoned  uint64 `json:"hedges_abandoned"`
		HedgesDenied     uint64 `json:"hedges_denied"`
		HedgesLocal      uint64 `json:"hedges_local"`
		// P99Budget is the gate's comparison point: twice the healthy
		// baseline p99, floored at twice the designed worst case of a
		// hedged request (trigger wait + one local execution) — a request
		// that hedges is the mechanism working, not a failure, and on a
		// loaded box a few land in the p99.
		P99Budget time.Duration `json:"p99_budget_ns"`
		// Within2x: acceptance gate — converged p99 with hedging on is
		// within the budget (and so far below the injected-delay floor the
		// unhedged run sits at).
		Within2x bool `json:"p99_within_2x_healthy"`
	} `json:"slow_on"`

	// Budget checks the retry-budget invariant on every resilient node:
	// hedges spent (issued + local fallbacks) never exceed
	// ratio*primaries + burst (+1 for the race between earn and take).
	Budget struct {
		Ratio float64 `json:"ratio"`
		Burst float64 `json:"burst"`
		// MaxOverspend is the worst node's spent minus allowance (negative
		// or zero when the budget held everywhere).
		MaxOverspend float64 `json:"max_overspend"`
		Respected    bool    `json:"respected"`
	} `json:"budget"`

	// Overload is Phase B on a single 1-core node.
	Overload struct {
		ServiceTime    time.Duration `json:"service_time_ns"`
		RequestTimeout time.Duration `json:"request_timeout_ns"`
		// Capacity is the node's measured closed-loop throughput (rps).
		Capacity    float64       `json:"capacity_rps"`
		OfferedRate float64       `json:"offered_rps"`
		Duration    time.Duration `json:"duration_ns"`

		ShedOff struct {
			Offered   int     `json:"offered"`
			Completed int     `json:"completed"`
			Errors    int     `json:"errors"`
			Goodput   float64 `json:"goodput_rps"`
			// CollapseFraction is goodput over capacity — the informational
			// "vs collapse" half of the gate.
			CollapseFraction float64 `json:"collapse_fraction"`
		} `json:"shed_off"`

		ShedOn struct {
			Offered   int     `json:"offered"`
			Completed int     `json:"completed"`
			Errors    int     `json:"errors"`
			Goodput   float64 `json:"goodput_rps"`
			ShedLocal uint64  `json:"shed_local"`
			ShedStale uint64  `json:"shed_stale"`
			// GoodputFraction is goodput over capacity; the acceptance gate
			// requires >= 0.8.
			GoodputFraction float64 `json:"goodput_fraction"`
			GoodputOK       bool    `json:"goodput_at_least_80pct"`
		} `json:"shed_on"`
	} `json:"overload"`

	// DefaultOff verifies the default-off contract on an unflagged cluster:
	// no resilience stats section and no resilience response headers.
	DefaultOff struct {
		ResilienceNil bool `json:"resilience_nil"`
		CleanHeaders  bool `json:"clean_headers"`
		Passed        bool `json:"passed"`
	} `json:"default_off"`
}

// Failed names the acceptance gates that did not hold.
func (r GrayFaultResult) Failed() []string {
	return failedGates(
		gate{"slow_on.p99_within_2x_healthy", r.SlowOn.Within2x},
		gate{"budget.respected", r.Budget.Respected},
		gate{"overload.shed_on.goodput_at_least_80pct", r.Overload.ShedOn.GoodputOK},
		gate{"default_off.passed", r.DefaultOff.Passed},
	)
}

// RunGrayFault measures the gray-slow-peer and flash-crowd schedules.
func RunGrayFault(o Options) (GrayFaultResult, error) {
	o = o.withDefaults()
	var r GrayFaultResult
	r.Meta = CollectMeta()

	const nodes = 4
	r.Nodes = nodes
	hotKeys := o.pick(32, 96)
	r.HotKeys = hotKeys
	cost := o.pick(50, 100) // paper-ms per miss execution
	perClient := o.pick(60, 200)
	// The static trigger sits well under the injected delay but above the
	// box's scheduling jitter, so hedges fire against the fault rather than
	// against noise.
	hedgeTrigger := 40 * time.Millisecond
	delay := time.Duration(o.pick(150, 250)) * time.Millisecond
	r.InjectedDelay = delay
	r.DelayJitter = 0.2
	const slow = nodes - 1 // node 4, index 3
	r.SlowNode = slow + 1
	r.Budget.Ratio = core.RetryBudgetRatio
	r.Budget.Burst = core.RetryBudgetBurst

	cluAddr := func(i int) string { return fmt.Sprintf("swala-clu-%d", i+1) }

	// buildCluster assembles the 4-node group over a fault-injection
	// transport. HTTP client traffic dials the inner network directly, so
	// only cluster links see the injected delay. The failure detector runs
	// with its defaults: the injected delay stays under the probe timeout,
	// so the slow node is never quarantined — a gray failure by
	// construction.
	buildCluster := func(resilient bool) (*swalaCluster, *netx.Faulty, error) {
		settle()
		mem := netx.NewMem()
		faulty := netx.NewFaulty(mem, o.Seed)
		c, err := newSwalaCluster(o, clusterSpec{
			n: nodes, mode: core.Cooperative, mem: mem,
			netFor: func(i int) netx.Network { return faulty.Endpoint(cluAddr(i)) },
			mutate: func(i int, cfg *core.Config) {
				if !resilient {
					return
				}
				cfg.Hedge = true
				cfg.HedgeTrigger = hedgeTrigger
				cfg.Breaker = true
				cfg.BreakerMinSamples = 4
			},
		})
		if err != nil {
			return nil, nil, err
		}
		return c, faulty, nil
	}

	// warm issues every hot key once, round-robin, so key k is owned by
	// node k mod nodes, and waits for directory replication.
	warm := func(c *swalaCluster) error {
		for k := 0; k < hotKeys; k++ {
			uri := workload.HotSetURI(k, cost)
			if _, err := c.client.Get(c.addrs[k%nodes], uri); err != nil {
				return fmt.Errorf("grayfault: warm key %d: %w", k, err)
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

	runHotSet := func(c *swalaCluster, seed int64) (workload.Result, float64, error) {
		before := snapshotCounters(c)
		d := &workload.Driver{
			Client:  c.client,
			Clients: len(c.addrs),
			Source:  workload.HotSetSource(c.addrs, hotKeys, perClient, cost, seed),
		}
		out := d.Run()
		if out.Errors > 0 {
			return out, 0, fmt.Errorf("grayfault: hot-set run: %d errors", out.Errors)
		}
		return out, hitRatio(before, snapshotCounters(c)), nil
	}

	slowOwned := make([]string, 0, hotKeys/nodes+1)
	for k := slow; k < hotKeys; k += nodes {
		slowOwned = append(slowOwned, workload.HotSetURI(k, cost))
	}

	// --- Phase A: resilient cluster — baseline, inject, converge, measure ---

	c, faulty, err := buildCluster(true)
	if err != nil {
		return r, err
	}
	defer c.Close()
	if err := warm(c); err != nil {
		return r, err
	}

	out, ratio, err := runHotSet(c, o.Seed)
	if err != nil {
		return r, err
	}
	r.Healthy.Requests = out.Requests
	r.Healthy.HitRatio = ratio
	r.Healthy.P50 = out.Latency.P50
	r.Healthy.P99 = out.Latency.P99

	// Inject: every write the slow node makes on its cluster links is
	// delayed, with jitter — requests it forwards, replies it serves, and
	// its probe acks all brown out together, while the detector (default
	// 1s probe timeout) still sees it as alive.
	faulty.SetDelayJitter(r.DelayJitter)
	faulty.SetDelayFrom(cluAddr(slow), delay)

	// Converge: sweep every (node, key) pair until a full pass completes
	// with no request paying more than half the injected delay. Early
	// passes are dirty — hedges cover some requests, denied hedges pay the
	// delay and feed the breaker, fast-fails adopt keys locally — and once
	// every node owns a live copy of what it needs, a pass runs clean.
	convStart := time.Now()
	convDeadline := convStart.Add(60 * time.Second)
	for {
		clean := true
		for i := range c.servers {
			for k := 0; k < hotKeys; k++ {
				start := time.Now()
				resp, err := c.client.Get(c.addrs[i], workload.HotSetURI(k, cost))
				if err != nil || resp.StatusCode != 200 {
					return r, fmt.Errorf("grayfault: converge GET node %d key %d: err=%v", i+1, k, err)
				}
				if time.Since(start) > delay/2 {
					clean = false
				}
			}
		}
		r.SlowOn.ConvergePasses++
		if clean {
			break
		}
		if time.Now().After(convDeadline) {
			return r, fmt.Errorf("grayfault: cluster did not converge within 60s (%d passes)", r.SlowOn.ConvergePasses)
		}
	}
	r.SlowOn.ConvergeTime = time.Since(convStart)

	settle()
	out, ratio, err = runHotSet(c, o.Seed+1)
	if err != nil {
		return r, err
	}
	r.SlowOn.Requests = out.Requests
	r.SlowOn.HitRatio = ratio
	r.SlowOn.P50 = out.Latency.P50
	r.SlowOn.P99 = out.Latency.P99
	hedgedWorst := hedgeTrigger + o.Scale.D(0.001*float64(cost))
	r.SlowOn.P99Budget = 2 * r.Healthy.P99
	if r.SlowOn.P99Budget < 2*hedgedWorst {
		r.SlowOn.P99Budget = 2 * hedgedWorst
	}
	r.SlowOn.Within2x = r.SlowOn.P99 <= r.SlowOn.P99Budget

	// Resilience counters and the retry-budget invariant, per node.
	r.Budget.Respected = true
	r.Budget.MaxOverspend = 0
	first := true
	for _, s := range c.servers {
		m := s.Metrics()
		if !resilienceOn(m) {
			return r, fmt.Errorf("grayfault: resilient node reports no resilience metrics")
		}
		primaries, issued, local := count(m, "swala_fetch_primaries_total"),
			count(m, "swala_hedges_issued_total"), count(m, "swala_hedges_local_total")
		r.SlowOn.BreakerFastFails += count(m, "swala_breaker_fast_fails_total")
		r.SlowOn.FetchPrimaries += primaries
		r.SlowOn.HedgesIssued += issued
		r.SlowOn.HedgesWon += count(m, "swala_hedges_won_total")
		r.SlowOn.HedgesAbandoned += count(m, "swala_hedges_abandoned_total")
		r.SlowOn.HedgesDenied += count(m, "swala_hedges_denied_total")
		r.SlowOn.HedgesLocal += local
		for _, smp := range m {
			if smp.Name == "swala_peer_breaker_trips_total" {
				r.SlowOn.BreakerTrips += uint64(smp.Value)
			}
		}
		spent := float64(issued + local)
		allowance := core.RetryBudgetRatio*float64(primaries) + core.RetryBudgetBurst + 1
		over := spent - allowance
		if first || over > r.Budget.MaxOverspend {
			r.Budget.MaxOverspend = over
			first = false
		}
		if over > 0 {
			r.Budget.Respected = false
		}
	}

	// --- Phase A comparison: resilience off, same injected delay ---

	cn, faultyN, err := buildCluster(false)
	if err != nil {
		return r, err
	}
	defer cn.Close()

	// Default-off contract, checked before injection: no resilience stats
	// section and no resilience headers on an ordinary response.
	if err := warm(cn); err != nil {
		return r, err
	}
	r.DefaultOff.ResilienceNil = true
	for _, s := range cn.servers {
		if resilienceOn(s.Metrics()) {
			r.DefaultOff.ResilienceNil = false
		}
	}
	resp, err := cn.client.Get(cn.addrs[0], workload.HotSetURI(0, cost))
	if err != nil || resp.StatusCode != 200 {
		return r, fmt.Errorf("grayfault: default-off probe: err=%v", err)
	}
	r.DefaultOff.CleanHeaders = resp.Header.Get("X-Swala-Shed") == "" &&
		resp.Header.Get("X-Swala-Cache") != "stale-overload"
	r.DefaultOff.Passed = r.DefaultOff.ResilienceNil && r.DefaultOff.CleanHeaders

	faultyN.SetDelayJitter(r.DelayJitter)
	faultyN.SetDelayFrom(cluAddr(slow), delay)
	time.Sleep(50 * time.Millisecond)
	var rec stats.LatencyRecorder
	for _, uri := range slowOwned {
		start := time.Now()
		resp, err := cn.client.Get(cn.addrs[0], uri)
		if err != nil || resp.StatusCode != 200 {
			return r, fmt.Errorf("grayfault: slow-off GET %s: err=%v", uri, err)
		}
		rec.Record(time.Since(start))
	}
	sum := rec.Summary()
	r.SlowOff.Keys = len(slowOwned)
	r.SlowOff.P50 = sum.P50
	r.SlowOff.P99 = sum.P99

	// --- Phase B: flash crowd on a single 1-core node ---

	ovCost := 40 // paper-ms -> ServiceTime per execution at the run's scale
	r.Overload.ServiceTime = o.Scale.D(0.001 * float64(ovCost))
	reqTO := 250 * time.Millisecond
	r.Overload.RequestTimeout = reqTO
	ovDur := time.Duration(o.pick(2, 4)) * time.Second
	r.Overload.Duration = ovDur

	buildNode := func(shed bool) (*swalaCluster, error) {
		settle()
		return newSwalaCluster(o, clusterSpec{
			n: 1, mode: core.Cooperative, cores: 1,
			mutate: func(i int, cfg *core.Config) {
				cfg.RequestTimeout = reqTO
				// A wide thread pool puts the flash crowd's queueing on the
				// CPU model (where RequestTimeout and the shed controller
				// see it) instead of in the accept backlog.
				cfg.RequestThreads = 512
				if shed {
					cfg.Shed = true
					cfg.ShedLowWatermark = 20 * time.Millisecond
					cfg.ShedHighWatermark = 60 * time.Millisecond
				}
			},
		})
	}
	uniqueSource := func(c *swalaCluster, tag string, perClient int) workload.Source {
		return func(client, seq int) (string, string, bool) {
			if perClient > 0 && seq >= perClient {
				return "", "", false
			}
			uri := fmt.Sprintf("/cgi-bin/adl?q=ov-%s-%d-%d&cost=%d", tag, client, seq, ovCost)
			return c.addrs[0], uri, true
		}
	}

	// Measured capacity: a saturating closed-loop run on an unshedded node.
	// Eight clients keep the queue at ~8 service times, far under the
	// request timeout, so every request completes.
	capNode, err := buildNode(false)
	if err != nil {
		return r, err
	}
	capDrv := &workload.Driver{
		Client:    capNode.client,
		Clients:   8,
		Source:    uniqueSource(capNode, "cap", o.pick(40, 100)),
		KeepAlive: true,
	}
	capOut := capDrv.Run()
	capNode.Close()
	if capOut.Errors > 0 {
		return r, fmt.Errorf("grayfault: capacity run: %d errors", capOut.Errors)
	}
	capacity := capOut.Throughput()
	r.Overload.Capacity = capacity
	offered := 3 * capacity
	r.Overload.OfferedRate = offered

	// Shed off: the open-loop flood outruns the server, queue delay blows
	// past the request timeout, and admitted work dies after consuming its
	// reservation — goodput collapses.
	offNode, err := buildNode(false)
	if err != nil {
		return r, err
	}
	offOut := (&workload.OpenLoopDriver{
		Client:    offNode.client,
		Rate:      offered,
		Duration:  ovDur,
		Source:    uniqueSource(offNode, "off", 0),
		KeepAlive: true,
		Seed:      o.Seed + 10,
	}).Run()
	offNode.Close()
	r.Overload.ShedOff.Offered = offOut.Offered
	r.Overload.ShedOff.Completed = offOut.Requests
	r.Overload.ShedOff.Errors = offOut.Errors + offOut.Shed
	r.Overload.ShedOff.Goodput = offOut.Throughput()
	if capacity > 0 {
		r.Overload.ShedOff.CollapseFraction = r.Overload.ShedOff.Goodput / capacity
	}

	// Shed on: the watermark controller refuses would-executes at the door
	// (cheap 503s), keeps the queue under the timeout, and the CPU spends
	// its time on work that completes.
	onNode, err := buildNode(true)
	if err != nil {
		return r, err
	}
	onOut := (&workload.OpenLoopDriver{
		Client:    onNode.client,
		Rate:      offered,
		Duration:  ovDur,
		Source:    uniqueSource(onNode, "on", 0),
		KeepAlive: true,
		Seed:      o.Seed + 11,
	}).Run()
	m := onNode.servers[0].Metrics()
	r.Overload.ShedOn.ShedLocal = count(m, "swala_shed_total", "class", "local")
	r.Overload.ShedOn.ShedStale = count(m, "swala_shed_total", "class", "stale")
	onNode.Close()
	r.Overload.ShedOn.Offered = onOut.Offered
	r.Overload.ShedOn.Completed = onOut.Requests
	r.Overload.ShedOn.Errors = onOut.Errors + onOut.Shed
	r.Overload.ShedOn.Goodput = onOut.Throughput()
	if capacity > 0 {
		r.Overload.ShedOn.GoodputFraction = r.Overload.ShedOn.Goodput / capacity
	}
	r.Overload.ShedOn.GoodputOK = r.Overload.ShedOn.GoodputFraction >= 0.8

	return r, nil
}

// Render formats the result as a human-readable report.
func (r GrayFaultResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gray-failure & overload schedule, %d nodes, %d hot keys (go %s, GOMAXPROCS %d):\n",
		r.Nodes, r.HotKeys, r.Meta.GoVersion, r.Meta.GOMAXPROCS)
	fmt.Fprintf(&b, "  slow peer: node %d delayed %v (+-%.0f%% jitter) — under the probe timeout, so never quarantined\n",
		r.SlowNode, r.InjectedDelay, 100*r.DelayJitter)
	fmt.Fprintf(&b, "  healthy:   %d requests, hit ratio %.1f%%, p50 %v, p99 %v\n",
		r.Healthy.Requests, 100*r.Healthy.HitRatio,
		r.Healthy.P50.Round(time.Microsecond), r.Healthy.P99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  resilience off: slow-owned keys p50 %v, p99 %v (every request pays the delay)\n",
		r.SlowOff.P50.Round(time.Millisecond), r.SlowOff.P99.Round(time.Millisecond))
	fmt.Fprintf(&b, "  resilience on:  converged in %v (%d passes); p50 %v, p99 %v (budget %v: %v)\n",
		r.SlowOn.ConvergeTime.Round(time.Millisecond), r.SlowOn.ConvergePasses,
		r.SlowOn.P50.Round(time.Microsecond), r.SlowOn.P99.Round(time.Microsecond),
		r.SlowOn.P99Budget.Round(time.Microsecond), r.SlowOn.Within2x)
	fmt.Fprintf(&b, "    hedges: issued %d of %d primaries, won %d, abandoned %d, denied %d, local fallbacks %d\n",
		r.SlowOn.HedgesIssued, r.SlowOn.FetchPrimaries, r.SlowOn.HedgesWon,
		r.SlowOn.HedgesAbandoned, r.SlowOn.HedgesDenied, r.SlowOn.HedgesLocal)
	fmt.Fprintf(&b, "    breakers: %d trips, %d fast-failed fetches; retry budget respected: %v (max overspend %.1f)\n",
		r.SlowOn.BreakerTrips, r.SlowOn.BreakerFastFails, r.Budget.Respected, r.Budget.MaxOverspend)
	fmt.Fprintf(&b, "  overload: capacity %.0f rps (service %v, request timeout %v), offered 3x = %.0f rps for %v\n",
		r.Overload.Capacity, r.Overload.ServiceTime.Round(time.Microsecond),
		r.Overload.RequestTimeout, r.Overload.OfferedRate, r.Overload.Duration)
	fmt.Fprintf(&b, "    shed off: goodput %.0f rps (%.0f%% of capacity) — %d completed, %d failed\n",
		r.Overload.ShedOff.Goodput, 100*r.Overload.ShedOff.CollapseFraction,
		r.Overload.ShedOff.Completed, r.Overload.ShedOff.Errors)
	fmt.Fprintf(&b, "    shed on:  goodput %.0f rps (%.0f%% of capacity, >=80%%: %v) — %d completed, %d shed local, %d stale\n",
		r.Overload.ShedOn.Goodput, 100*r.Overload.ShedOn.GoodputFraction, r.Overload.ShedOn.GoodputOK,
		r.Overload.ShedOn.Completed, r.Overload.ShedOn.ShedLocal, r.Overload.ShedOn.ShedStale)
	fmt.Fprintf(&b, "  default off: resilience stats nil %v, clean headers %v\n",
		r.DefaultOff.ResilienceNil, r.DefaultOff.CleanHeaders)
	return b.String()
}
