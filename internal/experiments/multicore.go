package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// MulticorePoint is one GOMAXPROCS setting of the scaling sweep: closed-loop
// capacity on the warm hot-set workload, then an open-loop (Poisson) run at
// ~70% of that capacity for honest tail latency.
type MulticorePoint struct {
	Procs int `json:"gomaxprocs"`

	// ClosedRPS is the closed-loop saturation throughput.
	ClosedRPS float64 `json:"closed_rps"`
	// SpeedupVs1 is ClosedRPS relative to the 1-proc point.
	SpeedupVs1 float64 `json:"speedup_vs_1"`

	// OpenRate is the Poisson arrival rate the open-loop run targeted.
	OpenRate float64 `json:"open_rate_rps"`
	OpenRPS  float64 `json:"open_completed_rps"`
	Offered  int     `json:"open_offered"`
	Errors   int     `json:"open_errors"`
	Shed     int     `json:"open_shed"`

	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`
}

// MulticoreResult is the machine-readable outcome of the multicore scaling
// run (benchsuite -run multicore). The acceptance gate — >=2x closed-loop
// throughput at GOMAXPROCS=4 vs 1 — is only enforceable on a host with at
// least 4 CPUs; on smaller hosts the sweep still records the (flat) curve and
// GateChecked stays false so the artifact is honest about what it measured.
type MulticoreResult struct {
	Meta   Meta `json:"meta"`
	NumCPU int  `json:"num_cpu"`

	// HotKeys is the size of the fixed key set; every request after warmup
	// is a cache hit, so the sweep stresses the request hot path (stats
	// shards, singleflight stripes, directory, store), not the CGI.
	HotKeys int `json:"hot_keys"`

	Points []MulticorePoint `json:"points"`

	// ScalingAt4 is closed-loop throughput at 4 procs over 1 proc.
	ScalingAt4 float64 `json:"scaling_at_4"`
	// GateChecked is true when the host has >=4 CPUs, i.e. when the 2x
	// gate is physically demonstrable; GatePassed is only meaningful then.
	GateChecked bool `json:"gate_checked"`
	GatePassed  bool `json:"gate_passed"`
}

// Failed names the acceptance gates that did not hold. The scaling gate
// fails only where it was checked.
func (r MulticoreResult) Failed() []string {
	return failedGates(gate{"gate_passed", !r.GateChecked || r.GatePassed})
}

// multicoreProcs returns the sweep points: 1, 2, 4, and NumCPU when larger.
func multicoreProcs() []int {
	procs := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		procs = append(procs, n)
	}
	return procs
}

// RunMulticore sweeps GOMAXPROCS across {1, 2, 4, NumCPU} on the warm
// hot-set workload against one stand-alone node over the in-memory network.
// GOMAXPROCS is restored before returning.
func RunMulticore(o Options) (MulticoreResult, error) {
	o = o.withDefaults()
	var r MulticoreResult
	r.Meta = CollectMeta()
	r.NumCPU = runtime.NumCPU()
	r.HotKeys = o.pick(64, 256)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	clients := 16
	perClient := o.pick(250, 2000)
	openDur := 500 * time.Millisecond
	if !o.Quick {
		openDur = 2 * time.Second
	}

	for _, procs := range multicoreProcs() {
		p, err := multicorePoint(o, procs, r.HotKeys, clients, perClient, openDur)
		if err != nil {
			return r, fmt.Errorf("multicore: %d procs: %w", procs, err)
		}
		if base := r.Points; len(base) > 0 && base[0].ClosedRPS > 0 {
			p.SpeedupVs1 = p.ClosedRPS / base[0].ClosedRPS
		} else {
			p.SpeedupVs1 = 1
		}
		r.Points = append(r.Points, p)
		if procs == 4 {
			r.ScalingAt4 = p.SpeedupVs1
		}
	}

	r.GateChecked = r.NumCPU >= 4
	r.GatePassed = r.GateChecked && r.ScalingAt4 >= 2.0
	return r, nil
}

// multicorePoint measures one GOMAXPROCS setting.
func multicorePoint(o Options, procs, hotKeys, clients, perClient int, openDur time.Duration) (MulticorePoint, error) {
	p := MulticorePoint{Procs: procs}
	runtime.GOMAXPROCS(procs)
	settle()

	// The simulated service costs exist to reproduce paper quantities; here
	// they would bury the real hot-path work under sleeps, so the node runs
	// with a negligible (but non-zero, or the default model is substituted)
	// cost model and hot-set cost 0.
	c, err := newSwalaCluster(o, clusterSpec{
		n: 1, mode: core.StandAlone, cores: procs,
		mutate: func(i int, cfg *core.Config) {
			cfg.Costs = core.CostModel{SpawnCost: time.Nanosecond}
		},
	})
	if err != nil {
		return p, err
	}
	defer c.Close()

	// Warm every hot key so the measured runs are pure cache hits.
	for k := 0; k < hotKeys; k++ {
		resp, err := c.client.Get(c.addrs[0], workload.HotSetURI(k, 0))
		if err != nil || resp.StatusCode != 200 {
			return p, fmt.Errorf("warming key %d: status %v err %v", k, resp, err)
		}
	}

	// Closed loop first: saturation capacity.
	settle()
	d := &workload.Driver{
		Client:    c.client,
		Clients:   clients,
		Source:    workload.HotSetSource(c.addrs, hotKeys, perClient, 0, o.Seed),
		KeepAlive: true,
	}
	closed := d.Run()
	if closed.Errors > 0 {
		return p, fmt.Errorf("closed loop: %d errors", closed.Errors)
	}
	p.ClosedRPS = closed.Throughput()

	// Then open loop: arrivals keep coming on schedule, so queueing shows up
	// in the tail instead of throttling the load. Start at ~70% of closed
	// capacity — the textbook below-the-knee point — and back off while the
	// system cannot actually sustain the offered schedule (on few-core hosts
	// the single dispatch goroutine competes with the server for CPU, and a
	// rate above sustainable just measures the growing backlog, not the
	// server). A short probe decides; the kept rate runs for the full window.
	runOpen := func(rate float64, dur time.Duration) workload.OpenLoopResult {
		need := int(rate*dur.Seconds()) + 1
		od := &workload.OpenLoopDriver{
			Client:    c.client,
			Rate:      rate,
			Duration:  dur,
			Source:    workload.HotSetSource(c.addrs, hotKeys, need, 0, o.Seed+1),
			KeepAlive: true,
			Seed:      o.Seed,
		}
		settle()
		return od.Run()
	}
	rate := 0.7 * p.ClosedRPS
	probeDur := openDur / 4
	for try := 0; try < 4; try++ {
		probe := runOpen(rate, probeDur)
		if probe.Throughput() >= 0.9*rate {
			break
		}
		rate /= 2
	}
	open := runOpen(rate, openDur)
	p.OpenRate = rate
	p.OpenRPS = open.Throughput()
	p.Offered = open.Offered
	p.Errors = open.Errors
	p.Shed = open.Shed
	p.P50 = open.Latency.P50
	p.P90 = open.Latency.P90
	p.P99 = open.Latency.P99
	p.P999 = open.Latency.P999
	p.Max = open.Latency.Max
	return p, nil
}

// Render formats the result as a human-readable report.
func (r MulticoreResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "multicore scaling, %d hot keys, host has %d CPUs (go %s):\n",
		r.HotKeys, r.NumCPU, r.Meta.GoVersion)
	fmt.Fprintf(&b, "  %-10s  %12s  %8s  %10s  %10s  %10s  %10s\n",
		"gomaxprocs", "closed req/s", "speedup", "open req/s", "p50", "p99", "p999")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-10d  %12.0f  %7.2fx  %10.0f  %10v  %10v  %10v\n",
			p.Procs, p.ClosedRPS, p.SpeedupVs1, p.OpenRPS,
			p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond), p.P999.Round(time.Microsecond))
	}
	if r.GateChecked {
		fmt.Fprintf(&b, "scaling gate (>=2x at 4 procs): %.2fx, passed=%v\n", r.ScalingAt4, r.GatePassed)
	} else {
		fmt.Fprintf(&b, "scaling gate (>=2x at 4 procs): not checkable on a %d-CPU host (measured %.2fx)\n",
			r.NumCPU, r.ScalingAt4)
	}
	return b.String()
}
