// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables 1–6, Figures 3 and 4). Each driver builds the
// servers and workload it needs, runs the measurement, and returns a
// structured result that can render itself as a text table or ASCII chart.
// The drivers are shared by cmd/benchsuite, the repository's benchmark
// suite, and EXPERIMENTS.md generation.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/replacement"
	"repro/internal/stats"
	"repro/internal/timescale"
)

// Options tunes an experiment run.
type Options struct {
	// Scale maps paper seconds to measured time. Zero value = 1 s -> 10 ms.
	Scale timescale.Scale
	// Quick shrinks request counts and sweep points so the full suite runs
	// in tens of seconds (used by `go test -bench` and CI); the default
	// (false) uses counts close to the paper's.
	Quick bool
	// Seed drives all workload randomness.
	Seed int64
}

// Defaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Scale.PerSecond == 0 {
		o.Scale = timescale.Default()
	}
	if o.Seed == 0 {
		o.Seed = 1998
	}
	return o
}

// pick returns quick when o.Quick, else full.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// gate is one named acceptance check of a schedule result; the name is the
// check's JSON field.
type gate struct {
	name string
	ok   bool
}

// failedGates returns the names of the gates that did not hold, in order.
func failedGates(gates ...gate) []string {
	var failed []string
	for _, g := range gates {
		if !g.ok {
			failed = append(failed, g.name)
		}
	}
	return failed
}

// settle quiesces the runtime between measured configurations: a completed
// GC cycle prevents garbage from an earlier configuration's run from being
// collected during (and billed to) the next one.
func settle() {
	runtime.GC()
}

// --- cluster construction helpers ---

// swalaCluster is a set of connected Swala nodes over an in-memory network.
type swalaCluster struct {
	mem     *netx.Mem
	servers []*core.Server
	client  *httpclient.Client
	addrs   []string
}

// clusterSpec configures swala cluster construction.
type clusterSpec struct {
	n        int
	mode     core.Mode
	capacity int
	policy   string // replacement kind; "" = LRU
	ttl      time.Duration
	cores    int
	// mem, when non-nil, reuses an existing in-memory network instead of
	// creating a fresh one (so callers can wrap it, e.g. with netx.Faulty).
	mem *netx.Mem
	// netFor, when non-nil, supplies each node's transport (the fault
	// experiments hand every node a fault-injection endpoint view).
	netFor func(i int) netx.Network
	// mutate, when non-nil, adjusts each node's config just before the
	// server is built (replication knobs, queue depths, ...).
	mutate func(i int, cfg *core.Config)
}

// newSwalaCluster builds n Swala nodes, registers the standard experiment
// content (WebStone files, nullcgi, the ADL synthetic program, and an
// uncacheable private program), and connects the mesh.
func newSwalaCluster(opt Options, spec clusterSpec) (*swalaCluster, error) {
	mem := spec.mem
	if mem == nil {
		mem = netx.NewMem()
	}
	c := &swalaCluster{mem: mem, client: httpclient.New(mem)}

	ttl := spec.ttl
	if ttl == 0 {
		ttl = time.Hour
	}
	pol := cacheability.NewPolicy()
	pol.Add("/cgi-bin/private*", cacheability.NoCache, 0)
	pol.Add("/cgi-bin/*", cacheability.Cache, ttl)
	pol.DefaultTTL = ttl

	costs := core.ScaledCosts(opt.Scale)
	for i := 0; i < spec.n; i++ {
		cfg := core.Config{
			NodeID:        uint32(i + 1),
			Mode:          spec.mode,
			Cores:         spec.cores,
			Costs:         costs,
			CacheCapacity: spec.capacity,
			Cacheability:  pol,
			Network:       mem,
			FetchTimeout:  10 * time.Second,
			PurgeInterval: time.Hour, // experiments purge explicitly if at all
		}
		if spec.policy != "" {
			cfg.Policy = replacement.Kind(spec.policy)
		}
		if spec.netFor != nil {
			cfg.Network = spec.netFor(i)
		}
		if spec.mutate != nil {
			spec.mutate(i, &cfg)
		}
		s := core.New(cfg)
		registerExperimentContent(s.Files(), s.CGI(), opt.Scale)
		httpAddr := fmt.Sprintf("swala-http-%d", i+1)
		cluAddr := fmt.Sprintf("swala-clu-%d", i+1)
		if err := s.Start(httpAddr, cluAddr); err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, s)
		c.addrs = append(c.addrs, httpAddr)
	}
	if spec.mode == core.Cooperative {
		for i := range c.servers {
			for j := range c.servers {
				if i == j {
					continue
				}
				if err := c.servers[i].ConnectPeer(uint32(j+1), fmt.Sprintf("swala-clu-%d", j+1)); err != nil {
					c.Close()
					return nil, err
				}
			}
		}
	}
	return c, nil
}

// Close shuts down all servers and the client.
func (c *swalaCluster) Close() {
	if c.client != nil {
		c.client.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// registerExperimentContent installs the standard static files and CGI
// programs used across the experiments.
func registerExperimentContent(files *content.FileSet, engine *cgi.Engine, scale timescale.Scale) {
	content.WebStoneMix(files)
	// nullcgi: WebStone's do-nothing program; cost is pure spawn overhead.
	engine.Register("/cgi-bin/null", &cgi.Synthetic{OutputSize: 80})
	// The ADL stand-in: service time comes from the cost=<paper-ms> query
	// parameter, so one program serves heterogeneous trace replays.
	engine.Register("/cgi-bin/adl", &cgi.Synthetic{
		OutputSize:   2048,
		PerQueryTime: scale.D(0.001),
	})
	// An uncacheable program for the Table 4 directory-maintenance load.
	engine.Register("/cgi-bin/private", &cgi.Synthetic{
		OutputSize:   512,
		PerQueryTime: scale.D(0.001),
	})
}

// newBaseline builds a baseline server with the standard experiment content,
// with costs scaled like Swala's.
func newBaseline(opt Options, mem *netx.Mem, kind baseline.Kind, addr string) (*baseline.Server, error) {
	costs := scaledBaselineCosts(opt.Scale, kind)
	s, err := baseline.New(baseline.Config{Kind: kind, Costs: &costs, Network: mem})
	if err != nil {
		return nil, err
	}
	registerExperimentContent(s.Files(), s.CGI(), opt.Scale)
	if err := s.Start(addr); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// scaledBaselineCosts derives baseline cost models for an arbitrary scale
// from the same paper-time constants as baseline.DefaultCosts.
func scaledBaselineCosts(s timescale.Scale, kind baseline.Kind) baseline.Costs {
	switch kind {
	case baseline.HTTPd:
		return baseline.Costs{
			ProcSpawn: s.D(0.025),
			FileBase:  s.D(0.006),
			PerByte:   s.D(0.0000025),
			CGISpawn:  s.D(0.022),
		}
	case baseline.Enterprise:
		return baseline.Costs{
			FileBase:          s.D(0.0022),
			PerByte:           s.D(0.0000008),
			CGISpawn:          s.D(0.060),
			ContentionPenalty: s.D(0.001),
		}
	default:
		return baseline.Costs{}
	}
}

// count reads one sample of a node's metrics as a count (0 when absent).
func count(samples []stats.Sample, name string, labelPairs ...string) uint64 {
	v, _ := stats.Find(samples, name, labelPairs...)
	return uint64(v)
}

// resilienceOn reports whether any of hedging, breakers or shedding is
// reporting metrics.
func resilienceOn(samples []stats.Sample) bool {
	for _, name := range []string{"swala_fetch_primaries_total", "swala_breaker_fast_fails_total", "swala_shed_level"} {
		if _, ok := stats.Find(samples, name); ok {
			return true
		}
	}
	return false
}
