package core

import (
	"time"

	"repro/internal/cacheability"
	"repro/internal/replacement"
)

// Paper returns the paper's Swala: cooperative, replicated directory,
// failure detector on, every beyond-paper mechanism off, and the simulated
// cost model. Deployment fields (NodeID, Name, Store, networks, Clock,
// Logger, AccessLog, Recovered, CacheCapacity) are the caller's.
func Paper() Config {
	return Config{Mode: Cooperative, Costs: DefaultCosts()}.withDefaults()
}

// Production returns Paper with no simulated CPU (a zero cost model) and
// ring placement, hot-entry replication, stale-while-revalidate, hedged
// fetches, per-peer breakers and miss coalescing on.
func Production() Config {
	cfg := Paper()
	cfg.Costs = CostModel{}
	cfg.RingPlacement = true
	cfg.ReplicateHot = true
	cfg.SWR = true
	cfg.Hedge = true
	cfg.Breaker = true
	cfg.CoalesceMisses = true
	// Shed stays off: it watches the simulated CPU queue
	// (cpu.Node.QueueDelay), which a node with no cost model never fills.
	return cfg
}

// withDefaults fills each zero behaviour field of cfg with the paper's
// value, for New and Paper alike. A zero Costs stays zero: no simulated CPU.
func (cfg Config) withDefaults() Config {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Cacheability == nil {
		cfg.Cacheability = cacheability.CacheAll(10 * time.Minute)
	}
	if cfg.PurgeInterval <= 0 {
		cfg.PurgeInterval = time.Second
	}
	if cfg.Policy == "" {
		cfg.Policy = replacement.LRU
	}
	if cfg.HotRPS <= 0 {
		cfg.HotRPS = 50
	}
	if cfg.HotReplicas <= 0 {
		cfg.HotReplicas = 2
	}
	if cfg.HotInterval <= 0 {
		cfg.HotInterval = time.Second
	}
	if cfg.HedgeTrigger <= 0 {
		cfg.HedgeTrigger = 100 * time.Millisecond
	}
	if cfg.ShedLowWatermark <= 0 {
		cfg.ShedLowWatermark = 100 * time.Millisecond
	}
	if cfg.ShedHighWatermark <= cfg.ShedLowWatermark {
		cfg.ShedHighWatermark = 4 * cfg.ShedLowWatermark
	}
	return cfg
}
