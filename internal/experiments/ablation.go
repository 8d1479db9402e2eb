package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/replacement"
	"repro/internal/tablefmt"
	"repro/internal/workload"
)

// PolicyAblationResult compares the five replacement policies on a skewed,
// cost-heterogeneous workload with an undersized cache — the design space
// the paper's Section 3 threshold discussion motivates and its companion
// technical report explores.
type PolicyAblationResult struct {
	Policies  []string
	Hits      []int64
	HitRatio  []float64
	Mean      []time.Duration
	Evictions []int64
	Scale     float64
}

// RunPolicyAblation measures every replacement policy on the same workload:
// popular queries are cheap, the long tail is expensive, and the cache holds
// a fifth of the working set.
func RunPolicyAblation(opt Options) (PolicyAblationResult, error) {
	opt = opt.withDefaults()
	res := PolicyAblationResult{Scale: float64(opt.Scale.PerSecond)}

	queries, capacity := policyTrace(opt)
	reqs := make([]workload.TraceRequest, len(queries))
	for i, q := range queries {
		reqs[i].URI = policyURI(q)
	}

	for _, kind := range replacement.Kinds() {
		settle()
		cluster, err := newSwalaCluster(opt, clusterSpec{
			n: 1, mode: core.StandAlone, capacity: capacity, policy: string(kind),
		})
		if err != nil {
			return res, err
		}
		client := httpclient.New(cluster.mem)
		d := &workload.Driver{
			Client:  client,
			Clients: 4,
			Source:  workload.SliceSource(cluster.addrs, reqs, 4),
		}
		out := d.Run()
		snap := cluster.servers[0].Counters()
		client.Close()
		cluster.Close()
		if out.Errors > 0 {
			return res, fmt.Errorf("policy ablation: %d errors with %s", out.Errors, kind)
		}
		res.Policies = append(res.Policies, string(kind))
		res.Hits = append(res.Hits, snap.Hits())
		res.HitRatio = append(res.HitRatio, snap.HitRatio())
		res.Mean = append(res.Mean, out.Latency.Mean)
		res.Evictions = append(res.Evictions, snap.Evictions)
	}
	return res, nil
}

// policyTrace returns the ablation's workload for opt: the query ID of each
// request in order, drawn Zipf from the distinct queries, and the cache
// capacity, a fifth of them.
func policyTrace(opt Options) (queries []int, capacity int) {
	distinct := opt.pick(100, 200)
	rng := rand.New(rand.NewSource(opt.Seed))
	queries = make([]int, opt.pick(1000, 3000))
	for i := range queries {
		queries[i] = zipfPick(rng, distinct)
	}
	return queries, distinct / 5
}

// policyCostMs is query q's execution cost in paper-ms. It is decorrelated
// from popularity (a deterministic hash of the query ID spreads costs 50-850
// paper-ms): among equally popular queries, retaining the expensive ones
// saves more time, which is exactly the signal GDS uses and
// recency/frequency policies ignore.
func policyCostMs(q int) int { return 50 + int(queryCostHash(q)%800) }

// policyURI is the request for query q.
func policyURI(q int) string {
	return fmt.Sprintf("/cgi-bin/adl?q=query%03d&cost=%d", q, policyCostMs(q))
}

// queryCostHash maps a query ID to a stable pseudo-random cost component.
func queryCostHash(q int) uint64 {
	x := uint64(q)*2654435761 + 982451653
	x ^= x >> 16
	x *= 2246822519
	x ^= x >> 13
	return x
}

// zipfPick returns a query ID in [0, n) with harmonic-series popularity.
func zipfPick(rng *rand.Rand, n int) int {
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / float64(k+1)
	}
	x := rng.Float64() * total
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += 1 / float64(k+1)
		if x < acc {
			return k
		}
	}
	return n - 1
}

// Best returns the index of the policy with the lowest mean response time.
func (r PolicyAblationResult) Best() int {
	best := 0
	for i := range r.Mean {
		if r.Mean[i] < r.Mean[best] {
			best = i
		}
	}
	return best
}

// MeanOf returns the mean response time of a policy by name (0 if absent).
func (r PolicyAblationResult) MeanOf(name string) time.Duration {
	for i, p := range r.Policies {
		if p == name {
			return r.Mean[i]
		}
	}
	return 0
}

// Render formats the ablation as a table.
func (r PolicyAblationResult) Render() string {
	var sb strings.Builder
	t := tablefmt.New("Ablation. Replacement policies on a skewed, cost-heterogeneous workload (cache = 20% of working set).",
		"policy", "hits", "hit ratio", "mean response (s)", "evictions")
	for i, p := range r.Policies {
		t.AddRow(
			p,
			fmt.Sprintf("%d", r.Hits[i]),
			fmt.Sprintf("%.0f%%", 100*r.HitRatio[i]),
			fmt.Sprintf("%.3f", float64(r.Mean[i])/r.Scale),
			fmt.Sprintf("%d", r.Evictions[i]),
		)
	}
	sb.WriteString(t.String())
	sb.WriteString(fmt.Sprintf("\nBest mean response: %s. Cost-aware GDS retains the expensive long tail;\nLFU retains the popular head; FIFO/SIZE ignore both signals.\n",
		r.Policies[r.Best()]))
	return sb.String()
}
