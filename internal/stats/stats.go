// Package stats collects latency and cache-effectiveness measurements for
// the Swala experiments: per-request response-time recorders, summary
// statistics (mean, percentiles), hit-ratio accounting, and speedup
// computation. All recorders are safe for concurrent use by the many client
// threads the load generators run.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyRecorder accumulates response-time samples from concurrent clients.
// The zero value is ready to use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Record adds one response-time sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

// Count reports the number of samples recorded so far.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Reset discards all samples.
func (r *LatencyRecorder) Reset() {
	r.mu.Lock()
	r.samples = r.samples[:0]
	r.mu.Unlock()
}

// Summary computes summary statistics over the recorded samples.
func (r *LatencyRecorder) Summary() Summary {
	r.mu.Lock()
	samples := make([]time.Duration, len(r.samples))
	copy(samples, r.samples)
	r.mu.Unlock()
	return Summarize(samples)
}

// Summary holds aggregate statistics for a set of duration samples.
type Summary struct {
	Count  int
	Total  time.Duration
	Mean   time.Duration
	Min    time.Duration
	Max    time.Duration
	P50    time.Duration
	P90    time.Duration
	P99    time.Duration
	P999   time.Duration
	Stddev time.Duration
}

// Summarize computes a Summary from a sample set. An empty input yields a
// zero Summary.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	mean := total / time.Duration(len(sorted))

	var sq float64
	for _, d := range sorted {
		diff := float64(d - mean)
		sq += diff * diff
	}
	std := time.Duration(math.Sqrt(sq / float64(len(sorted))))

	return Summary{
		Count:  len(sorted),
		Total:  total,
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    Percentile(sorted, 50),
		P90:    Percentile(sorted, 90),
		P99:    Percentile(sorted, 99),
		P999:   Percentile(sorted, 99.9),
		Stddev: std,
	}
}

// Percentile returns the p-th percentile (0-100) of an ascending-sorted
// sample set using nearest-rank interpolation.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v min=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.Min, s.Max)
}

// Indices into a hit shard's counter array, one per HitCounter event.
const (
	hitLocal = iota
	hitRemote
	hitMiss
	hitFalseMiss
	hitFalseHit
	hitInsert
	hitEviction
	hitCoalesced
	hitAbandoned
	hitRemoteServe
	numHitFields
)

// hitShard is one lock-shard of a HitCounter. Each shard is padded so that
// two shards never share a cache line: an increment touches only the calling
// core's shard, so request threads on different cores stop bouncing one
// counter line between them.
type hitShard struct {
	mu sync.Mutex
	c  [numHitFields]int64
	_  [shardPad - (numHitFields*8+8)%shardPad]byte
}

// HitCounter tracks cache-lookup outcomes. All methods are safe for
// concurrent use. The zero value is ready to use.
//
// The counters are sharded per calling goroutine and summed on Snapshot;
// Snapshot holds every shard lock at once, so it observes a consistent cut
// of the counter state — an event is never half-visible, and cross-field
// invariants that held at every instant of execution (e.g. an Insert only
// ever follows its Miss) hold in every snapshot.
type HitCounter struct {
	shards [numShards]hitShard
}

// LocalHit records a hit served from the node's own cache.
func (h *HitCounter) LocalHit() { h.add(hitLocal) }

// RemoteHit records a hit served from a peer's cache.
func (h *HitCounter) RemoteHit() { h.add(hitRemote) }

// Miss records a cache miss (CGI executed).
func (h *HitCounter) Miss() { h.add(hitMiss) }

// FalseMiss records a miss that an ideal (instantaneous-consistency) cache
// would have served as a hit.
func (h *HitCounter) FalseMiss() { h.add(hitFalseMiss) }

// FalseHit records a directory hit whose remote fetch failed because the
// entry was already deleted.
func (h *HitCounter) FalseHit() { h.add(hitFalseHit) }

// Insert records a cache insertion.
func (h *HitCounter) Insert() { h.add(hitInsert) }

// Eviction records a replacement-policy eviction.
func (h *HitCounter) Eviction() { h.add(hitEviction) }

// Coalesced records a request that piggybacked on a concurrent identical
// CGI execution instead of running its own (miss coalescing, a
// beyond-the-paper optimisation; see core.Config.CoalesceMisses). Coalesced
// requests are deliberately excluded from Lookups/HitRatio so the paper's
// hit-ratio accounting is unchanged when the feature is off.
func (h *HitCounter) Coalesced() { h.add(hitCoalesced) }

// CoalescedAbandoned records a coalesced waiter that gave up (its request
// context was canceled or timed out) before the shared execution finished.
// Abandoned waiters are counted here instead of Coalesced so the coalescing
// numbers in EXPERIMENTS.md reflect only requests actually served from a
// shared execution.
func (h *HitCounter) CoalescedAbandoned() { h.add(hitAbandoned) }

// RemoteServe records this node serving one peer-routed fetch — a remote hit
// served from its cache or a routed miss executed here as the ring owner.
// The per-node spread of this counter is how the replication experiment
// measures hot-key serve concentration, so it exists in every mode (the
// baseline needs it too).
func (h *HitCounter) RemoteServe() { h.add(hitRemoteServe) }

func (h *HitCounter) add(f int) {
	s := &h.shards[shardIndex()]
	s.mu.Lock()
	s.c[f]++
	s.mu.Unlock()
}

// Snapshot returns a point-in-time copy of the counters. It locks every
// shard (in index order, so concurrent snapshots cannot deadlock) before
// reading any of them: the result is a consistent cut, never a torn
// multi-field read. Snapshots are off the hot path — /swala-status, the
// wire stats reply, end-of-run accounting — so the full sweep is cheap
// where it matters.
func (h *HitCounter) Snapshot() HitSnapshot {
	for i := range h.shards {
		h.shards[i].mu.Lock()
	}
	var c [numHitFields]int64
	for i := range h.shards {
		for f, v := range h.shards[i].c {
			c[f] += v
		}
	}
	for i := range h.shards {
		h.shards[i].mu.Unlock()
	}
	return HitSnapshot{
		LocalHits:          c[hitLocal],
		RemoteHits:         c[hitRemote],
		Misses:             c[hitMiss],
		FalseMisses:        c[hitFalseMiss],
		FalseHits:          c[hitFalseHit],
		Inserts:            c[hitInsert],
		Evictions:          c[hitEviction],
		Coalesced:          c[hitCoalesced],
		CoalescedAbandoned: c[hitAbandoned],
		RemoteServes:       c[hitRemoteServe],
	}
}

// HitSnapshot is an immutable view of a HitCounter.
type HitSnapshot struct {
	LocalHits          int64
	RemoteHits         int64
	Misses             int64
	FalseMisses        int64
	FalseHits          int64
	Inserts            int64
	Evictions          int64
	Coalesced          int64
	CoalescedAbandoned int64
	RemoteServes       int64
}

// Hits returns local + remote hits.
func (s HitSnapshot) Hits() int64 { return s.LocalHits + s.RemoteHits }

// Lookups returns total cacheable lookups (hits + misses).
func (s HitSnapshot) Lookups() int64 { return s.Hits() + s.Misses }

// HitRatio returns hits / lookups, or 0 when no lookups happened.
func (s HitSnapshot) HitRatio() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(n)
}

// Add returns the element-wise sum of two snapshots, used to aggregate
// counters across cluster nodes.
func (s HitSnapshot) Add(o HitSnapshot) HitSnapshot {
	return HitSnapshot{
		LocalHits:          s.LocalHits + o.LocalHits,
		RemoteHits:         s.RemoteHits + o.RemoteHits,
		Misses:             s.Misses + o.Misses,
		FalseMisses:        s.FalseMisses + o.FalseMisses,
		FalseHits:          s.FalseHits + o.FalseHits,
		Inserts:            s.Inserts + o.Inserts,
		Evictions:          s.Evictions + o.Evictions,
		Coalesced:          s.Coalesced + o.Coalesced,
		CoalescedAbandoned: s.CoalescedAbandoned + o.CoalescedAbandoned,
		RemoteServes:       s.RemoteServes + o.RemoteServes,
	}
}

// String renders the snapshot compactly.
func (s HitSnapshot) String() string {
	return fmt.Sprintf("hits=%d (local=%d remote=%d) misses=%d falseMiss=%d falseHit=%d inserts=%d evictions=%d coalesced=%d abandoned=%d",
		s.Hits(), s.LocalHits, s.RemoteHits, s.Misses, s.FalseMisses, s.FalseHits, s.Inserts, s.Evictions, s.Coalesced, s.CoalescedAbandoned)
}

// Speedup returns base/measured as a factor (e.g. 2.0 means twice as fast);
// it returns 0 if measured is zero.
func Speedup(base, measured time.Duration) float64 {
	if measured == 0 {
		return 0
	}
	return float64(base) / float64(measured)
}

// --- request-pipeline stage statistics ---

// StageOutcome classifies how one pass through a pipeline stage ended.
type StageOutcome int

// Stage outcomes recorded by the fetch chain.
const (
	// StageServed: the stage produced the result itself.
	StageServed StageOutcome = iota
	// StageDeferred: the stage passed the fetch to the next stage.
	StageDeferred
	// StageFailed: the stage returned a non-cancellation error.
	StageFailed
	// StageCanceled: the stage aborted on context cancellation or deadline.
	StageCanceled
)

// stageSampleEvery is the latency sampling interval: one in this many
// attempts per stage is timed. Outcome counters are exact; only the clock
// reads are sampled, keeping the chain's hot-path cost to a single atomic
// add on unsampled served attempts.
const stageSampleEvery = 64

// stageShard is one shard of a StageStats. Every chain walk adds to the
// attempts counter of every stage it passes, so with a single set of atomics
// per stage each request would bounce four stage cache lines between cores;
// the padded shards give each core (in practice, each pool goroutine) its
// own lines.
type stageShard struct {
	attempts atomic.Int64
	deferred atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	timed    atomic.Int64 // attempts with a latency sample
	nanos    atomic.Int64 // summed sampled time inside the stage
	_        [shardPad - 6*8%shardPad]byte
}

// StageStats accumulates counters for one pipeline stage. All methods are
// safe for concurrent use; counters are sharded atomics because the stage
// wrappers sit on the request hot path. Serves — the hot-path outcome — are
// not counted directly: a serve is an attempt with no deferral/failure/
// cancellation record, so Snapshot derives it and a served attempt costs one
// atomic add total, on a shard no other core is writing.
type StageStats struct {
	name   string
	shards [numShards]stageShard
}

// Name returns the stage label.
func (s *StageStats) Name() string { return s.name }

// StartAttempt counts one pass into the stage and reports whether the caller
// should time this pass (latency is sampled, not measured on every attempt).
// The sampling decision is per shard, which preserves the overall one-in-
// stageSampleEvery rate: each shard samples that fraction of its own
// attempts.
func (s *StageStats) StartAttempt() bool {
	// stageSampleEvery is a power of two, so the sampling decision is a mask
	// rather than a division (attempt counts are always positive).
	return s.shards[shardIndex()].attempts.Add(1)&(stageSampleEvery-1) == 1
}

// Outcome records how one pass through the stage ended. StageServed is a
// no-op: serves are derived from the attempt count, so callers on the serve
// path may skip the call entirely.
func (s *StageStats) Outcome(outcome StageOutcome) {
	sh := &s.shards[shardIndex()]
	switch outcome {
	case StageDeferred:
		sh.deferred.Add(1)
	case StageFailed:
		sh.failed.Add(1)
	case StageCanceled:
		sh.canceled.Add(1)
	}
}

// ObserveTime records one sampled latency measurement (the time spent inside
// the stage, excluding downstream stages).
func (s *StageStats) ObserveTime(d time.Duration) {
	sh := &s.shards[shardIndex()]
	sh.timed.Add(1)
	sh.nanos.Add(int64(d))
}

// StageSnapshot is a point-in-time view of one stage's counters.
type StageSnapshot struct {
	Name     string
	Attempts int64
	Served   int64
	Deferred int64
	Failed   int64
	Canceled int64
	// Timed is the number of attempts with a latency sample.
	Timed int64
	// Time is the cumulative sampled time spent inside the stage (excluding
	// downstream stages).
	Time time.Duration
}

// MeanTime returns the mean in-stage time across sampled attempts (0 without
// samples).
func (s StageSnapshot) MeanTime() time.Duration {
	if s.Timed == 0 {
		return 0
	}
	return s.Time / time.Duration(s.Timed)
}

// Snapshot copies the stage counters, summing across shards. Served is
// derived (attempts minus the other outcomes) and clamped at zero: an attempt
// that has started but not yet recorded its outcome would otherwise briefly
// read as a serve.
func (s *StageStats) Snapshot() StageSnapshot {
	snap := StageSnapshot{Name: s.name}
	var nanos int64
	for i := range s.shards {
		sh := &s.shards[i]
		snap.Attempts += sh.attempts.Load()
		snap.Deferred += sh.deferred.Load()
		snap.Failed += sh.failed.Load()
		snap.Canceled += sh.canceled.Load()
		snap.Timed += sh.timed.Load()
		nanos += sh.nanos.Load()
	}
	snap.Time = time.Duration(nanos)
	if served := snap.Attempts - snap.Deferred - snap.Failed - snap.Canceled; served > 0 {
		snap.Served = served
	}
	return snap
}

// PipelineStats holds the per-stage counters of one fetch chain. Stages are
// registered up front (at chain construction), so the hot path never takes a
// lock: Stage returns a stable pointer whose counters are atomics.
type PipelineStats struct {
	mu     sync.Mutex
	order  []string
	stages map[string]*StageStats
}

// NewPipelineStats creates an empty pipeline-stats registry.
func NewPipelineStats() *PipelineStats {
	return &PipelineStats{stages: make(map[string]*StageStats)}
}

// Stage returns the counters for name, registering the stage on first use.
func (p *PipelineStats) Stage(name string) *StageStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.stages[name]; ok {
		return s
	}
	s := &StageStats{name: name}
	p.stages[name] = s
	p.order = append(p.order, name)
	return s
}

// Snapshot returns per-stage snapshots in registration (chain) order.
func (p *PipelineStats) Snapshot() []StageSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]StageSnapshot, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, p.stages[name].Snapshot())
	}
	return out
}

// ReplicationSnapshot is a point-in-time view of a node's directory
// replication counters: how many updates were broadcast, how well batching
// amortized stream writes, and how much anti-entropy sync had to heal.
type ReplicationSnapshot struct {
	// Updates is the number of directory updates enqueued toward peers
	// (one update fanned out to k peers counts k).
	Updates uint64 `json:"updates"`
	// UpdatesSent is how many of those actually went out on the wire.
	UpdatesSent uint64 `json:"updates_sent"`
	// BatchFrames counts DirBatch frames written.
	BatchFrames uint64 `json:"batch_frames"`
	// Flushes counts real pushes to the underlying stream on peer links —
	// the write syscalls on a TCP transport.
	Flushes uint64 `json:"flushes"`
	// SyncsSent counts anti-entropy catch-ups shipped, split into full
	// snapshots and deltas, with the total updates they carried.
	SyncsSent   uint64 `json:"syncs_sent"`
	SyncFull    uint64 `json:"sync_full"`
	SyncDelta   uint64 `json:"sync_delta"`
	SyncUpdates uint64 `json:"sync_updates"`
	// SyncsApplied counts catch-ups received and applied from peers.
	SyncsApplied uint64 `json:"syncs_applied"`
	// Dropped counts updates discarded because a peer queue was full.
	Dropped uint64 `json:"dropped"`
}
