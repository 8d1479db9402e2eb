// Package core implements the Swala server itself — the paper's primary
// contribution. A core.Server ties together the HTTP module (request-thread
// pool), the cacher module (replicated directory + disk store + replacement
// policy + purge daemon), the CGI engine, and the cluster protocol, and
// implements the control flow of the paper's Figure 2 for every request:
//
//	cacheable? ──no──► execute CGI, return result
//	   │yes
//	cached? ──no──► execute CGI, tee to cache file, insert + broadcast
//	   │yes
//	local? ──yes──► fetch from local cache, update stats
//	   │no
//	fetch from remote cache ──miss (false hit)──► execute CGI locally
//
// Caching and cooperation are independently switchable, which is exactly
// what the paper's experiments vary (no-cache, stand-alone cache,
// cooperative cache).
package core

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accesslog"
	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/content"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/fetchpipe"
	"repro/internal/httpmsg"
	"repro/internal/httpserver"
	"repro/internal/inval"
	"repro/internal/netx"
	"repro/internal/replacement"
	"repro/internal/singleflight"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/timescale"
	"repro/internal/wire"
)

// Mode selects how much of the caching machinery is active.
type Mode int

// Modes, matching the paper's experimental configurations.
const (
	// NoCache disables the cacher module entirely: every dynamic request
	// executes its CGI.
	NoCache Mode = iota
	// StandAlone caches locally but neither broadcasts inserts nor fetches
	// from peers (the paper's stand-alone configuration).
	StandAlone
	// Cooperative is full Swala: replicated directory, broadcasts, remote
	// fetches.
	Cooperative
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NoCache:
		return "no-cache"
	case StandAlone:
		return "stand-alone"
	case Cooperative:
		return "cooperative"
	default:
		return fmt.Sprintf("core.Mode(%d)", int(m))
	}
}

// CostModel captures the simulated resource costs of the request path. All
// durations are in measured (already scaled) time. The values stand in for
// the Sun Ultra testbed's fork/exec, file system, and LAN costs.
type CostModel struct {
	// SpawnCost is the fork/exec overhead per CGI invocation, charged on a
	// CPU core.
	SpawnCost time.Duration
	// FileBaseCost is the fixed CPU cost of serving a static file or a local
	// cache fetch (open + header processing).
	FileBaseCost time.Duration
	// PerByte is the CPU+transfer cost per body byte served from file or
	// cache (models disk/network streaming).
	PerByte time.Duration
	// RemoteServeCost is the owner-side CPU cost of serving one remote cache
	// fetch.
	RemoteServeCost time.Duration
	// RemoteFetchCost is the requester-side cost of the request/reply
	// session with the owning node (protocol handling; the wire round trip
	// itself is real).
	RemoteFetchCost time.Duration
}

// DefaultCosts returns the cost model used by the experiments at the default
// time scale (1 paper-second = 10 ms): CGI spawn ~20 paper-ms, file base
// ~3 paper-ms, ~1 MB/s paper-time streaming, remote serve ~2 paper-ms.
func DefaultCosts() CostModel {
	return ScaledCosts(timescale.Default())
}

// ScaledCosts derives the experiment cost model for an arbitrary time scale.
// Paper-time constants: CGI spawn 20 ms (the fork/exec cost the nullcgi
// experiment isolates), file base 3 ms, 1 us per byte streamed, remote serve
// 2 ms.
func ScaledCosts(s timescale.Scale) CostModel {
	return CostModel{
		SpawnCost:       s.D(0.020),
		FileBaseCost:    s.D(0.003),
		PerByte:         s.D(0.000001),
		RemoteServeCost: s.D(0.002),
		RemoteFetchCost: s.D(0.004),
	}
}

// Config assembles a Server.
type Config struct {
	// NodeID identifies the node in the cluster (required, unique).
	NodeID uint32
	// Name is a human-readable node name.
	Name string
	// Mode selects no-cache / stand-alone / cooperative operation.
	Mode Mode
	// Cores is the node's CPU core count (default 1, as in the paper's
	// single-CPU-per-node experiments).
	Cores int
	// Costs is the simulated cost model: DefaultCosts in Paper; the zero
	// value, Production's, means no simulated CPU.
	Costs CostModel
	// CacheCapacity bounds the local cache in entries (<=0 = unbounded).
	CacheCapacity int
	// Policy selects the replacement policy (default LRU).
	Policy replacement.Kind
	// Cacheability is the admin policy; nil defaults to CacheAll with a
	// 10-minute TTL.
	Cacheability *cacheability.Policy
	// Store holds cached bodies; nil defaults to an in-memory store.
	Store store.Store
	// Recovered lists entries a durable store salvaged from disk at startup
	// (store.OpenLog's RecoveryReport.Recovered). New repopulates the local
	// directory table from it before serving, so a restarted node comes back
	// warm — and, in cooperative mode, re-announces those entries to peers
	// via the usual broadcast/anti-entropy machinery.
	Recovered []store.RecoveredEntry
	// CoalesceMisses, when true, makes concurrent identical cacheable
	// misses share a single CGI execution instead of each running their
	// own. The paper executes all of them and counts the duplicates as
	// false misses; coalescing is the beyond-the-paper alternative, so it
	// is off in Paper to preserve the paper's false-miss accounting
	// (EXPERIMENTS.md) and on in Production. Coalesced waiters are counted
	// under the Coalesced stats counter.
	CoalesceMisses bool
	// Network carries HTTP traffic (nil = real TCP).
	Network netx.Network
	// ClusterNetwork carries inter-node traffic; nil uses Network. The
	// latency-sensitivity experiment injects delay here without slowing the
	// client links.
	ClusterNetwork netx.Network
	// Clock drives TTL and the purge daemon (nil = real clock).
	Clock clock.Clock
	// PurgeInterval is how often the purge daemon wakes (default 1s; the
	// paper's daemon "wakes up every few seconds").
	PurgeInterval time.Duration
	// RequestThreads sizes the HTTP request-thread pool (default 16).
	RequestThreads int
	// FetchTimeout bounds one remote cache fetch; a fetch that overruns it
	// falls back to local execution (<=0 = the cluster default, 5s).
	FetchTimeout time.Duration
	// RingPlacement switches cooperative mode from the paper's fully
	// replicated directory to consistent-hash entry placement: keys are
	// owned by the ring-designated node, misses are executed at the owner,
	// membership changes at runtime (join/leave/eviction), and entries are
	// handed off live when ownership moves. On in Production; off in Paper,
	// whose design is full replication.
	RingPlacement bool
	// ReplicateHot enables adaptive hot-entry replication under ring
	// placement: per-entry serve rates are tracked with decayed windows,
	// entries above HotRPS are replicated to their ring successors, and
	// replicas retire as load decays. Requires RingPlacement; on in
	// Production.
	ReplicateHot bool
	// HotRPS is the decayed remote-serve rate (requests/second) above which
	// an owned entry is replicated (default 50).
	HotRPS float64
	// HotReplicas is how many ring successors hold a copy of each hot entry
	// (default 2).
	HotReplicas int
	// HotInterval is the replication controller's tick period (default 1s).
	HotInterval time.Duration
	// SWR enables stale-while-revalidate on invalidation:
	// the previous body of an invalidated entry is served for swrWindow (2s)
	// — flagged X-Swala-Cache: stale-revalidate — while one coalesced
	// background flight refreshes the entry. On in Production.
	SWR bool
	// DisableHealth turns off the peer failure detector and directory
	// quarantine: remote fetches to a dead peer then fail only by timing
	// out and falling back to local execution — the paper's exact reactive
	// failure handling. Both profiles keep the detector on.
	DisableHealth bool
	// HealthProbeInterval is the failure detector's heartbeat period
	// (default 1s).
	HealthProbeInterval time.Duration
	// HealthProbeTimeout bounds one probe round trip (default 1s, clamped
	// to the probe interval).
	HealthProbeTimeout time.Duration
	// HealthSuspectAfter is how many consecutive probe failures mark a peer
	// suspect (default 2).
	HealthSuspectAfter int
	// HealthDeadAfter is how many consecutive probe failures declare a peer
	// dead and quarantine its directory entries (default 5).
	HealthDeadAfter int
	// RequestTimeout, when >0, bounds each request end to end: the HTTP
	// layer derives a deadline from it for the per-request context, and
	// every stage of the fetch pipeline — CPU reservations, remote peer
	// sessions, CGI executions — observes it. A request that overruns gets
	// a 504. Default 0 preserves the paper's behavior (no deadline; work
	// is only abandoned when the client disconnects or the server stops).
	RequestTimeout time.Duration
	// Hedge enables hedged remote fetches: a routed fetch that has not
	// returned by the target peer's observed p95 launches one backup — to
	// the home owner or another replica holder when one exists,
	// otherwise abandoning the wait and executing locally — and the first
	// result wins; the loser is cancelled through the usual context
	// plumbing. Hedges draw from a retry budget (RetryBudgetRatio,
	// RetryBudgetBurst) so a brownout cannot amplify into a retry storm.
	// On in Production.
	Hedge bool
	// HedgeTrigger is the static hedge delay used while a peer has too few
	// latency samples for a p95 estimate (default 100ms).
	HedgeTrigger time.Duration
	// Breaker enables per-peer circuit breakers: observed fetch latency
	// (fast EWMA judged against a slowly-advancing healthy baseline) and
	// failure rate trip a peer open — its fetches then fail
	// fast to local execution, the way quarantine handles dead peers — and
	// half-open probes decide when it closes again. This is the gray-failure
	// complement to the PR 4 detector, which only sees peers that stop
	// answering pings entirely. On in Production.
	Breaker bool
	// BreakerMinSamples is how many recorded fetches a peer needs before its
	// breaker may trip (zero = the cluster.ScoreConfig default). The trip
	// thresholds and open time are the cluster.ScoreConfig defaults.
	BreakerMinSamples int
	// Shed enables adaptive load shedding: a watermark controller over the
	// CPU queue delay refuses cheap-to-refuse work first — peer-routed
	// executions above ShedLowWatermark; peer serves
	// and local requests that would execute above ShedHighWatermark (503 +
	// Retry-After + X-Swala-Shed, degraded to a parked SWR stale body when
	// one exists). Cache hits are never shed: under overload the node keeps
	// doing the cheap work it is good at. Off in both profiles; see Production.
	Shed bool
	// ShedLowWatermark / ShedHighWatermark are the queue-delay watermarks
	// (defaults 100ms / 400ms). A level is left again only when the queue
	// delay falls below half its entry watermark (hysteresis).
	ShedLowWatermark  time.Duration
	ShedHighWatermark time.Duration
	// AccessLog, when non-nil, receives one extended-CLF entry per served
	// request (see internal/accesslog).
	AccessLog *accesslog.Writer
	// Logger receives server errors; nil discards.
	Logger *log.Logger
}

// Server is one Swala node.
type Server struct {
	cfg    Config
	clk    clock.Clock
	node   *cpu.Node
	engine *cgi.Engine
	dir    *directory.Directory
	store  store.Store
	files  *content.FileSet
	http   *httpserver.Server
	clu    *cluster.Node

	counters stats.HitCounter

	// chain is the fetch pipeline every cacheable request travels (the
	// cacher module's Figure 2 control flow as composable stages); pipe
	// holds its per-stage counters.
	chain fetchpipe.Fetcher
	pipe  *stats.PipelineStats

	// flight coalesces concurrent identical misses when
	// cfg.CoalesceMisses is on.
	flight singleflight.Group[execShare]

	inflightMu sync.Mutex
	inflight   map[string]int // cacheable keys currently executing

	// quarMu guards pendingUnq: dead peers whose quarantine waits for both
	// a rejoin (detector alive again) and an anti-entropy DirSync from them
	// before it lifts, so lookups only resume on a converged replica.
	quarMu     sync.Mutex
	pendingUnq map[uint32]*rejoinState

	quarantines     atomic.Uint64 // peers quarantined (dead transitions)
	quarantineLifts atomic.Uint64 // quarantines lifted after rejoin+resync

	// Ring-placement rebalance state: handoffCh queues body pulls on the
	// receiving side of a handoff; the counters feed Metrics.
	handoffCh chan handoffTask
	handoffWG sync.WaitGroup
	// rep holds the adaptive hot-entry replication state (nil unless
	// Config.ReplicateHot is set in ring mode); see replica.go.
	rep *replicaState
	// inv holds the invalidation-wave state and swr the
	// stale-while-revalidate holding cell (nil unless Config.SWR); see
	// inval.go.
	inv *inval.State
	swr *swrCell
	// waveMu serializes wave origination, so the fan-out the update observer
	// reports in fanout belongs to the wave just recorded (invalidateWave).
	waveMu sync.Mutex
	fanout struct{ peers, unreached int }
	// Wave counters: waves this node originated, remote waves it applied,
	// and "*" waves its catch-ups sent in place of waves its log no longer
	// holds.
	wavesOriginated, wavesApplied, waveFallbacks atomic.Uint64
	// hedge holds the hedged-fetch state and retry budget (nil unless
	// Config.Hedge) and shed the load-shedding controller (nil unless
	// Config.Shed); see hedge.go and shed.go. breakerFastFails counts
	// fetches the pipeline saw rejected by an open peer breaker.
	hedge            *hedgeState
	shed             *shedState
	breakerFastFails atomic.Uint64
	handoffOut       atomic.Uint64 // entries taken over by new owners
	handoffIn        atomic.Uint64 // entries pulled from old owners
	handoffBytes     atomic.Uint64 // body bytes pulled during handoffs
	rebalances       atomic.Uint64 // ring changes handled
	lastRebalance    atomic.Int64  // unix nanos of the last ring change

	started   atomic.Bool
	purgeStop chan struct{}
	purgeDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// New builds a Server from cfg, filling each zero behaviour field from
// Paper; a zero Costs stays zero. Call Start to begin serving.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	if cfg.Network == nil {
		cfg.Network = netx.TCP{}
	}
	if cfg.ClusterNetwork == nil {
		cfg.ClusterNetwork = cfg.Network
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("swala-%d", cfg.NodeID)
	}

	s := &Server{
		cfg:        cfg,
		clk:        cfg.Clock,
		node:       cpu.NewNode(cfg.Cores, cfg.Clock),
		store:      cfg.Store,
		files:      content.NewFileSet(),
		dir:        directory.New(cfg.NodeID, cfg.CacheCapacity, replacement.MustNew(cfg.Policy)),
		inflight:   make(map[string]int),
		inv:        inval.NewState(),
		pendingUnq: make(map[uint32]*rejoinState),
		purgeStop:  make(chan struct{}),
		purgeDone:  make(chan struct{}),
	}
	s.engine = cgi.NewEngine(s.node, cfg.Costs.SpawnCost)
	if cfg.Hedge {
		s.hedge = newHedgeState()
	}
	if cfg.Shed {
		s.shed = newShedState(cfg.ShedLowWatermark, cfg.ShedHighWatermark)
	}
	if cfg.SWR {
		s.swr = newSWRCell()
	}
	s.http = httpserver.New(httpserver.HandlerFunc(s.serveHTTP), httpserver.Config{
		RequestThreads: cfg.RequestThreads,
		ErrorLog:       cfg.Logger,
	})
	clusterCfg := cluster.Config{
		NodeID:       cfg.NodeID,
		Name:         cfg.Name,
		Network:      cfg.ClusterNetwork,
		FetchTimeout: cfg.FetchTimeout,
		Health: cluster.HealthConfig{
			Disable:       cfg.DisableHealth,
			ProbeInterval: cfg.HealthProbeInterval,
			ProbeTimeout:  cfg.HealthProbeTimeout,
			SuspectAfter:  cfg.HealthSuspectAfter,
			DeadAfter:     cfg.HealthDeadAfter,
		},
		// Scoring feeds both the breaker and hedging's dynamic p95 trigger,
		// so either feature turns it on.
		Score: cluster.ScoreConfig{
			Enable:     cfg.Hedge || cfg.Breaker,
			Breaker:    cfg.Breaker,
			MinSamples: cfg.BreakerMinSamples,
		},
		Logger: cfg.Logger,
	}
	ringMode := cfg.Mode == Cooperative && cfg.RingPlacement
	if cfg.Mode == Cooperative && !cfg.DisableHealth && !ringMode {
		// Failure-detector transitions drive directory quarantine: a dead
		// peer's entries are skipped by Lookup until it rejoins and resyncs.
		// Ring mode doesn't replicate tables, so there is nothing to
		// quarantine: the detector evicts the dead member from the ring
		// instead, and its keyspace reassigns.
		clusterCfg.OnPeerState = s.onPeerState
	}
	if ringMode {
		clusterCfg.RingMode = true
		clusterCfg.OnRingChange = s.onRingChange
		s.handoffCh = make(chan handoffTask, handoffQueueDepth)
		if cfg.ReplicateHot {
			s.rep = newReplicaState(cfg)
		}
	}
	s.clu = cluster.NewNode(clusterCfg, (*clusterHandler)(s))
	if ringMode {
		s.dir.SetRing(func(key string) (uint32, bool) {
			r := s.clu.Ring()
			if r == nil {
				return 0, false
			}
			return r.Owner(key)
		})
	}
	s.dir.OnWave(s.applyWave)
	if cfg.Mode == Cooperative {
		// Every record of the node's origin log — a local directory mutation
		// (insert, replace, eviction, remove, expiry; none under ring
		// placement) or an invalidation wave — is broadcast from here, in
		// version order (the directory invokes the callback under its
		// local-table lock). This single choke point is what lets
		// anti-entropy sync reason about what a peer has.
		s.dir.OnUpdate(func(op directory.SyncOp) {
			peers, unreached := s.clu.BroadcastUpdate(s.dirUpdate(op), op.Version)
			if op.Kind == directory.Wave {
				s.fanout.peers, s.fanout.unreached = peers, unreached
			}
		})
	}
	s.buildPipeline()
	if len(cfg.Recovered) > 0 {
		s.warmRestart(cfg.Recovered)
	}
	return s
}

// warmRestart repopulates the local directory table from entries a durable
// store recovered at startup, in recovery order (which approximates the
// pre-crash insertion order, so LRU state is roughly preserved). Entries the
// replacement policy evicts on the way in are deleted from the store too. In
// cooperative mode each insert flows through the directory's OnUpdate hook,
// so recovered entries are re-announced to peers exactly like fresh inserts.
func (s *Server) warmRestart(recovered []store.RecoveredEntry) {
	now := s.clk.Now()
	for _, re := range recovered {
		if !re.Expires.IsZero() && !re.Expires.After(now) {
			s.store.Delete(re.Key)
			continue
		}
		evicted := s.dir.InsertLocal(directory.Entry{
			Key:      re.Key,
			Size:     re.Size,
			ExecTime: re.ExecTime,
			Inserted: now,
			Expires:  re.Expires,
		}, now)
		for _, victim := range evicted {
			if err := s.store.Delete(victim); err != nil {
				s.logf("warm restart: evict %q: %v", victim, err)
			}
		}
	}
	s.logf("warm restart: repopulated %d directory entries from recovered store", s.dir.LocalLen())
}

// Files exposes the static document registry.
func (s *Server) Files() *content.FileSet { return s.files }

// CGI exposes the CGI program registry.
func (s *Server) CGI() *cgi.Engine { return s.engine }

// Directory exposes the cache directory (primarily for tests and tools).
func (s *Server) Directory() *directory.Directory { return s.dir }

// Counters returns a snapshot of the cache counters.
func (s *Server) Counters() stats.HitSnapshot { return s.counters.Snapshot() }

// Store exposes the cache body store (for tools and experiments).
func (s *Server) Store() store.Store { return s.store }

// Cluster exposes the cluster node (for tools and experiments).
func (s *Server) Cluster() *cluster.Node { return s.clu }

// Clock exposes the server's clock (for tools and experiments).
func (s *Server) Clock() clock.Clock { return s.clk }

// Start listens for HTTP on httpAddr and for cluster/control traffic on
// clusterAddr, and starts the purge daemon. The cluster endpoint is started
// in every mode — stand-alone and no-cache nodes still answer swalactl's
// stats/ping/invalidate — but only cooperative nodes exchange directory
// updates and fetches.
func (s *Server) Start(httpAddr, clusterAddr string) error {
	l, err := s.cfg.Network.Listen(httpAddr)
	if err != nil {
		return fmt.Errorf("core: http listen %s: %w", httpAddr, err)
	}
	s.http.Serve(l)
	if err := s.clu.Start(clusterAddr); err != nil {
		s.http.Close()
		return err
	}
	s.started.Store(true)
	go s.purgeDaemon()
	if s.ringMode() {
		for i := 0; i < handoffWorkers; i++ {
			s.handoffWG.Add(1)
			go s.handoffWorker()
		}
	}
	if s.rep != nil {
		s.handoffWG.Add(1 + replicaPullWorkers)
		go s.replicaLoop()
		for i := 0; i < replicaPullWorkers; i++ {
			go s.replicaPuller()
		}
	}
	return nil
}

// HTTPAddr returns the HTTP listen address.
func (s *Server) HTTPAddr() string { return s.http.Addr() }

// ClusterAddr returns the cluster listen address.
func (s *Server) ClusterAddr() string { return s.clu.Addr() }

// ConnectPeer joins this node to a peer's cluster endpoint.
func (s *Server) ConnectPeer(peerID uint32, addr string) error {
	return s.clu.ConnectPeer(peerID, addr)
}

// Close shuts down HTTP, cluster, purge daemon, and the store.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.purgeStop)
		// The purge daemon only runs after Start; Close before Start must
		// not wait for it.
		if s.started.Load() {
			<-s.purgeDone
		}
		err1 := s.http.Close()
		err2 := s.clu.Close()
		// Handoff workers exit on purgeStop; closed cluster links unblock any
		// in-flight body pull. Wait before tearing down the store they write.
		s.handoffWG.Wait()
		s.node.Stop()
		err3 := s.store.Close()
		for _, err := range []error{err1, err2, err3} {
			if err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// --- purge daemon ---

// purgeDaemon is the third cacher-module thread of the paper's design: it
// wakes periodically and deletes expired entries, broadcasting the
// deletions.
func (s *Server) purgeDaemon() {
	defer close(s.purgeDone)
	for {
		select {
		case <-s.purgeStop:
			return
		case <-s.clk.After(s.cfg.PurgeInterval):
		}
		s.PurgeExpired()
	}
}

// Invalidate drops every cached entry whose key matches pattern ('*'
// wildcards; keys look like "GET /cgi-bin/q?a=1") by originating one
// invalidation wave: it applies here at once and, in cooperative mode,
// reaches every peer over its ordered link, with anti-entropy replay for a
// peer that missed it. It returns the number of local entries dropped.
//
// This implements the application-driven invalidation the paper lists as
// future work: a content application that knows its source data changed can
// invalidate the affected results instead of waiting for TTL expiry.
func (s *Server) Invalidate(pattern string) int {
	n, _, _ := s.invalidateWave(pattern)
	return n
}

// invalidateLocal drops every matching local entry: owned entries (whose
// per-entry deletions reach peers through the directory's update callback),
// held hot replicas — which retire in full, lease and announcement included,
// instead of lingering until the replica controller's next tick notices the
// entry vanished — and, for owned keys with announced replica holders, the
// holder routes themselves; each holder drops its copy when the same wave
// reaches it. With SWR on, owned bodies move to the stale holding cell
// instead of vanishing outright.
func (s *Server) invalidateLocal(pattern string) int {
	dropped := 0
	for _, key := range s.matchHeldReplicas(pattern) {
		s.dropHeldReplica(key)
		dropped++
	}
	for _, e := range s.dir.SnapshotLocal() {
		if !cacheability.Match(pattern, e.Key) {
			continue
		}
		if !e.Replica {
			s.parkStale(e.Key)
		}
		if !s.dir.RemoveLocal(e.Key) {
			continue
		}
		dropped++
		if err := s.store.Delete(e.Key); err != nil {
			s.logf("invalidate delete %q: %v", e.Key, err)
		}
		for _, hd := range s.dir.ReplicaHolders(e.Key) {
			s.dir.RemoveReplica(e.Key, hd)
		}
	}
	return dropped
}

// PurgeExpired removes expired local entries immediately (the daemon's work
// item, callable directly in tests with a fake clock); the deletions reach
// peers through the directory's update callback. Expired replicas of peer
// entries are pruned at the same time, without broadcasts — each node prunes
// its own directory copies.
func (s *Server) PurgeExpired() int {
	now := s.clk.Now()
	keys := s.dir.ExpireLocal(now)
	for _, key := range keys {
		if err := s.store.Delete(key); err != nil {
			s.logf("purge delete %q: %v", key, err)
		}
	}
	s.dir.ExpireRemote(now)
	return len(keys)
}

// --- peer failure handling ---

// rejoinState tracks what a quarantined peer still owes before its
// quarantine lifts: the failure detector must see it alive again, and an
// anti-entropy DirSync from it must have converged our replica of its table.
type rejoinState struct {
	alive  bool
	synced bool
}

// onPeerState receives failure-detector transitions from the cluster layer
// (cooperative mode with health enabled only). A dead peer's directory
// entries are quarantined — Lookup treats them as absent, so requests that
// map to them degrade to local execution immediately instead of paying
// FetchTimeout per request. The quarantine lifts when the peer is alive
// again and its anti-entropy catch-up has been applied (HandleDirSync).
func (s *Server) onPeerState(peer uint32, state cluster.PeerState) {
	switch state {
	case cluster.PeerDead:
		s.quarMu.Lock()
		s.pendingUnq[peer] = &rejoinState{}
		s.quarMu.Unlock()
		s.dir.SetQuarantined(peer, true)
		s.quarantines.Add(1)
		s.logf("peer %d declared dead: directory entries quarantined", peer)
	case cluster.PeerAlive:
		s.quarMu.Lock()
		st := s.pendingUnq[peer]
		recycle := false
		if st != nil && !st.alive {
			st.alive = true
			// First sign of life since the peer was declared dead. If its
			// catch-up has not arrived yet, force a link recycle: a hung host
			// that recovers never drops its links, so without one there would
			// be no fresh Hello, no DirSyncReq, and no sync to lift the
			// quarantine. Recycled links reconnect and re-exchange versions.
			recycle = !st.synced
		}
		s.quarMu.Unlock()
		s.maybeLiftQuarantine(peer)
		if recycle {
			// The callback runs under the detector lock; recycle outside it.
			go s.clu.RecyclePeer(peer)
		}
	}
}

// noteSynced records that an anti-entropy catch-up from peer has been
// applied; for a quarantined peer this is the convergence half of the lift
// condition.
func (s *Server) noteSynced(peer uint32) {
	s.quarMu.Lock()
	st := s.pendingUnq[peer]
	if st != nil {
		st.synced = true
	}
	s.quarMu.Unlock()
	if st != nil {
		s.maybeLiftQuarantine(peer)
	}
}

// maybeLiftQuarantine lifts peer's quarantine once its rejoin conditions are
// met.
func (s *Server) maybeLiftQuarantine(peer uint32) {
	s.quarMu.Lock()
	st := s.pendingUnq[peer]
	lift := st != nil && st.alive && st.synced
	if lift {
		delete(s.pendingUnq, peer)
	}
	s.quarMu.Unlock()
	if !lift {
		return
	}
	s.dir.SetQuarantined(peer, false)
	s.quarantineLifts.Add(1)
	s.logf("peer %d rejoined and resynced: quarantine lifted", peer)
}

// QuarantineStats reports how many peers were quarantined and how many
// quarantines have lifted over the server's lifetime.
func (s *Server) QuarantineStats() (quarantined, lifted uint64) {
	return s.quarantines.Load(), s.quarantineLifts.Load()
}

// --- request handling (Figure 2) ---

func (s *Server) serveHTTP(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if s.cfg.AccessLog == nil {
		return s.route(ctx, req)
	}
	start := s.clk.Now()
	resp := s.route(ctx, req)
	entry := accesslog.Entry{
		RemoteHost: req.RemoteAddr,
		Time:       start,
		Method:     req.Method,
		URI:        req.URI,
		Proto:      req.Proto,
		Status:     resp.StatusCode,
		Bytes:      len(resp.Body),
		Duration:   s.clk.Now().Sub(start),
	}
	if src := resp.Header.Get("X-Swala-Cache"); src != "" {
		entry.CacheSource = src
	} else if _, ok := s.engine.Lookup(req.Path); ok {
		entry.CacheSource = "executed"
	}
	if err := s.cfg.AccessLog.Log(entry); err != nil {
		s.logf("access log: %v", err)
	}
	return resp
}

// StatusPath serves the node's administrative status page.
const StatusPath = "/swala-status"

// ServeRequest runs one parsed request through the server's routing and
// serving path — static files, the cache pipeline, CGI execution — and
// returns the response. It is the transport-independent core of the HTTP
// server, exposed for embedding, tools, and benchmarks; ctx carries the
// request's cancellation and deadline exactly as for a socket request.
func (s *Server) ServeRequest(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
	return s.route(ctx, req)
}

func (s *Server) route(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
	switch req.Method {
	case "GET", "POST":
	default:
		return errorResponse(405, "method not allowed")
	}

	if req.Path == StatusPath {
		return s.serveStatus()
	}
	// Static files first: the cache holds only CGI results.
	if f, ok := s.files.Get(req.Path); ok {
		return s.serveFile(ctx, f)
	}
	if _, ok := s.engine.Lookup(req.Path); ok {
		return s.serveDynamic(ctx, req)
	}
	return errorResponse(404, "not found: "+req.Path)
}

// serveStatus writes Metrics as plain text. Keys come from client URLs, so
// the page is never served as HTML.
func (s *Server) serveStatus() *httpmsg.Response {
	var b bytes.Buffer
	stats.WriteText(&b, s.Metrics())
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
	resp.Header.Set("X-Content-Type-Options", "nosniff")
	resp.Body = b.Bytes()
	return resp
}

// serveFile streams a static document, charging the file-serving CPU cost.
func (s *Server) serveFile(ctx context.Context, f *content.File) *httpmsg.Response {
	cost := s.cfg.Costs.FileBaseCost + time.Duration(len(f.Body))*s.cfg.Costs.PerByte
	if _, err := s.node.Run(ctx, cost); err != nil {
		return fetchErrorResponse(fetchpipe.CtxErr(err))
	}
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", f.ContentType)
	resp.Body = f.Body
	return resp
}

// serveDynamic implements the paper's Figure 2: uncacheable requests execute
// straight away; cacheable ones travel the fetch chain (mem → local →
// remote → origin; see pipeline.go).
func (s *Server) serveDynamic(ctx context.Context, req *httpmsg.Request) *httpmsg.Response {
	creq := cgi.Request{Method: req.Method, Path: req.Path, Query: req.Query, Body: req.Body}

	decision, ttl := s.cfg.Cacheability.Classify(req.Path, req.Query)
	cacheable := s.cfg.Mode != NoCache && decision == cacheability.Cache && req.Method == "GET"

	// Unable (uncacheable) request: execute without touching the cacher.
	if !cacheable {
		if s.shedLevel() >= shedLevelServe {
			// An uncacheable request is pure execution work; at the high
			// watermark that is exactly what must not be admitted.
			return s.shedResponse()
		}
		res, _, err := s.execCGI(ctx, creq)
		if err != nil {
			return fetchErrorResponse(originErr(err))
		}
		return cgiResponse(res)
	}

	key := req.CacheKey()
	if s.shedLevel() >= shedLevelServe {
		// Past the high watermark, only requests the cache can answer are
		// admitted. A directory hit (local or peer) serves normally — hits
		// are the cheap work. A miss would execute: degrade to a parked
		// stale body when SWR has one, else refuse with 503 + Retry-After.
		if _, ok := s.dir.Lookup(key, s.clk.Now()); !ok {
			if s.swr != nil {
				if e, ok := s.swr.take(key, s.clk.Now()); ok {
					return s.shedStaleResponse(e.contentType, e.body)
				}
			}
			return s.shedResponse()
		}
	}
	// The origin stage reconstructs the CGI request and TTL from the
	// canonical key (fetchStateFrom), which is lossless for the common shape:
	// an empty body and a path with no literal '?'. Only the exceptional
	// shapes pay the context allocation to carry the state explicitly; hits
	// never need it at all.
	if len(req.Body) > 0 || strings.IndexByte(req.Path, '?') >= 0 {
		ctx = withFetchState(ctx, &fetchState{creq: creq, ttl: ttl})
	}
	result, err := s.chain.Fetch(ctx, key)
	if err != nil {
		return fetchErrorResponse(err)
	}
	resp := httpmsg.NewResponse(result.Status)
	resp.Header.Set("Content-Type", result.ContentType)
	if result.Source != "" {
		resp.Header.Set("X-Swala-Cache", result.Source)
	}
	resp.Body, resp.Release = result.Body, result.Release
	return resp
}

// execShare is one CGI execution's outcome, shared between the leader that
// ran it and the coalesced waiters that piggybacked on it.
type execShare struct {
	res      cgi.Result
	execTime time.Duration
	err      error
	stored   bool // the result was inserted into the cache
}

func (s *Server) execCGI(ctx context.Context, creq cgi.Request) (cgi.Result, time.Duration, error) {
	res, execTime, err := s.engine.Exec(ctx, creq)
	if err == nil && res.Status == 200 {
		// A successful execution of a program with declared writes
		// originates invalidation waves for its readers (no-op otherwise).
		s.noteWrites(creq.Path)
	}
	return res, execTime, err
}

// insertResult files the result body and inserts directory meta-data;
// evictions forced by the replacement policy are deleted from the store. The
// insert broadcast and the eviction delete broadcasts ride the directory's
// update callback.
//
// startVer is the invalidation apply-version the producing flight was
// stamped with at launch (s.inv.Version): a result whose execution straddled
// a matching invalidation wave is already stale and is discarded instead of
// stored — storing it would resurrect invalidated content with a full TTL.
func (s *Server) insertResult(key string, res cgi.Result, execTime time.Duration, ttl time.Duration, startVer uint64) {
	if s.inv.Superseded(key, startVer) {
		s.logf("discarding superseded in-flight result for %q", key)
		return
	}
	// A concurrently executed identical request (or a peer's insert racing
	// our broadcast) may have inserted the key already; the paper calls the
	// redundant execution a false miss. Detect it for accounting.
	// If the key is in the directory now (a peer's broadcast landed while we
	// executed), or an identical request is executing concurrently on this
	// node, the paper notes the same information ends up cached at two
	// places — we keep our copy too, like the original.
	if _, ok := s.dir.Lookup(key, s.clk.Now()); ok {
		s.counters.FalseMiss()
	} else if s.inflightCount(key) > 1 {
		// Identical request executing concurrently on this node.
		s.counters.FalseMiss()
	}

	now := s.clk.Now()
	var expires time.Time
	if ttl > 0 {
		expires = now.Add(ttl)
	}
	// PutWithMeta persists exec time and expiry alongside the body when the
	// store is durable, so a restarted node can rebuild its directory table
	// from the files alone. A failed Put (full or failing disk) is logged and
	// the result simply goes uncached — the request itself already succeeded.
	if err := store.PutWithMeta(s.store, key, res.ContentType, res.Body, execTime, expires); err != nil {
		s.logf("cache put %q: %v", key, err)
		return
	}
	entry := directory.Entry{
		Key:      key,
		Size:     int64(len(res.Body)),
		ExecTime: execTime,
		Inserted: now,
		Expires:  expires,
	}
	// The insert itself and any eviction deletes are broadcast by the
	// directory's update callback, in version order.
	evicted := s.dir.InsertLocal(entry, now)
	s.counters.Insert()
	for _, victim := range evicted {
		s.counters.Eviction()
		if err := s.store.Delete(victim); err != nil {
			s.logf("evict delete %q: %v", victim, err)
		}
	}
	if s.inv.Superseded(key, startVer) {
		// A wave raced the insert itself (between the guard above and
		// InsertLocal): undo rather than leave invalidated content cached.
		if s.dir.RemoveLocal(key) {
			if err := s.store.Delete(key); err != nil {
				s.logf("superseded insert delete %q: %v", key, err)
			}
		}
	}
}

func (s *Server) trackInflight(key string, delta int) {
	s.inflightMu.Lock()
	s.inflight[key] += delta
	if s.inflight[key] <= 0 {
		delete(s.inflight, key)
	}
	s.inflightMu.Unlock()
}

func (s *Server) inflightCount(key string) int {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	return s.inflight[key]
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("swala[%d]: "+format, append([]any{s.cfg.NodeID}, args...)...)
	}
}

func cgiResponse(res cgi.Result) *httpmsg.Response {
	resp := httpmsg.NewResponse(res.Status)
	resp.Header.Set("Content-Type", res.ContentType)
	resp.Body = res.Body
	return resp
}

func errorResponse(code int, msg string) *httpmsg.Response {
	resp := httpmsg.NewResponse(code)
	resp.Header.Set("Content-Type", "text/plain")
	resp.Body = []byte(msg + "\n")
	return resp
}

// --- cluster handler ---

// clusterHandler adapts Server to the cluster.Handler interface without
// exposing those methods on the public Server type.
type clusterHandler Server

func (h *clusterHandler) server() *Server { return (*Server)(h) }

// HandleFetch implements cluster.Handler: serve a peer's fetch from the
// local store, updating owner-side statistics as in the paper ("the cache
// manager on the node that owns the item updates meta-data statistics").
// Ring flags: a takeover hands the body to its new owner; a replica pull is an
// ordinary serve whose copy stays here; FetchExecute is a miss routed here as
// the ring's owner — an ordinary serve when cached, otherwise executed here and
// announced by caching, so the next request for the key, anywhere, finds it.
func (h *clusterHandler) HandleFetch(key string, flags uint8, r *wire.FetchReply) (release func()) {
	s := h.server()
	if flags&wire.FetchTakeover != 0 {
		r.ContentType, r.Body, r.OK = s.serveTakeover(key)
		return nil
	}
	e, ok := s.dir.LookupLocal(key, s.clk.Now())
	if !ok && flags&wire.FetchExecute != 0 {
		if s.shedLevel() >= shedLevelExecute {
			// Routed executions are the cheapest work to refuse: the requester
			// already has the request and can execute it locally, so shedding
			// here spreads a hot owner's overload across the cluster instead
			// of queueing it all on one node.
			s.shed.shedRemote.Add(1)
			return nil
		}
		r.Executed = true
		r.ContentType, r.Body, r.Stored, r.OK = s.executeAsOwner(key)
		return nil
	}
	if s.shedLevel() >= shedLevelServe {
		// Past the high watermark even remote serves are refused: the
		// requester falls back to executing locally (a false hit), moving
		// the work to a node with headroom.
		s.shed.shedRemote.Add(1)
		return nil
	}
	if !ok {
		return nil
	}
	ct, body, release, err := store.GetLeased(s.store, key)
	if err != nil {
		return nil
	}
	// The owner reads the cache file and ships it to the peer: the same
	// file-fetch cost as a local hit plus the remote-serve overhead.
	cost := s.cfg.Costs.RemoteServeCost + s.cfg.Costs.FileBaseCost +
		time.Duration(len(body))*s.cfg.Costs.PerByte
	if cost > 0 {
		s.node.Run(context.Background(), cost)
	}
	s.dir.TouchLocal(key)
	s.counters.RemoteServe()
	if s.rep != nil {
		s.rep.tracker.Observe(key, cost)
		if e.Replica {
			s.rep.replicaServes.Add(1)
		}
	}
	r.OK, r.ContentType, r.Body = true, ct, body
	return release
}

// HandleInvalidate implements cluster.Handler: an administrative
// invalidation (swalactl invalidate) reaches a single node, which originates
// it as a wave and reports the local matches and the fan-out.
func (h *clusterHandler) HandleInvalidate(m *wire.Invalidate) (matched, peers, unreached int) {
	return h.server().invalidateWave(m.Pattern)
}

// HandleStats implements cluster.Handler.
func (h *clusterHandler) HandleStats() []stats.Sample { return h.server().Metrics() }

// --- versioned directory replication ---

// HandleDirBatch implements cluster.Handler: apply a batch of the peer's
// log above this node's floor of it (directory.ApplySync).
func (h *clusterHandler) HandleDirBatch(m *wire.DirBatch) {
	s := h.server()
	s.dir.ApplySync(m.Owner, false, syncOps(m.Updates), m.Version, s.clk.Now())
}

// HandleDirSync implements cluster.Handler: apply an anti-entropy catch-up
// (full snapshot or delta) of a peer's log. A Handoff frame is not
// replication at all: it is a rebalance offer listing entries whose ring
// ownership moved to this node; the bodies are pulled asynchronously.
func (h *clusterHandler) HandleDirSync(m *wire.DirSync) {
	s := h.server()
	if m.Handoff {
		s.acceptHandoff(m)
		return
	}
	s.dir.ApplySync(m.Owner, m.Full, syncOps(m.Updates), m.Version, s.clk.Now())
	// A catch-up from the owner means our replica of its table has
	// converged; if the owner was quarantined and has rejoined, this is
	// what lifts the quarantine.
	s.noteSynced(m.Owner)
}

// syncOps converts wire records to the directory's.
func syncOps(updates []wire.DirUpdate) []directory.SyncOp {
	ops := make([]directory.SyncOp, len(updates))
	for i := range updates {
		u := &updates[i]
		ops[i] = directory.SyncOp{
			Kind: directory.Kind(u.Kind),
			Entry: directory.Entry{
				Key:      u.Key,
				Owner:    u.Owner,
				Size:     u.Size,
				ExecTime: u.ExecTime,
				Expires:  u.Expires,
			},
		}
	}
	return ops
}

// dirUpdate converts one of this node's log records to its wire form.
func (s *Server) dirUpdate(op directory.SyncOp) wire.DirUpdate {
	return wire.DirUpdate{
		Kind:     wire.DirKind(op.Kind),
		Owner:    s.dir.Self(),
		Key:      op.Entry.Key,
		Size:     op.Entry.Size,
		ExecTime: op.Entry.ExecTime,
		Expires:  op.Entry.Expires,
	}
}

// DirVersion implements cluster.Handler.
func (h *clusterHandler) DirVersion(owner uint32) uint64 {
	return h.server().dir.PeerVersion(owner)
}

// BuildDirSync implements cluster.Handler: assemble the catch-up for a
// peer whose floor of our log is since.
func (h *clusterHandler) BuildDirSync(since uint64) *wire.DirSync {
	s := h.server()
	ops, ver, full, ok := s.dir.SyncSince(since)
	if !ok {
		return nil
	}
	updates := make([]wire.DirUpdate, len(ops))
	for i, op := range ops {
		updates[i] = s.dirUpdate(op)
	}
	if full && len(ops) > 0 && ops[0].Kind == directory.Wave && ops[0].Version == 0 {
		s.waveFallbacks.Add(1)
	}
	return &wire.DirSync{Owner: s.dir.Self(), Version: ver, Full: full, Updates: updates}
}
