package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/directory"
	"repro/internal/replctl"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wire"
)

// Adaptive hot-entry replication (Config.ReplicateHot): the server-layer
// half of the load-aware multi-owner control loop. Ring placement gives every
// key exactly one home, so a viral key funnels every remote hit through one
// node. When replication is on, each node tracks the decayed rate at which it
// serves its own keys to peers (stats.LoadTracker, bumped on remote serves
// and routed-miss executions); a controller tick ranks those rates and
//
//   - pushes replicas of entries above HotRPS to their HotReplicas ring
//     successors: metadata travels in a targeted MsgReplicaPush (the handoff
//     offer pattern), the body is pulled by the holder with FetchReplica
//     (FetchTakeover minus the delete), and the holder announces itself with
//     a broadcast MsgReplicaEvent every node folds into its directory's
//     holder index;
//   - re-pushes every tick while the key stays hot — holders treat the
//     repeat as a lease renewal — and sends explicit retires once the rate
//     decays below the hysteresis floor.
//
// Requesters then rotate routed fetches across {home} ∪ live holders
// (pipeline.go ringStage), which is what spreads a hot key's serve load.
// Trust is lease-based: a holder that stops hearing renewals for
// replicaLeaseTicks controller ticks drops its copy and announces the
// retirement, so a dead or partitioned home cannot strand replicas forever;
// a dead holder is dropped from every node's holder index by the ring change
// its eviction causes (replicaRingChange), without quarantining the
// surviving copies.

const (
	// replicaPullWorkers is how many replica bodies a holder pulls
	// concurrently.
	replicaPullWorkers = 2
	// replicaQueueDepth bounds pending replica body pulls; pushes beyond it
	// are dropped and retried by the home's next renewal tick.
	replicaQueueDepth = 1024
	// replicaLeaseTicks is how many controller ticks a held replica survives
	// without a renewal push before the holder retires it.
	replicaLeaseTicks = 10
	// coldHintTTL is how long a routed-miss negative hint suppresses
	// re-routing a key to an owner that executed it without caching.
	coldHintTTL = 2 * time.Second
	// coldHintCap bounds the negative-hint map.
	coldHintCap = 4096
)

// replicaState is everything ReplicateHot adds to a Server.
type replicaState struct {
	tracker *stats.LoadTracker

	// ctlMu guards ctl: the controller is driven from the tick loop but a
	// ring change forgets departed holders from its own goroutine.
	ctlMu sync.Mutex
	ctl   *replctl.Controller

	// heldMu guards held: the replicas this node keeps for other homes,
	// keyed by cache key, with the last lease renewal.
	heldMu sync.Mutex
	held   map[string]heldReplica

	pullCh chan replicaPull

	// hintMu guards hints: short-TTL negative hints recording keys whose
	// home executed a routed miss without storing the result.
	hintMu sync.Mutex
	hints  map[string]time.Time

	// rr rotates routed fetches across a hot key's copy set.
	rr atomic.Uint32

	pushed        atomic.Uint64 // replica push frames sent (home side)
	retired       atomic.Uint64 // retire frames sent (home side)
	pulled        atomic.Uint64 // replica bodies pulled (holder side)
	dropped       atomic.Uint64 // held replicas dropped (holder side)
	replicaServes atomic.Uint64 // peer fetches served from a held replica
	hintSkips     atomic.Uint64 // routed misses short-circuited by a cold hint
}

// heldReplica is one replica this node holds for another home.
type heldReplica struct {
	home    uint32
	renewed time.Time
}

// replicaPull is one replica body owed to this node after a push.
type replicaPull struct {
	home  uint32
	entry directory.Entry
}

func newReplicaState(cfg Config) *replicaState {
	return &replicaState{
		tracker: stats.NewLoadTracker(0.5),
		ctl: replctl.New(replctl.Config{
			HotRate:  cfg.HotRPS,
			Replicas: cfg.HotReplicas,
		}),
		held:   make(map[string]heldReplica),
		pullCh: make(chan replicaPull, replicaQueueDepth),
		hints:  make(map[string]time.Time),
	}
}

// markHeld records (or renews) a held replica's lease.
func (rep *replicaState) markHeld(key string, home uint32, now time.Time) {
	rep.heldMu.Lock()
	rep.held[key] = heldReplica{home: home, renewed: now}
	rep.heldMu.Unlock()
}

// heldCount reports how many replicas this node currently holds.
func (rep *replicaState) heldCount() int {
	rep.heldMu.Lock()
	defer rep.heldMu.Unlock()
	return len(rep.held)
}

// noteCold records a negative hint: key's home executed a routed miss
// without caching the result, so re-routing an immediate re-miss there only
// adds a wasted round trip to the same execution.
func (rep *replicaState) noteCold(key string, now time.Time) {
	rep.hintMu.Lock()
	if len(rep.hints) >= coldHintCap {
		// Bounded map: prefer dropping stale hints, then make room
		// arbitrarily — a lost hint costs one extra hop, nothing more.
		for k, exp := range rep.hints {
			if now.After(exp) || len(rep.hints) >= coldHintCap {
				delete(rep.hints, k)
			}
		}
	}
	rep.hints[key] = now.Add(coldHintTTL)
	rep.hintMu.Unlock()
}

// coldHinted reports whether a fresh negative hint covers key.
func (rep *replicaState) coldHinted(key string, now time.Time) bool {
	rep.hintMu.Lock()
	defer rep.hintMu.Unlock()
	exp, ok := rep.hints[key]
	if !ok {
		return false
	}
	if now.After(exp) {
		delete(rep.hints, key)
		return false
	}
	return true
}

// pruneHints drops expired negative hints (tick-time maintenance).
func (rep *replicaState) pruneHints(now time.Time) {
	rep.hintMu.Lock()
	for k, exp := range rep.hints {
		if now.After(exp) {
			delete(rep.hints, k)
		}
	}
	rep.hintMu.Unlock()
}

// --- controller loop ---

// replicaLoop drives the replication controller until the server stops.
func (s *Server) replicaLoop() {
	defer s.handoffWG.Done()
	last := s.clk.Now()
	for {
		select {
		case <-s.purgeStop:
			return
		case <-s.clk.After(s.cfg.HotInterval):
		}
		now := s.clk.Now()
		s.replicaTick(now, now.Sub(last))
		last = now
	}
}

// replicaTick runs one controller round: fold serve counts into decayed
// rates, expire holder leases, prune hints, and plan pushes/retires for this
// node's own hot keys.
func (s *Server) replicaTick(now time.Time, elapsed time.Duration) {
	rep := s.rep
	rep.tracker.Tick(elapsed)
	rep.pruneHints(now)

	// Holder-side lease maintenance: drop replicas whose home stopped
	// renewing (decayed remotely, home died) or whose local entry vanished
	// underneath us (TTL expiry, invalidation) — either way the cluster is
	// told to stop routing here.
	lease := time.Duration(replicaLeaseTicks) * s.cfg.HotInterval
	var expired []string
	rep.heldMu.Lock()
	for key, h := range rep.held {
		_, present := s.dir.LookupLocal(key, now)
		if present && now.Sub(h.renewed) <= lease {
			continue
		}
		expired = append(expired, key)
		_ = h
	}
	rep.heldMu.Unlock()
	for _, key := range expired {
		s.dropHeldReplica(key)
	}

	// Home-side planning over keys this node still owns and still caches.
	owned := func(key string) bool {
		e, ok := s.dir.LookupLocal(key, now)
		return ok && !e.Replica && s.ownsKey(key)
	}
	successors := func(key string) []uint32 {
		r := s.clu.Ring()
		if r == nil {
			return nil
		}
		self := s.dir.Self()
		var out []uint32
		for _, id := range r.Replicas(key, s.cfg.HotReplicas+1) {
			if id != self {
				out = append(out, id)
			}
		}
		return out
	}
	rep.ctlMu.Lock()
	hot := rep.tracker.Hot(rep.ctl.RetireRate())
	acts := rep.ctl.Plan(hot, owned, successors)
	rep.ctlMu.Unlock()

	for _, a := range acts {
		if a.Retire {
			rep.retired.Add(1)
			if err := s.clu.SendTo(a.Node, &wire.ReplicaPush{Home: s.dir.Self(), Key: a.Key, Retire: true}); err != nil {
				// Unreachable holder: its lease expires on its own.
				s.logf("replica retire %q to %d: %v", a.Key, a.Node, err)
			}
			continue
		}
		e, ok := s.dir.LookupLocal(a.Key, now)
		if !ok || e.Replica {
			continue
		}
		rep.pushed.Add(1)
		if err := s.clu.SendTo(a.Node, &wire.ReplicaPush{
			Home: s.dir.Self(), Key: a.Key, Size: e.Size,
			ExecTime: e.ExecTime, Expires: e.Expires,
		}); err != nil {
			// The next tick renews; replication is best-effort.
			s.logf("replica push %q to %d: %v", a.Key, a.Node, err)
		}
	}
}

// dropHeldReplica retires one held replica: lease record, directory entry,
// body, and a broadcast retirement so peers stop routing here.
func (s *Server) dropHeldReplica(key string) {
	rep := s.rep
	rep.heldMu.Lock()
	h, ok := rep.held[key]
	if ok {
		delete(rep.held, key)
	}
	rep.heldMu.Unlock()
	if !ok {
		return
	}
	s.dir.RemoveLocalReplica(key)
	rep.dropped.Add(1)
	s.clu.Broadcast(&wire.ReplicaEvent{Key: key, Home: h.home, Holder: s.dir.Self(), Retire: true})
}

// --- holder side: pushes and body pulls ---

// HandleReplicaPush implements cluster.Handler: a home owner asks us
// to hold (or retire) a replica of one of its hot entries.
func (h *clusterHandler) HandleReplicaPush(m *wire.ReplicaPush) {
	s := h.server()
	rep := s.rep
	if rep == nil {
		return // not participating; the home's pushes simply never land
	}
	if m.Retire {
		s.dropHeldReplica(m.Key)
		return
	}
	now := s.clk.Now()
	if !m.Expires.IsZero() && !m.Expires.After(now) {
		return
	}
	rep.heldMu.Lock()
	if _, held := rep.held[m.Key]; held {
		rep.held[m.Key] = heldReplica{home: m.Home, renewed: now}
		rep.heldMu.Unlock()
		return
	}
	rep.heldMu.Unlock()
	if e, ok := s.dir.LookupLocal(m.Key, now); ok && !e.Replica {
		// We cache this key as an owner (the ring moved its home here, or a
		// racing execution landed first): nothing to pull.
		return
	}
	t := replicaPull{home: m.Home, entry: directory.Entry{
		Key: m.Key, Size: m.Size, ExecTime: m.ExecTime, Expires: m.Expires,
	}}
	select {
	case rep.pullCh <- t:
	default:
		s.logf("replica pull queue full: %q from %d dropped (next renewal retries)", m.Key, m.Home)
	}
}

// replicaPuller drains the replica pull queue until the server stops.
func (s *Server) replicaPuller() {
	defer s.handoffWG.Done()
	for {
		select {
		case <-s.purgeStop:
			return
		case t := <-s.rep.pullCh:
			s.pullReplica(t)
		}
	}
}

// pullReplica fetches one replica body from its home and installs it as a
// held replica. Failures are benign: the home's next renewal push retries.
func (s *Server) pullReplica(t replicaPull) {
	rep := s.rep
	key := t.entry.Key
	now := s.clk.Now()
	if !t.entry.Expires.IsZero() && !t.entry.Expires.After(now) {
		return
	}
	if e, ok := s.dir.LookupLocal(key, now); ok {
		if !e.Replica {
			return // owned here; not a replica's business
		}
		// Already installed (duplicate pushes raced): just renew the lease.
		rep.markHeld(key, t.home, now)
		return
	}
	startVer := s.inv.Version()
	reply, err := s.clu.FetchRing(context.Background(), t.home, key, wire.FetchReplica)
	if err != nil {
		s.logf("replica pull %q from %d: %v", key, t.home, err)
		return
	}
	// The store copies what it is given, so the frame goes back on every exit.
	defer reply.Release()
	ct, body := reply.ContentType, reply.Body
	if !reply.OK {
		return // home no longer has it
	}
	if s.inv.Superseded(key, startVer) {
		// An invalidation wave matching key passed while the body was on the
		// wire from the home; installing it would plant a stale replica.
		return
	}
	s.settleBody(key, store.Loc{}, +1)
	err = s.store.Append(key, ct, body, t.entry.ExecTime, t.entry.Expires, func(loc store.Loc) {
		s.dir.InsertLocalReplica(directory.Entry{
			Key: key, Size: int64(len(body)), Loc: loc, ExecTime: t.entry.ExecTime,
			Inserted: now, Expires: t.entry.Expires,
		}, now)
	})
	s.settleBody(key, store.Loc{}, -1)
	if err != nil {
		s.logf("replica put %q: %v", key, err)
		return
	}
	rep.markHeld(key, t.home, now)
	if s.inv.Superseded(key, startVer) {
		// A wave raced the install itself; retire the copy before anyone is
		// told to route here.
		s.dropHeldReplica(key)
		return
	}
	rep.pulled.Add(1)
	s.clu.Broadcast(&wire.ReplicaEvent{Key: key, Home: t.home, Holder: s.dir.Self()})
}

// HandleReplicaEvent implements cluster.Handler: fold a holder's
// announcement into the directory's holder index. Events apply in every
// ring-mode node — a node with replication off still routes reads to
// announced holders' homes correctly because its own ringStage ignores
// holder sets, but keeping the index current costs nothing and serves mixed
// clusters.
func (h *clusterHandler) HandleReplicaEvent(m *wire.ReplicaEvent) {
	s := h.server()
	if !s.ringMode() {
		return
	}
	if m.Retire {
		s.dir.RemoveReplica(m.Key, m.Holder)
	} else {
		s.dir.AddReplica(m.Key, m.Holder)
	}
}

// --- read-path helpers (ringStage) ---

// pickReplicaTarget chooses where to route a fetch for a key homed
// elsewhere: the home owner or one of its live announced holders, rotated
// round-robin so a hot key's reads spread across the whole copy set.
func (s *Server) pickReplicaTarget(e directory.Entry) (node uint32, viaReplica bool) {
	rep := s.rep
	if rep == nil || len(e.Holders) == 0 {
		return e.Owner, false
	}
	self := s.dir.Self()
	cands := make([]uint32, 1, len(e.Holders)+1)
	cands[0] = e.Owner
	for _, hd := range e.Holders {
		if hd == self || hd == e.Owner {
			continue
		}
		if s.clu.PeerState(hd) == cluster.PeerDead {
			continue
		}
		cands = append(cands, hd)
	}
	if len(cands) == 1 {
		return e.Owner, false
	}
	pick := cands[int(rep.rr.Add(1))%len(cands)]
	return pick, pick != e.Owner
}

// --- membership interaction ---

// replicaRingChange reconciles replication state with a membership change.
// Runs on the ring-notification goroutine (after the rebalance offers).
func (s *Server) replicaRingChange(old, new *ring.Ring) {
	// Departed members can no longer serve: drop them from the holder index
	// everywhere, leaving surviving copies untouched (no quarantine — the
	// remaining holders and the home are as trustworthy as before).
	departed := make([]uint32, 0, 2)
	present := make(map[uint32]bool, new.Len())
	for _, id := range new.Members() {
		present[id] = true
	}
	for _, id := range old.Members() {
		if !present[id] {
			departed = append(departed, id)
		}
	}
	for _, id := range departed {
		if n := s.dir.DropReplicaHolder(id); n > 0 {
			s.logf("dropped departed node %d from %d replica holder sets", id, n)
		}
	}
	rep := s.rep
	if rep == nil {
		return
	}
	for _, id := range departed {
		rep.ctlMu.Lock()
		rep.ctl.Forget(id)
		rep.ctlMu.Unlock()
	}
	// Held replicas the new ring homes here become the authoritative copy:
	// promote them into owned entries (they enter the replacement policy and
	// are re-announced) and tell peers to stop treating us as a mere holder.
	now := s.clk.Now()
	rep.heldMu.Lock()
	var promote []heldPromotion
	for key, h := range rep.held {
		if s.ownsKey(key) {
			promote = append(promote, heldPromotion{key: key, home: h.home})
			delete(rep.held, key)
		}
	}
	rep.heldMu.Unlock()
	for _, p := range promote {
		evicted, ok := s.dir.PromoteReplica(p.key, now)
		if !ok {
			continue
		}
		for range evicted {
			s.counters.Eviction()
		}
		s.clu.Broadcast(&wire.ReplicaEvent{Key: p.key, Home: p.home, Holder: s.dir.Self(), Retire: true})
		s.logf("promoted held replica %q to owned entry after ring change", p.key)
	}
}

type heldPromotion struct {
	key  string
	home uint32
}
