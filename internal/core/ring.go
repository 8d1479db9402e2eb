package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/cluster"
	"repro/internal/directory"
	"repro/internal/ring"
	"repro/internal/wire"
)

// Ring placement (Config.RingPlacement): the server-layer half of scale-out
// membership. The cluster layer gossips membership and derives the ring; this
// file reacts to ring changes — handing off entries whose ownership moved —
// and serves the two flagged fetch forms the placement protocol adds:
//
//	FetchExecute  — a miss routed to this node because the ring says the key
//	                is ours: serve from cache, or execute-and-announce here so
//	                the whole cluster's next request for the key is a hit.
//	FetchTakeover — a new owner pulling a body during rebalance; we serve it
//	                and drop our now-misplaced copy.
//
// A handoff is metadata-first: the old owner pushes the entry list to the new
// owner (DirSync{Handoff:true} riding the existing sync message), and the new
// owner pulls bodies at its own pace through a bounded queue. Losing a push
// or a pull is safe — the entry either stays serveable at the old owner until
// takeover or degrades to one extra CGI execution.

const (
	// handoffQueueDepth bounds pending body pulls on the receiving side.
	// Offers beyond it are dropped (logged); the entries stay at the old
	// owner and simply miss the rebalance.
	handoffQueueDepth = 8192
	// handoffWorkers is how many bodies a receiver pulls concurrently.
	handoffWorkers = 4
)

// handoffTask is one body pull owed to this node after a rebalance.
type handoffTask struct {
	owner uint32
	entry directory.Entry
}

// ringMode reports whether consistent-hash placement is active.
func (s *Server) ringMode() bool {
	return s.cfg.Mode == Cooperative && s.cfg.RingPlacement
}

// ownsKey reports whether this node is the ring-designated owner of key.
// Replicate mode (no ring) owns everything it caches, as does an empty or
// single-node ring.
func (s *Server) ownsKey(key string) bool {
	r := s.clu.Ring()
	if r == nil {
		return true
	}
	owner, ok := r.Owner(key)
	return !ok || owner == s.dir.Self()
}

// JoinRing joins an existing ring through any of the seed addresses, trying
// them in order.
func (s *Server) JoinRing(ctx context.Context, seeds []string) error {
	var lastErr error
	for _, seed := range seeds {
		if err := s.clu.JoinSeed(ctx, seed); err != nil {
			s.logf("join via %s: %v", seed, err)
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// LeaveRing departs gracefully: drop out of our own ring view (which fires
// the rebalance that offers every local entry to its new owner), wait —
// bounded by ctx or 5s — for the new owners to take the entries over, then
// announce the departure so peers tombstone us. Receivers keep routing
// fetches to us during the drain because we only disappear from their rings
// at the announce.
func (s *Server) LeaveRing(ctx context.Context) {
	s.clu.LeaveRing()
	deadline := time.Now().Add(5 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for time.Now().Before(deadline) && s.dir.LocalLen() > 0 {
		select {
		case <-ctx.Done():
			deadline = time.Now()
		case <-time.After(10 * time.Millisecond):
		}
	}
	if n := s.dir.LocalLen(); n > 0 {
		s.logf("leaving with %d entries not yet taken over (they are lost with this node)", n)
	}
	s.clu.AnnounceLeave()
}

// RingStatus reports the live ring membership (nil outside ring mode).
func (s *Server) RingStatus() *cluster.RingStatus { return s.clu.RingStatusSnapshot() }

// HandoffStats reports rebalance progress: entries served to new owners,
// entries pulled from old owners, and body bytes pulled.
func (s *Server) HandoffStats() (out, in, bytes uint64) {
	return s.handoffOut.Load(), s.handoffIn.Load(), s.handoffBytes.Load()
}

// onRingChange runs on the cluster's ring-notification goroutine, in ring
// order, for every effective membership change.
func (s *Server) onRingChange(old, new *ring.Ring) {
	s.rebalances.Add(1)
	s.lastRebalance.Store(s.clk.Now().UnixNano())
	moves := ring.Diff(old, new)
	s.logf("ring changed: %d -> %d members, %.1f%% of keyspace moved",
		old.Len(), new.Len(), 100*moves.MovedFraction)
	s.rebalance(new)
	s.replicaRingChange(old, new)
}

// rebalance offers every local entry the new ring places elsewhere to its new
// owner. Metadata only — the new owner pulls bodies with FetchTakeover, and
// our copy is deleted when it does, so the entry stays serveable throughout.
func (s *Server) rebalance(r *ring.Ring) {
	self := s.dir.Self()
	owns := func(key string) bool {
		owner, ok := r.Owner(key)
		return !ok || owner == self
	}
	misplaced := s.dir.MisplacedLocal(owns)
	if len(misplaced) == 0 {
		return
	}
	byOwner := make(map[uint32][]wire.DirUpdate)
	for _, e := range misplaced {
		owner, ok := r.Owner(e.Key)
		if !ok || owner == self {
			continue
		}
		byOwner[owner] = append(byOwner[owner], wire.DirUpdate{
			Owner: self, Key: e.Key, Size: e.Size,
			ExecTime: e.ExecTime, Expires: e.Expires,
		})
	}
	sent := 0
	for owner, updates := range byOwner {
		if err := s.clu.SendTo(owner, &wire.DirSync{Owner: self, Handoff: true, Updates: updates}); err != nil {
			// The link to a fresh joiner may not be up yet — the connect that
			// reconcileLinks kicked off races this offer. Retry off-loop; the
			// entries stay serveable here until the offer lands.
			go s.retryHandoffOffer(owner, updates)
			continue
		}
		sent += len(updates)
	}
	s.logf("rebalance: offered %d of %d misplaced entries to %d new owners",
		sent, len(misplaced), len(byOwner))
}

// retryHandoffOffer re-sends one rebalance offer until the link to the new
// owner comes up. Gives up if the owner drops off the ring (the next ring
// change rescans misplaced entries) or after ~5s; either way the entries
// stay serveable here, so losing the offer only costs rebalance progress.
func (s *Server) retryHandoffOffer(owner uint32, updates []wire.DirUpdate) {
	for attempt := 0; attempt < 50; attempt++ {
		select {
		case <-s.purgeStop:
			return
		case <-time.After(100 * time.Millisecond):
		}
		if r := s.clu.Ring(); r == nil || !r.Contains(owner) {
			return
		}
		if err := s.clu.SendTo(owner, &wire.DirSync{Owner: s.dir.Self(), Handoff: true, Updates: updates}); err == nil {
			return
		}
	}
	s.logf("handoff offer to %d (%d entries) undeliverable, giving up", owner, len(updates))
}

// acceptHandoff queues the body pulls for a rebalance offer.
func (s *Server) acceptHandoff(m *wire.DirSync) {
	if s.handoffCh == nil {
		s.logf("handoff offer from %d ignored: not in ring placement mode", m.Owner)
		return
	}
	for i := range m.Updates {
		u := &m.Updates[i]
		if u.Kind != wire.DirInsert {
			continue
		}
		t := handoffTask{owner: m.Owner, entry: directory.Entry{
			Key: u.Key, Size: u.Size, ExecTime: u.ExecTime, Expires: u.Expires,
		}}
		select {
		case s.handoffCh <- t:
		default:
			s.logf("handoff queue full: %q stays at node %d", u.Key, m.Owner)
		}
	}
}

// handoffWorker drains the pull queue until the server stops.
func (s *Server) handoffWorker() {
	defer s.handoffWG.Done()
	for {
		select {
		case <-s.purgeStop:
			return
		case t := <-s.handoffCh:
			s.pullHandoff(t)
		}
	}
}

// takeoverFetch is pullHandoff's FetchRing with a short retry on ErrNoPeer:
// a rebalance offer often lands before our dial back to the old owner has
// registered (the joiner learns addresses from the same ring update that
// triggered the offer), and without the retry every queued pull would fail
// instantly and the entries would strand at the old owner until a routed
// miss re-executes them. Any other error stays fatal to the pull — those
// returns are benign (the body remains serveable at the old owner).
func (s *Server) takeoverFetch(owner uint32, key string) (*wire.FetchReply, error) {
	for attempt := 0; ; attempt++ {
		reply, err := s.clu.FetchRing(context.Background(), owner, key, wire.FetchTakeover)
		if err == nil || !errors.Is(err, cluster.ErrNoPeer) || attempt >= 40 {
			return reply, err
		}
		if r := s.clu.Ring(); r == nil || !r.Contains(owner) {
			return nil, err
		}
		select {
		case <-s.purgeStop:
			return nil, err
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// pullHandoff fetches one handed-off body from its old owner and installs it
// locally. Every early return is benign: the entry either no longer matters
// (expired, ring moved again, already present) or stays at the old owner.
func (s *Server) pullHandoff(t handoffTask) {
	key := t.entry.Key
	now := s.clk.Now()
	if !t.entry.Expires.IsZero() && !t.entry.Expires.After(now) {
		return
	}
	// Skip only when our ring names some third node the owner. A push from
	// the node our ring still considers the owner is trusted: that is the
	// graceful-leave drain, where the leaver drops out of its own ring (and
	// offers its entries) before announcing the departure to anyone else.
	if r := s.clu.Ring(); r != nil {
		if owner, ok := r.Owner(key); ok && owner != s.dir.Self() && owner != t.owner {
			return
		}
	}
	if _, ok := s.dir.LookupLocal(key, now); ok {
		// A routed miss already executed here before the pull ran — we have a
		// fresher body than the old owner's. Still send the takeover so the
		// old owner relinquishes its now-misplaced copy; discard the body.
		reply, err := s.takeoverFetch(t.owner, key)
		if err != nil {
			s.logf("handoff release %q at %d: %v", key, t.owner, err)
		}
		reply.Release()
		return
	}
	startVer := s.inv.Version()
	reply, err := s.takeoverFetch(t.owner, key)
	if err != nil {
		s.logf("handoff pull %q from %d: %v", key, t.owner, err)
		return
	}
	// The store copies what it is given, so the frame goes back on every exit.
	defer reply.Release()
	if !reply.OK {
		return // old owner no longer has it (expired or evicted there)
	}
	// The old owner has relinquished the body, but an invalidation wave
	// matching key that passed while it was on the wire keeps it out: the
	// next request re-executes fresh.
	if !s.install(key, reply.ContentType, reply.Body, t.entry.ExecTime, t.entry.Expires, startVer) {
		return
	}
	s.handoffIn.Add(1)
	s.handoffBytes.Add(uint64(len(reply.Body)))
}

// serveTakeover serves one handed-off body to its new owner, leased until
// release, and drops the local, now-misplaced copy.
func (s *Server) serveTakeover(key string) (ct string, body []byte, release func(), ok bool) {
	e, ok := s.dir.LookupLocal(key, s.clk.Now())
	if !ok {
		return "", nil, nil, false
	}
	ct, body, release, err := s.store.ReadAt(key, e.Loc)
	if err != nil {
		return "", nil, nil, false
	}
	cost := s.cfg.Costs.RemoteServeCost + s.cfg.Costs.FileBaseCost +
		time.Duration(len(body))*s.cfg.Costs.PerByte
	if cost > 0 {
		s.node.Run(context.Background(), cost)
	}
	// With the body shipped, the new owner is the entry's home; our copy
	// would only shadow it.
	s.dir.RemoveLocal(key)
	s.handoffOut.Add(1)
	return ct, body, release, true
}

// executeAsOwner runs a routed miss at the ring owner. The result is cached
// (announced) only if we still own the key — a racing ring change must not
// plant entries placement will never find — and only 200s are served back;
// failures make the requester fall back to its own local execution, which
// reproduces the real status code. stored tells the requester whether the
// result was cached here, so it can record a negative hint when it was not.
func (s *Server) executeAsOwner(key string) (contentType string, body []byte, stored, ok bool) {
	ctx := context.Background()
	fs := s.fetchStateFrom(ctx, key)
	var v execShare
	if s.cfg.CoalesceMisses {
		// Routed duplicates share one execution, with each other and with
		// this node's own misses for key.
		v, _, _ = s.flight.DoCtx(ctx, key, func() (execShare, error) {
			return s.execDetached(ctx, key, fs), nil
		})
	} else {
		s.trackInflight(key, +1)
		defer s.trackInflight(key, -1)
		v = s.execDetached(ctx, key, fs)
	}
	if v.err != nil {
		s.logf("owner execute %q: %v", key, v.err)
		return "", nil, false, false
	}
	if v.res.Status != 200 {
		return "", nil, false, false
	}
	// A routed execution concentrates load on the owner exactly like a remote
	// serve does — feed the replication controller's load estimate.
	s.counters.RemoteServe()
	if s.rep != nil {
		s.rep.tracker.Observe(key, v.execTime)
	}
	// Shipping the fresh result to the requester costs the same as serving a
	// cached body remotely.
	cost := s.cfg.Costs.RemoteServeCost + time.Duration(len(v.res.Body))*s.cfg.Costs.PerByte
	if cost > 0 {
		s.node.Run(context.Background(), cost)
	}
	return v.res.ContentType, v.res.Body, v.stored, true
}
