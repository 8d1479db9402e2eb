package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/cacheability"
	"repro/internal/fetchpipe"
	"repro/internal/inval"
)

// Invalidation: the server-layer half of the versioned wave protocol, the
// one way an invalidation travels. Server.Invalidate, an administrative
// wire.Invalidate (swalactl) and a successful execution of a CGI program that
// declares writes (cgi.Engine.RegisterDeps: one wave per dependent reader
// program) each originate a wave, and a wave drops every matching cached body
// on every node — owned entries, held hot replicas (whose leases retire
// immediately, not on the next controller tick), and the holder-index routes
// that point at them.
//
// A wave is a record of the origin's directory log: it rides the cluster's
// ordered per-link queues in DirBatch frames with the directory's own
// updates, anti-entropy sync replays it to a peer that missed it, and each
// peer's floor of the origin's log applies it exactly once
// (directory.ApplySync, which calls applyWave).
//
// Stale-while-revalidate (Config.SWR) keeps the previous body of an
// invalidated entry in a bounded holding cell for swrWindow; the fetch
// pipeline serves it with X-Swala-Cache: stale-revalidate while one
// background flight per key refreshes the entry, so a write storm degrades
// hit latency instead of turning every hit into a synchronous execution.

// swrWindow bounds how long an invalidated body may be served stale.
const swrWindow = 2 * time.Second

// swrCellCap bounds the stale-body holding cell (entries).
const swrCellCap = 1024

// applyWave applies one remote invalidation wave (directory.OnWave).
func (s *Server) applyWave(origin uint32, pattern string) {
	s.wavesApplied.Add(1)
	if n := s.dropMatching(pattern); n > 0 {
		s.logf("wave from %d %q: dropped %d entries", origin, pattern, n)
	}
}

// dropMatching drops every local entry pattern matches. The apply-version
// moves first, so a flight inserting a matching key after the drop's
// snapshot undoes its insert.
func (s *Server) dropMatching(pattern string) int {
	s.inv.NoteApplied(pattern)
	return s.invalidateLocal(pattern)
}

// invalidateWave originates one wave: apply it locally, then append it to
// the directory's log, which pushes it to every peer over the ordered update
// queues. The local drop goes first so its delete records precede the wave
// in the log: a peer that has applied the wave has also stopped listing the
// origin's dropped keys, and cannot fetch a pre-write body from it. Peers
// the push cannot reach now (links still dialing, queue overflow) converge
// through anti-entropy; their count is returned so admin callers can
// surface it.
func (s *Server) invalidateWave(pattern string) (dropped, peers, unreached int) {
	dropped = s.dropMatching(pattern)
	s.waveMu.Lock()
	ver := s.dir.Wave(pattern)
	peers, unreached = s.fanout.peers, s.fanout.unreached
	s.waveMu.Unlock()
	s.wavesOriginated.Add(1)
	if unreached > 0 {
		s.logf("wave %d %q: %d of %d peers unreached now (anti-entropy will replay)",
			ver, pattern, unreached, peers)
	}
	return dropped, peers, unreached
}

// noteWrites originates invalidation waves for a successful execution of the
// CGI mounted at path: one wave per reader program of each resource the
// writer declares, covering all of that reader's cached results.
func (s *Server) noteWrites(path string) {
	deps, ok := s.engine.DepsFor(path)
	if !ok || len(deps.Writes) == 0 {
		return
	}
	seen := map[string]bool{}
	for _, resource := range deps.Writes {
		for _, reader := range s.engine.ReadersOf(resource) {
			if seen[reader] {
				continue
			}
			seen[reader] = true
			s.invalidateWave(inval.KeyPattern(reader))
		}
	}
}

// --- stale-while-revalidate ---

// swrEntry is one parked stale body.
type swrEntry struct {
	contentType string
	body        []byte
	until       time.Time
}

// swrCell is the bounded holding cell of invalidated bodies awaiting
// refresh, plus the set of keys with a refresh flight already running.
type swrCell struct {
	mu         sync.Mutex
	window     time.Duration
	parked     map[string]swrEntry
	refreshing map[string]bool
}

func newSWRCell() *swrCell {
	return &swrCell{
		window:     swrWindow,
		parked:     make(map[string]swrEntry),
		refreshing: make(map[string]bool),
	}
}

// park stashes an invalidated body for stale service until the window ends.
func (c *swrCell) park(key, contentType string, body []byte, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.parked) >= swrCellCap {
		for k, e := range c.parked {
			if now.After(e.until) || len(c.parked) >= swrCellCap {
				delete(c.parked, k)
			}
		}
	}
	c.parked[key] = swrEntry{contentType: contentType, body: body, until: now.Add(c.window)}
}

// take returns the parked body for key if its stale window is still open.
func (c *swrCell) take(key string, now time.Time) (swrEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.parked[key]
	if !ok {
		return swrEntry{}, false
	}
	if now.After(e.until) {
		delete(c.parked, key)
		return swrEntry{}, false
	}
	return e, true
}

// drop discards a parked body (its refresh landed).
func (c *swrCell) drop(key string) {
	c.mu.Lock()
	delete(c.parked, key)
	c.mu.Unlock()
}

// tryRefresh claims the refresh flight for key; at most one runs at a time.
func (c *swrCell) tryRefresh(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refreshing[key] {
		return false
	}
	c.refreshing[key] = true
	return true
}

func (c *swrCell) refreshDone(key string) {
	c.mu.Lock()
	delete(c.refreshing, key)
	c.mu.Unlock()
}

// swrStage serves invalidated-but-parked bodies during their stale window,
// kicking one coalesced background refresh per key. It sits after the local
// stage: a live directory entry always wins; only a key the wave just
// dropped is eligible.
type swrStage struct{ s *Server }

func (st *swrStage) Name() string { return "swr" }

func (st *swrStage) Fetch(ctx context.Context, key string, hint any) (fetchpipe.Result, error) {
	s := st.s
	e, ok := s.swr.take(key, s.clk.Now())
	if !ok {
		return fetchpipe.Defer(hint)
	}
	s.refreshStale(key)
	cost := s.cfg.Costs.FileBaseCost + time.Duration(len(e.body))*s.cfg.Costs.PerByte
	if _, err := s.node.Run(ctx, cost); err != nil {
		return fetchpipe.Result{}, fetchpipe.CtxErr(err)
	}
	return fetchpipe.Result{Status: 200, ContentType: e.contentType, Body: e.body,
		Source: "stale-revalidate"}, nil
}

// refreshStale starts the background revalidation flight for key unless one
// is already running: execute the CGI detached from any request and insert
// the fresh result through the usual stamped path, then retire the parked
// stale body.
func (s *Server) refreshStale(key string) {
	if !s.swr.tryRefresh(key) {
		return
	}
	go func() {
		defer s.swr.refreshDone(key)
		ctx := context.Background()
		v := s.execDetached(ctx, key, s.fetchStateFrom(ctx, key))
		if v.err != nil || v.res.Status != 200 {
			if v.err != nil {
				s.logf("stale revalidate %q: %v", key, v.err)
			}
			return
		}
		// Fresh result stored (or deliberately uncacheable): stale window over.
		s.swr.drop(key)
	}()
}

// parkStale is called by invalidateLocal before it deletes an owned entry's
// body: with SWR on, the body moves to the holding cell instead of vanishing.
func (s *Server) parkStale(key string) {
	if s.swr == nil {
		return
	}
	ct, body, err := s.store.Get(key)
	if err != nil {
		return
	}
	s.swr.park(key, ct, body, s.clk.Now())
}

// matchHeldReplicas returns the held-replica keys matching pattern (nil when
// replication is off).
func (s *Server) matchHeldReplicas(pattern string) []string {
	rep := s.rep
	if rep == nil {
		return nil
	}
	var out []string
	rep.heldMu.Lock()
	for key := range rep.held {
		if cacheability.Match(pattern, key) {
			out = append(out, key)
		}
	}
	rep.heldMu.Unlock()
	return out
}
