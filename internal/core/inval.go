package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/cacheability"
	"repro/internal/fetchpipe"
	"repro/internal/inval"
	"repro/internal/wire"
)

// Invalidation: the server-layer half of the versioned wave protocol in
// internal/inval, the one way an invalidation travels. Server.Invalidate, an
// administrative wire.Invalidate (swalactl) and a successful execution of a
// CGI program that declares writes (cgi.Engine.RegisterDeps: one wave per
// dependent reader program) each originate a wave, and a wave drops every
// matching cached body on every node — owned entries, held hot replicas
// (whose leases retire immediately, not on the next controller tick), and
// the holder-index routes that point at them.
//
// Waves ride the cluster's ordered per-link queues as MsgInvalWave frames;
// the origin journals them, links track the highest wave each peer has
// confirmed, and the anti-entropy sync path replays whatever a partitioned
// or overflowed peer missed (cluster.Handler). Exactly-once application per
// node is the inval.State Mark/floor machinery.
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

// applyWave applies one remote invalidation wave exactly once.
func (s *Server) applyWave(w inval.Wave) {
	if !s.inv.Mark(w) {
		return
	}
	n := s.invalidateLocal(w.Pattern)
	s.inv.NoteApplied(w.Pattern)
	if n > 0 {
		s.logf("wave %d/%d %q: dropped %d entries", w.Origin, w.Seq, w.Pattern, n)
	}
}

// invalidateWave originates one wave: issue the next own sequence, apply it
// locally, and push it to every peer over the ordered update queues. Peers
// the push cannot reach now (links still dialing, queue overflow) converge
// through wave sync; their count is returned so admin callers can surface it.
func (s *Server) invalidateWave(pattern string) (dropped, peers, unreached int) {
	w := s.inv.Next(pattern)
	s.inv.Mark(w)
	dropped = s.invalidateLocal(pattern)
	s.inv.NoteApplied(pattern)
	if s.cfg.Mode == Cooperative {
		peers, unreached = s.clu.Broadcast(&wire.InvalWave{Origin: w.Origin, Seq: w.Seq, Pattern: w.Pattern})
		if unreached > 0 {
			s.logf("wave %d %q: %d of %d peers unreached now (anti-entropy will replay)",
				w.Seq, pattern, unreached, peers)
		}
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

// WaveSeq returns this node's own wave sequence counter — how many waves it
// has originated.
func (s *Server) WaveSeq() uint64 { return s.inv.Seq() }

// WaveFloorFor returns the contiguous applied floor of origin's waves at
// this node. Experiments use Seq/Floor pairs to detect wave quiescence:
// every node's floor for every origin has reached that origin's own
// sequence.
func (s *Server) WaveFloorFor(origin uint32) uint64 { return s.inv.Floor(origin) }

// --- cluster wave plumbing ---

// HandleInvalWave implements cluster.Handler: one wave frame off a peer
// link's ordered queue.
func (h *clusterHandler) HandleInvalWave(m *wire.InvalWave) {
	h.server().applyWave(inval.Wave{Origin: m.Origin, Seq: m.Seq, Pattern: m.Pattern})
}

// HandleWaveSync implements cluster.Handler: an anti-entropy replay of
// origin's waves above our advertised floor. The sender ships everything it
// retains past that floor (prefixed by a synthetic full wave when its journal
// has been trimmed), so the batch is contiguous and the floor may jump to its
// last sequence.
func (h *clusterHandler) HandleWaveSync(origin uint32, waves []wire.InvalWave) {
	if len(waves) == 0 {
		return
	}
	for i := range waves {
		h.HandleInvalWave(&waves[i])
	}
	h.server().inv.AdvanceFloor(origin, waves[len(waves)-1].Seq)
}

// WaveFloor implements cluster.Handler: the contiguous applied floor to
// advertise toward origin during the link handshake.
func (h *clusterHandler) WaveFloor(origin uint32) uint64 {
	return h.server().inv.Floor(origin)
}

// BuildWaveSync implements cluster.Handler: our own waves a peer whose
// floor is since still needs. Adopting since first makes a restarted node
// resume numbering above what its peers already applied.
func (h *clusterHandler) BuildWaveSync(since uint64) []wire.InvalWave {
	s := h.server()
	s.inv.AdoptSeq(since)
	missed := s.inv.Missed(since)
	if len(missed) == 0 {
		return nil
	}
	out := make([]wire.InvalWave, len(missed))
	for i, w := range missed {
		out[i] = wire.InvalWave{Origin: w.Origin, Seq: w.Seq, Pattern: w.Pattern}
	}
	return out
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
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		fs := s.fetchStateFrom(ctx, key)
		startVer := s.inv.Version()
		res, execTime, err := s.execCGI(ctx, fs.creq)
		if err != nil || res.Status != 200 {
			if err != nil {
				s.logf("stale revalidate %q: %v", key, err)
			}
			return
		}
		if s.ownsKey(key) && s.cfg.Cacheability.ShouldInsert(execTime, int64(len(res.Body))) {
			s.insertResult(key, res, execTime, fs.ttl, startVer)
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
