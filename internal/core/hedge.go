package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/directory"
	"repro/internal/wire"
)

// Hedged remote fetches (Config.Hedge, swalad -hedge).
//
// A routed fetch's tail is the target peer's tail: one slow peer drags the
// whole cluster's p99 toward itself. The hedge bounds that coupling: if
// the primary fetch has not returned by the peer's observed p95 (from the
// cluster score; a static trigger until enough samples exist), one backup
// is launched — to the home owner or another replica holder when the key
// has one, otherwise the remote wait is abandoned in favour of local
// execution — and the first result wins. The loser is cancelled through
// the ordinary context plumbing, and its abandoned fetch is recorded as
// neutral by the score (a cancelled fetch says nothing about the peer).
//
// Every hedge (and every abandon-for-local-execution) spends one token
// from the retry budget, refilled at RetryBudgetRatio per primary fetch.
// A brownout that makes every fetch want a hedge therefore cannot double
// the cluster's fetch traffic: past the budget, requests simply wait for
// their primary as before.

const (
	// RetryBudgetRatio is the hedge token earned per primary fetch: hedges
	// are capped at roughly this fraction of fetch traffic.
	RetryBudgetRatio = 0.1
	// RetryBudgetBurst is the retry-budget token bucket's capacity.
	RetryBudgetBurst = 10
	// hedgeMinTrigger floors the dynamic p95 trigger so a very fast peer
	// cannot make every fetch hedge.
	hedgeMinTrigger = 2 * time.Millisecond
)

// hedgeState is the per-server hedge machinery: the retry-budget token
// bucket and the observability counters.
type hedgeState struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	burst  float64

	primaries atomic.Uint64 // hedgeable fetches issued
	issued    atomic.Uint64 // remote hedges launched
	won       atomic.Uint64 // remote hedges whose result served the request
	abandoned atomic.Uint64 // loser fetches cancelled after a winner
	denied    atomic.Uint64 // hedges wanted but refused by the budget
	local     atomic.Uint64 // trigger firings that fell back to local execution
}

func newHedgeState() *hedgeState {
	return &hedgeState{tokens: RetryBudgetBurst, ratio: RetryBudgetRatio, burst: RetryBudgetBurst}
}

// earn credits the budget for one primary fetch.
func (h *hedgeState) earn() {
	h.mu.Lock()
	h.tokens += h.ratio
	if h.tokens > h.burst {
		h.tokens = h.burst
	}
	h.mu.Unlock()
}

// take spends one token; false (and a denied count) when the bucket is dry.
func (h *hedgeState) take() bool {
	h.mu.Lock()
	ok := h.tokens >= 1
	if ok {
		h.tokens--
	}
	h.mu.Unlock()
	if !ok {
		h.denied.Add(1)
	}
	return ok
}

// fill reports the bucket's fill level as a fraction of its burst.
func (h *hedgeState) fill() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.burst <= 0 {
		return 0
	}
	return h.tokens / h.burst
}

// remoteCall names one fetch the pipeline wants from a peer.
type remoteCall struct {
	target uint32
	flags  uint8
}

// remoteResult is the outcome of a (possibly hedged) remote fetch.
type remoteResult struct {
	// reply is the owner's answer (nil when err is set), the taker's to release.
	reply *wire.FetchReply
	err   error
	// from is the peer that produced the result; hedged reports it was the
	// backup rather than the primary.
	from   uint32
	hedged bool
	// localFallback means the hedge trigger fired with no alternate target:
	// the remote wait was abandoned and the caller should execute locally
	// (the other fields are meaningless).
	localFallback bool
}

// hedgeTriggerFor is the delay after which a fetch to peer hedges: the
// peer's observed p95 when the score has one, floored so a fast peer
// cannot make every fetch hedge; the static default otherwise.
func (s *Server) hedgeTriggerFor(peer uint32) time.Duration {
	if p95, ok := s.clu.PeerP95(peer); ok {
		if p95 < hedgeMinTrigger {
			return hedgeMinTrigger
		}
		return p95
	}
	return s.cfg.HedgeTrigger
}

// hedgeAltFor picks the backup target for a routed ring fetch: the home
// owner (which can always execute) when the primary was a replica holder;
// otherwise another live holder of the key; nil when the only option is
// local execution.
func (s *Server) hedgeAltFor(e directory.Entry, target uint32, viaReplica bool) *remoteCall {
	if s.hedge == nil {
		return nil
	}
	if viaReplica {
		return &remoteCall{target: e.Owner, flags: wire.FetchExecute}
	}
	self := s.dir.Self()
	for _, hd := range e.Holders {
		if hd == self || hd == e.Owner || hd == target {
			continue
		}
		if s.clu.PeerState(hd) == cluster.PeerDead {
			continue
		}
		return &remoteCall{target: hd}
	}
	return nil
}

// fetchRemote runs one pipeline fetch against pri, hedging to alt (or
// abandoning in favour of local execution when alt is nil) if the primary
// outlives the trigger and the retry budget allows. With hedging off it is
// a plain FetchRing call, plus breaker fast-fail accounting either way.
func (s *Server) fetchRemote(ctx context.Context, key string, pri remoteCall, alt *remoteCall) remoteResult {
	h := s.hedge
	if h == nil {
		reply, err := s.clu.FetchRing(ctx, pri.target, key, pri.flags)
		if errors.Is(err, cluster.ErrPeerTripped) {
			s.breakerFastFails.Add(1)
		}
		return remoteResult{reply: reply, err: err, from: pri.target}
	}
	h.primaries.Add(1)
	h.earn()

	// Both arms get their own cancelable child context; whichever loses (or
	// is abandoned) is cancelled on return. The results channel is buffered
	// for both arms, so a loser's goroutine never blocks on send — there is
	// no leak even if nobody drains it.
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	ch := make(chan remoteResult, 2)
	launch := func(cctx context.Context, call remoteCall, hedged bool) {
		go func() {
			reply, err := s.clu.FetchRing(cctx, call.target, key, call.flags)
			ch <- remoteResult{reply: reply, err: err, from: call.target, hedged: hedged}
		}()
	}
	launch(pctx, pri, false)

	timer := time.NewTimer(s.hedgeTriggerFor(pri.target))
	defer timer.Stop()

	outstanding := 1
	hedgedOnce := false
	var priErr remoteResult
	havePriErr := false
	for {
		select {
		case r := <-ch:
			outstanding--
			if errors.Is(r.err, cluster.ErrPeerTripped) {
				s.breakerFastFails.Add(1)
			}
			if r.err == nil {
				if r.hedged {
					h.won.Add(1)
				}
				if outstanding > 0 {
					// The deferred cancel aborts the loser; FetchRing returns
					// on context death, and the buffered channel absorbs its
					// late result (a reply nobody releases is collected).
					h.abandoned.Add(1)
				}
				return r
			}
			if outstanding > 0 {
				// One arm failed; the other may still win.
				if !r.hedged {
					priErr, havePriErr = r, true
				}
				continue
			}
			if r.hedged && havePriErr {
				// Both failed: surface the primary's error, which is the one
				// the pipeline's fallback logic and logs are written around.
				return priErr
			}
			return r
		case <-timer.C:
			if hedgedOnce || !h.take() {
				// Already hedged, or budget dry: keep waiting on the primary.
				hedgedOnce = true
				continue
			}
			hedgedOnce = true
			if alt == nil {
				// Nowhere else to go: abandon the remote wait and let the
				// caller execute locally, exactly like a false hit but paid
				// at the p95 mark instead of the full fetch timeout.
				h.local.Add(1)
				h.abandoned.Add(1)
				return remoteResult{localFallback: true}
			}
			h.issued.Add(1)
			// At most one hedge per fetch (hedgedOnce), so this in-loop defer
			// runs exactly once: it reaps the hedge arm if it loses.
			actx, acancel := context.WithCancel(ctx)
			defer acancel()
			outstanding++
			launch(actx, *alt, true)
		case <-ctx.Done():
			// The request itself died; the deferred cancels reap both arms.
			return remoteResult{err: ctx.Err(), from: pri.target}
		}
	}
}
