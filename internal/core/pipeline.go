package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cgi"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/fetchpipe"
	"repro/internal/httpmsg"
	"repro/internal/singleflight"
	"repro/internal/stats"
	"repro/internal/wire"
)

// This file implements the paper's Figure 2 as a fetchpipe chain. Each
// decision arrow becomes a stage that either serves the request or defers to
// the next stage:
//
//	local  — directory lookup + local store fetch
//	remote — peer fetch; any remote failure is the paper's false hit and
//	         falls through to origin (local execution)
//	origin — CGI execution + cache insert + broadcast, optionally coalesced
//
// The chain's observable semantics — counters, response headers, broadcast
// traffic — are identical to the pre-refactor inline path when no deadline
// or cancellation fires; the bench/ ledger records the chain's own cost as
// fetchpipe.chain_ns and the glue around it as core.glue_ns.

// errCGIFailed marks origin-stage execution failures; the response layer
// maps it to the 502 the inline path produced.
var errCGIFailed = errors.New("cgi failed")

// buildPipeline assembles the server's fetch chain from its configuration.
func (s *Server) buildPipeline() {
	s.pipe = stats.NewPipelineStats()
	stages := make([]fetchpipe.Stage, 0, 4)
	stages = append(stages, &localStage{s: s})
	if s.swr != nil {
		// Stale-while-revalidate sits right after local: a live entry always
		// wins, but a key an invalidation wave just dropped serves its parked
		// body while the background refresh runs, instead of paying a remote
		// hop or a synchronous execution.
		stages = append(stages, &swrStage{s: s})
	}
	if s.cfg.Mode == Cooperative {
		if s.cfg.RingPlacement {
			stages = append(stages, &ringStage{s: s})
		} else {
			stages = append(stages, &remoteStage{s: s})
		}
	}
	stages = append(stages, &originStage{s: s})
	s.chain = fetchpipe.Chain(s.pipe, stages...)
}

// Fetch resolves a cacheable request key through the server's fetch chain —
// local store, owning peer, CGI origin — without going through the HTTP
// layer. The key must be a canonical cache key (httpmsg.CacheKey);
// the CGI request is reconstructed from it. Library embedders and the
// benchsuite pipeline comparison use this entry point; HTTP requests travel
// the same chain via serveDynamic.
func (s *Server) Fetch(ctx context.Context, key string) (fetchpipe.Result, error) {
	return s.chain.Fetch(ctx, key)
}

// PipelineSnapshot reports the per-stage counters of the fetch chain in
// chain order.
func (s *Server) PipelineSnapshot() []stats.StageSnapshot { return s.pipe.Snapshot() }

// --- directory-resolution hints ---
//
// The first directory-bearing stage of a walk looks the key up once and
// hands the resolution to its successors through the chain's deferral hint,
// so a remote hit (or a miss) costs one directory lookup exactly as the
// inline pre-refactor path did. dirMiss is zero-size, so deferring with it
// never allocates; dirHit boxes the entry once per walk.

// dirHit says "the directory holds this entry" (resolved by an upstream
// stage in this walk).
type dirHit struct{ e directory.Entry }

// dirMiss says "the directory has no live entry for this key".
type dirMiss struct{}

// dirResolve returns the directory resolution for key carried by a non-nil
// hint; unknown hint types fall back to a fresh lookup. Stages test for the
// nil hint (first stage of a walk) themselves and call Lookup directly, so
// the hot first-stage path skips this frame entirely.
func (s *Server) dirResolve(hint any, key string) (directory.Entry, bool) {
	switch h := hint.(type) {
	case dirHit:
		return h.e, true
	case dirMiss:
		return directory.Entry{}, false
	default:
		return s.dir.Lookup(key, s.clk.Now())
	}
}

// dirHintFor packages a resolution for the next stage.
func dirHintFor(e directory.Entry, ok bool) any {
	if !ok {
		return dirMiss{}
	}
	return dirHit{e: e}
}

// fetchStateKey carries per-request fetch state through the chain context.
type fetchStateKey struct{}

// fetchState is what the origin stage needs beyond the cache key.
type fetchState struct {
	creq cgi.Request
	ttl  time.Duration
}

func withFetchState(ctx context.Context, st *fetchState) context.Context {
	return context.WithValue(ctx, fetchStateKey{}, st)
}

// fetchStateFrom returns the request state threaded through ctx by
// serveDynamic, or reconstructs it from the canonical key for direct
// Server.Fetch callers (cacheable keys are always GET with no body, so the
// key carries everything the CGI needs).
func (s *Server) fetchStateFrom(ctx context.Context, key string) fetchState {
	if st, ok := ctx.Value(fetchStateKey{}).(*fetchState); ok {
		return *st
	}
	method, path, query, ok := httpmsg.SplitCacheKey(key)
	if !ok {
		method, path = "GET", key
	}
	_, ttl := s.cfg.Cacheability.Classify(path, query)
	return fetchState{
		creq: cgi.Request{Method: method, Path: path, Query: query},
		ttl:  ttl,
	}
}

// --- local stage ---

// localStage serves hits owned by this node from its store. When the body
// cannot be read the fetch falls through to execution; if the entry is still
// listed (not evicted since the lookup), its body is missing: that is
// counted, and the entry is dropped with its store record (OnRemove).
type localStage struct{ s *Server }

func (st *localStage) Name() string { return "local" }

func (st *localStage) Fetch(ctx context.Context, key string, hint any) (fetchpipe.Result, error) {
	s := st.s
	var e directory.Entry
	var ok bool
	if hint == nil {
		e, ok = s.dir.Lookup(key, s.clk.Now())
	} else {
		e, ok = s.dirResolve(hint, key)
	}
	if !ok || e.Owner != s.dir.Self() {
		if hint == nil {
			hint = dirHintFor(e, ok)
		}
		return fetchpipe.Defer(hint)
	}
	// One read at the listed location: a record evicted, or dropped by a
	// wave, since the lookup still reads back until the log's cleaner
	// retires its segment.
	ct, body, release, err := s.store.ReadAt(key, e.Loc)
	if err != nil {
		if _, ok := s.dir.LookupLocal(key, time.Time{}); ok { // any expiry
			s.logf("local cache body missing for %q: %v", key, err)
			s.missingBodies.Add(1)
			s.dir.RemoveLocal(key)
		}
		return fetchpipe.Defer(dirMiss{})
	}
	// A cache fetch "in effect becomes a file fetch".
	cost := s.cfg.Costs.FileBaseCost + time.Duration(len(body))*s.cfg.Costs.PerByte
	if _, err := s.node.Run(ctx, cost); err != nil {
		if release != nil {
			release()
		}
		return fetchpipe.Result{}, fetchpipe.CtxErr(err)
	}
	s.dir.TouchLocal(key)
	s.counters.LocalHit()
	return fetchpipe.Result{Status: 200, ContentType: ct, Body: body, Source: "local", Release: release}, nil
}

// --- remote stage ---

// remoteStage fetches bodies owned by a peer (cooperative mode only). Every
// remote failure mode — entry gone at the owner (the paper's false hit), no
// link, link lost mid-fetch, fetch timeout — is accounted as a false hit and
// falls through to local execution, per Figure 2. Only the death of the
// request's own context aborts instead of falling back: with the client gone
// or the request deadline passed, executing the CGI locally helps nobody.
type remoteStage struct{ s *Server }

func (st *remoteStage) Name() string { return "remote" }

func (st *remoteStage) Fetch(ctx context.Context, key string, hint any) (fetchpipe.Result, error) {
	s := st.s
	e, ok := s.dirResolve(hint, key)
	if !ok || e.Owner == s.dir.Self() {
		if hint == nil {
			hint = dirHintFor(e, ok)
		}
		return fetchpipe.Defer(hint)
	}
	// In replicate mode there is no second copy to hedge to; a hedge
	// trigger abandons the wait in favour of local execution (alt nil).
	r := s.fetchRemote(ctx, key, remoteCall{target: e.Owner}, nil)
	if r.localFallback {
		s.counters.FalseHit()
		return fetchpipe.Defer(dirMiss{})
	}
	if err := r.err; err != nil {
		if ctx.Err() != nil {
			return fetchpipe.Result{}, fetchpipe.CtxErr(ctx.Err())
		}
		s.logf("remote fetch %q from %d: %v", key, e.Owner,
			fmt.Errorf("%w: %w", fetchpipe.ErrPeerUnavailable, err))
		s.counters.FalseHit()
		return fetchpipe.Defer(dirMiss{})
	}
	reply := r.reply
	if !reply.OK {
		// Remote node deleted the entry; reflect that locally so we stop
		// asking.
		reply.Release()
		s.dir.ApplyDelete(e.Owner, key)
		s.counters.FalseHit()
		return fetchpipe.Defer(dirMiss{})
	}
	// Streaming the fetched body to the client costs the same as serving a
	// local file of that size, plus the request/reply session with the
	// owner; the peer's read/serve cost is charged on the owner's CPU in
	// HandleFetch.
	cost := s.cfg.Costs.RemoteFetchCost + s.cfg.Costs.FileBaseCost +
		time.Duration(len(reply.Body))*s.cfg.Costs.PerByte
	if _, err := s.node.Run(ctx, cost); err != nil {
		reply.Release()
		return fetchpipe.Result{}, fetchpipe.CtxErr(err)
	}
	s.counters.RemoteHit()
	return remoteHit(reply, "remote"), nil
}

// remoteHit packages a fetched reply as a stage result; whoever consumes it
// releases the frame.
func remoteHit(reply *wire.FetchReply, source string) fetchpipe.Result {
	return fetchpipe.Result{Status: 200, ContentType: reply.ContentType, Body: reply.Body,
		Source: source, Release: reply.Release}
}

// --- ring stage ---

// ringStage replaces remoteStage under consistent-hash placement: the
// directory's ring lookup names the owner of every out-of-range key, and
// both hits AND misses route there. A miss executes at the owner
// (FetchExecute), which caches the result — execute-and-announce, but only
// by the one node placement will route future requests to. Owner failures
// fall through to local execution like the paper's false hit, except the
// result is not inserted here (originStage checks ownership) so placement
// stays authoritative.
//
// With adaptive replication on, two refinements: routed reads rotate across
// the key's announced replica holders (falling back to the home owner when a
// holder fails), and a key whose owner just executed it WITHOUT caching gets
// a short-TTL negative hint here so an immediate re-miss executes locally
// instead of paying the hop for another guaranteed owner-side execution.
type ringStage struct{ s *Server }

func (st *ringStage) Name() string { return "ring" }

func (st *ringStage) Fetch(ctx context.Context, key string, hint any) (fetchpipe.Result, error) {
	s := st.s
	e, ok := s.dirResolve(hint, key)
	if !ok || e.Owner == s.dir.Self() {
		// No owner (empty/degenerate ring) or ours: origin executes locally.
		if hint == nil {
			hint = dirHintFor(e, ok)
		}
		return fetchpipe.Defer(hint)
	}
	if s.rep != nil && s.rep.coldHinted(key, s.clk.Now()) {
		// The owner executed this key moments ago without storing it; routing
		// again buys the same execution plus a round trip. Run it locally.
		s.rep.hintSkips.Add(1)
		return fetchpipe.Defer(dirHintFor(e, ok))
	}
	target, viaReplica := s.pickReplicaTarget(e)
	flags := wire.FetchExecute
	if viaReplica {
		// Holders only serve cached bodies; a miss at a holder falls back to
		// the home owner below rather than executing off-placement.
		flags = 0
	}
	r := s.fetchRemote(ctx, key, remoteCall{target: target, flags: flags},
		s.hedgeAltFor(e, target, viaReplica))
	if r.localFallback {
		s.counters.FalseHit()
		return fetchpipe.Defer(dirMiss{})
	}
	if r.hedged {
		// The backup won (or carried the final result): the post-processing
		// below is relative to the node that actually answered.
		target = r.from
		viaReplica = target != e.Owner
	}
	if viaReplica && (r.err != nil || !r.reply.OK) && ctx.Err() == nil {
		// The holder is gone or already dropped its copy: stop routing there
		// and retry once at the home owner, which can always execute.
		r.reply.Release()
		s.dir.RemoveReplica(key, target)
		target, viaReplica = e.Owner, false
		r = s.fetchRemote(ctx, key, remoteCall{target: target, flags: wire.FetchExecute}, nil)
		if r.localFallback {
			s.counters.FalseHit()
			return fetchpipe.Defer(dirMiss{})
		}
	}
	if err := r.err; err != nil {
		if ctx.Err() != nil {
			return fetchpipe.Result{}, fetchpipe.CtxErr(ctx.Err())
		}
		s.logf("ring fetch %q from %d: %v", key, target,
			fmt.Errorf("%w: %w", fetchpipe.ErrPeerUnavailable, err))
		s.counters.FalseHit()
		return fetchpipe.Defer(dirMiss{})
	}
	reply := r.reply
	if !reply.OK {
		// The owner could neither serve nor execute; run it ourselves.
		reply.Release()
		s.counters.FalseHit()
		return fetchpipe.Defer(dirMiss{})
	}
	cost := s.cfg.Costs.RemoteFetchCost + s.cfg.Costs.FileBaseCost +
		time.Duration(len(reply.Body))*s.cfg.Costs.PerByte
	if _, err := s.node.Run(ctx, cost); err != nil {
		reply.Release()
		return fetchpipe.Result{}, fetchpipe.CtxErr(err)
	}
	if reply.Executed {
		// The owner ran the CGI: a miss for the cluster (the owner itself
		// counts only the insert), served through the owner so the next
		// request anywhere is a remote hit.
		if s.rep != nil && !reply.Stored {
			s.rep.noteCold(key, s.clk.Now())
		}
		s.counters.Miss()
		return remoteHit(reply, "owner"), nil
	}
	s.counters.RemoteHit()
	source := "remote"
	if viaReplica {
		source = "replica"
	}
	return remoteHit(reply, source), nil
}

// --- origin stage ---

// originStage is the chain's terminal: execute the CGI, tee the result into
// the cache, broadcast the insert — optionally coalescing concurrent
// identical misses into one execution.
type originStage struct{ s *Server }

func (st *originStage) Name() string { return "origin" }

func (st *originStage) Fetch(ctx context.Context, key string, _ any) (fetchpipe.Result, error) {
	s := st.s
	fs := s.fetchStateFrom(ctx, key)
	if s.cfg.CoalesceMisses {
		return s.coalescedOrigin(ctx, key, fs)
	}
	s.trackInflight(key, +1)
	defer s.trackInflight(key, -1)

	// Stamp the flight with the invalidation apply-version before executing:
	// a wave that passes mid-flight supersedes the result (insertResult
	// discards it).
	startVer := s.inv.Version()
	res, execTime, err := s.execCGI(ctx, fs.creq)
	if err != nil {
		// The CGI return value is checked; failed executions are discarded,
		// never cached.
		s.counters.Miss()
		return fetchpipe.Result{}, originErr(err)
	}
	s.counters.Miss()

	// Insert only successful, sufficiently long executions — and, under ring
	// placement, only keys this node owns: a fallback execution after an
	// owner failure must not plant an entry placement will never route to.
	if res.Status == 200 && s.ownsKey(key) && s.cfg.Cacheability.ShouldInsert(execTime, int64(len(res.Body))) {
		s.insertResult(key, res, execTime, fs.ttl, startVer)
	}
	return fetchpipe.Result{Status: res.Status, ContentType: res.ContentType, Body: res.Body}, nil
}

// coalescedOrigin handles a cacheable miss with miss coalescing on: the
// first request for a key executes the CGI (and inserts the result exactly
// as the uncoalesced path does); concurrent duplicates block until that
// execution finishes and share its result, paying only the file-fetch-
// equivalent streaming cost — as if the entry had already been cached.
//
// The shared execution runs detached from any single request's context
// (clients come and go; survivors still need the result) but is bounded by
// its own RequestTimeout window when one is configured. A waiter whose
// context dies detaches without killing the flight and is counted under
// CoalescedAbandoned.
func (s *Server) coalescedOrigin(ctx context.Context, key string, fs fetchState) (fetchpipe.Result, error) {
	v, err, shared := s.flight.DoCtx(ctx, key, func() (execShare, error) {
		return s.execDetached(ctx, key, fs), nil
	})
	if errors.Is(err, singleflight.ErrDetached) {
		// This caller's client is gone (or its deadline passed); the flight
		// continues for the survivors.
		s.counters.CoalescedAbandoned()
		return fetchpipe.Result{}, fetchpipe.CtxErr(ctx.Err())
	}
	if v.err != nil {
		// Failed executions are never cached; every coalesced caller sees
		// the shared failure as its own miss.
		s.counters.Miss()
		return fetchpipe.Result{}, originErr(v.err)
	}
	if shared {
		s.counters.Coalesced()
		// Streaming the shared body to this client costs the same as
		// serving it from the local cache.
		cost := s.cfg.Costs.FileBaseCost + time.Duration(len(v.res.Body))*s.cfg.Costs.PerByte
		if _, err := s.node.Run(ctx, cost); err != nil {
			return fetchpipe.Result{}, fetchpipe.CtxErr(err)
		}
		return fetchpipe.Result{Status: v.res.Status, ContentType: v.res.ContentType,
			Body: v.res.Body, Source: "coalesced"}, nil
	}
	s.counters.Miss()
	return fetchpipe.Result{Status: v.res.Status, ContentType: v.res.ContentType, Body: v.res.Body}, nil
}

// execDetached executes key's CGI detached from ctx's cancellation, bounded
// by RequestTimeout when one is configured, and inserts a storable result.
// Inside a miss flight the insert lands before any waiter is released (or a
// new request becomes a fresh leader), so no duplicate execution can slip in
// between execution and insertion.
func (s *Server) execDetached(ctx context.Context, key string, fs fetchState) execShare {
	ctx = context.WithoutCancel(ctx)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	startVer := s.inv.Version()
	res, execTime, err := s.execCGI(ctx, fs.creq)
	v := execShare{res: res, execTime: execTime, err: err}
	if err == nil && res.Status == 200 && s.ownsKey(key) &&
		s.cfg.Cacheability.ShouldInsert(execTime, int64(len(res.Body))) {
		s.insertResult(key, res, execTime, fs.ttl, startVer)
		v.stored = true
	}
	return v
}

// originErr classifies an origin-stage execution failure: cancellations and
// node shutdown keep their taxonomy; everything else is a CGI failure the
// response layer maps to 502.
func originErr(err error) error {
	if fetchpipe.IsCancellation(err) {
		return fetchpipe.CtxErr(err)
	}
	if errors.Is(err, cpu.ErrStopped) {
		return err
	}
	return fmt.Errorf("%w: %w", errCGIFailed, err)
}

// fetchErrorResponse maps a chain failure onto an HTTP response, preserving
// the inline path's status codes: CGI failures are 502, node shutdown is
// 503, and the new cancellation outcomes map to 503 (canceled) and 504
// (deadline).
func fetchErrorResponse(err error) *httpmsg.Response {
	switch {
	case errors.Is(err, cpu.ErrStopped):
		return errorResponse(503, "server shutting down")
	case errors.Is(err, fetchpipe.ErrDeadline):
		return errorResponse(504, "request deadline exceeded")
	case errors.Is(err, fetchpipe.ErrCanceled):
		return errorResponse(503, "request canceled")
	case errors.Is(err, errCGIFailed):
		return errorResponse(502, err.Error())
	default:
		return errorResponse(502, err.Error())
	}
}
