// Package fetchpipe defines the layered fetch chain the Swala server runs a
// cacheable dynamic request through — the paper's Figure 2 control flow
// (cached locally? → fetch from the owning peer → execute the CGI origin)
// expressed as composable stages instead of nested branches.
//
// A Stage either serves a fetch itself or defers to the next stage in the
// chain, so the decision arrows of Figure 2 become stage boundaries: the
// local stage serves local hits, the remote stage
// serves peer hits (and turns every remote failure mode into a fall-through,
// which is exactly the paper's false-hit → local-execution rule), and the
// origin stage executes the CGI. The chain threads a context.Context through
// every stage so an end-to-end deadline or a client disconnect cancels
// in-flight work at whichever layer it currently sits.
//
// The chain records per-stage attempt/served/latency/cancellation counters
// through internal/stats, so the /swala-status page can show where requests
// are spending time and where cancellations strike.
package fetchpipe

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/stats"
)

// Result is the outcome of a pipeline fetch: the bytes to serve plus where
// they came from.
type Result struct {
	// Status is the HTTP status to serve (200 for cache hits; origin
	// executions propagate the CGI's own status).
	Status int
	// ContentType labels the body.
	ContentType string
	// Body is the content to serve.
	Body []byte
	// Source identifies how the result was produced, using the values the
	// server exposes in the X-Swala-Cache response header: "local", "remote",
	// "coalesced", "stale-revalidate" (an invalidated body served during its
	// stale-while-revalidate window), or "" for a plain origin execution.
	Source string
	// Release, when not nil, ends the lease Body is read under (package lease):
	// the consumer calls it once Body is written out, and copies to keep.
	Release func()

	// hint carries per-walk scratch from a deferring stage to its successor
	// (see Defer). It rides inside Result so deferral needs no allocation;
	// the chain driver strips it before the Result can reach a caller.
	hint any
}

// Error taxonomy. Every failure a stage returns wraps one of these, so the
// server (and tests) can classify outcomes with errors.Is regardless of which
// layer produced them.
var (
	// ErrCanceled marks work abandoned because the request's context was
	// canceled (client disconnect, server shutdown).
	ErrCanceled = errors.New("fetchpipe: request canceled")
	// ErrDeadline marks work abandoned because the request's deadline
	// (core.Config.RequestTimeout) expired.
	ErrDeadline = errors.New("fetchpipe: request deadline exceeded")
	// ErrPeerUnavailable marks a remote fetch that failed for any
	// peer-side reason — no link, link lost, fetch timeout. The remote stage
	// converts all of these into the paper's false-hit fallback.
	ErrPeerUnavailable = errors.New("fetchpipe: peer unavailable")
	// ErrExhausted is returned when every stage deferred and no stage could
	// produce a result (the chain was built without a terminal origin stage).
	ErrExhausted = errors.New("fetchpipe: no stage could serve the fetch")
)

// CtxErr wraps a context error in the pipeline taxonomy: context.Canceled
// becomes ErrCanceled and context.DeadlineExceeded becomes ErrDeadline, with
// the original error retained for errors.Is. Non-context errors are returned
// unchanged.
func CtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		return err
	}
}

// IsCancellation reports whether err is a cancellation or deadline failure
// (of either the taxonomy or raw context flavour).
func IsCancellation(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Fetcher resolves a cache key to a result. The server's whole dynamic-
// request path behind the cacheability check is one Fetcher built by Chain.
type Fetcher interface {
	Fetch(ctx context.Context, key string) (Result, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(ctx context.Context, key string) (Result, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(ctx context.Context, key string) (Result, error) { return f(ctx, key) }

// Stage is one layer of the chain. A stage either serves the key itself or
// defers by returning Defer's outcome, which moves the walk to the next
// stage in the chain.
type Stage interface {
	// Name labels the stage in per-stage statistics ("local", "remote",
	// "origin").
	Name() string
	// Fetch serves the key or returns Defer(...) to pass it on. hint is
	// per-walk scratch handed over by the upstream deferring stage — nil for
	// the first stage and for plain Defer(nil) deferrals. The hint's type
	// and meaning are a private contract between the stages of one chain;
	// the driver only transports it.
	Fetch(ctx context.Context, key string, hint any) (Result, error)
}

// errDeferred is the internal deferral signal: Defer returns it and the
// chain driver consumes it to advance. It never escapes a chain Fetch call.
var errDeferred = errors.New("fetchpipe: stage deferred")

// Defer is how a stage passes the fetch to the next stage in the chain:
// return its outcome from Stage.Fetch. hint (which may be nil) is delivered
// to the next stage, letting one stage share derived per-fetch state — e.g.
// a directory resolution — instead of every stage recomputing it.
func Defer(hint any) (Result, error) {
	return Result{hint: hint}, errDeferred
}

// chained is the driver built by Chain: it walks the stages in order,
// advancing while each one defers. Running the chain as a flat loop (rather
// than nested wrappers) keeps the per-fetch cost to interface dispatch plus
// one atomic add on a served attempt (two on other outcomes) — nothing is
// allocated per fetch and the clock is only read on sampled attempts.
type chained struct {
	links []chainLink
}

type chainLink struct {
	stage Stage
	sc    *stats.StageStats // nil when the chain is uninstrumented
}

// Fetch implements Fetcher by running the stages in order until one serves
// or fails.
func (c *chained) Fetch(ctx context.Context, key string) (Result, error) {
	var hint any
	for i := range c.links {
		ln := &c.links[i]
		var start time.Time
		sampled := false
		if ln.sc != nil {
			if sampled = ln.sc.StartAttempt(); sampled {
				start = time.Now()
			}
		}
		res, err := ln.stage.Fetch(ctx, key, hint)
		if err == nil {
			// Served — the hot exit. The serve count is derived from the
			// attempt count, so no counter write is needed here.
			if sampled {
				ln.sc.ObserveTime(time.Since(start))
			}
			return res, nil
		}
		if ln.sc != nil {
			if sampled {
				ln.sc.ObserveTime(time.Since(start))
			}
			switch {
			case err == errDeferred:
				ln.sc.Outcome(stats.StageDeferred)
			case IsCancellation(err):
				ln.sc.Outcome(stats.StageCanceled)
			default:
				ln.sc.Outcome(stats.StageFailed)
			}
		}
		if err == errDeferred {
			hint = res.hint
			continue
		}
		return res, err
	}
	return Result{}, fmt.Errorf("%w: %q", ErrExhausted, key)
}

// Chain composes stages into a single Fetcher, first stage outermost. Each
// stage is instrumented into pipe (which may be nil to skip instrumentation):
// per stage, the chain records attempts, terminal serves, deferrals,
// failures, cancellations, and a sampled measurement of the time spent inside
// the stage itself (a deferring stage's sample covers only its own work — the
// driver runs downstream stages after it returns, not inside it).
func Chain(pipe *stats.PipelineStats, stages ...Stage) Fetcher {
	c := &chained{links: make([]chainLink, 0, len(stages))}
	for _, st := range stages {
		ln := chainLink{stage: st}
		if pipe != nil {
			ln.sc = pipe.Stage(st.Name())
		}
		c.links = append(c.links, ln)
	}
	return c
}
