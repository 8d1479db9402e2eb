package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/httpmsg"
)

// Adaptive load shedding (Config.Shed, on in neither profile).
//
// The CPU model queues without bound: under a flash crowd every admitted
// execution pushes the queue delay further past RequestTimeout, clients
// abandon, and — because a cancelled job's reservation is not rolled back,
// like a killed CGI process — the node ends up burning its capacity on
// work nobody will receive. The shed controller watches the queue delay
// the next request would pay (cpu.Node.QueueDelay) and refuses
// cheap-to-refuse work first:
//
//	level 1 (queue > low watermark):  refuse peer-routed executions
//	         (FetchExecute) — the requester can execute locally, spreading
//	         the load instead of concentrating it here.
//	level 2 (queue > high watermark): additionally refuse plain peer
//	         serves, and refuse local client requests that would execute —
//	         503 + Retry-After + X-Swala-Shed, degraded to a parked SWR
//	         stale body when one exists. Cache hits still serve: they are
//	         the cheap work the node stays good at.
//
// Levels drop only when the queue falls below half their entry watermark,
// so the controller does not flap around a threshold.

// Shed class levels (see shedState).
const (
	shedLevelExecute = 1 // refuse peer-routed executions
	shedLevelServe   = 2 // also refuse peer serves and local would-executes
)

// shedState is the watermark controller. level is recomputed on demand
// from the instantaneous queue delay — the CPU model is virtual-time, so
// the delay is exact, not sampled.
type shedState struct {
	low, high time.Duration
	level     atomic.Int32

	shedRemote atomic.Uint64 // peer work refused (executes and serves)
	shedLocal  atomic.Uint64 // local requests refused with 503
	shedStale  atomic.Uint64 // local requests degraded to a stale body
}

func newShedState(low, high time.Duration) *shedState {
	return &shedState{low: low, high: high}
}

// levelFor applies the hysteresis: rise as soon as a watermark is crossed,
// fall only below half the entry watermark.
func (sh *shedState) levelFor(q time.Duration) int {
	for {
		cur := sh.level.Load()
		next := cur
		switch {
		case q >= sh.high:
			next = shedLevelServe
		case q >= sh.low:
			if cur < shedLevelExecute {
				next = shedLevelExecute
			} else if cur == shedLevelServe && q < sh.high/2 {
				next = shedLevelExecute
			}
		default:
			if cur == shedLevelServe && q >= sh.high/2 {
				// Still draining; hold the level.
			} else if cur >= shedLevelExecute && q >= sh.low/2 {
				next = shedLevelExecute
			} else {
				next = 0
			}
		}
		if next == cur || sh.level.CompareAndSwap(cur, next) {
			return int(next)
		}
	}
}

// shedLevel is the server's current shed level (0 with shedding off).
func (s *Server) shedLevel() int {
	if s.shed == nil {
		return 0
	}
	return s.shed.levelFor(s.node.QueueDelay())
}

// shedResponse builds the 503 for a shed local request. Retry-After is the
// current queue delay rounded up — an honest estimate of when capacity
// frees — and X-Swala-Shed names the shed class for client-side accounting.
func (s *Server) shedResponse() *httpmsg.Response {
	s.shed.shedLocal.Add(1)
	resp := errorResponse(503, "overloaded, retry later")
	secs := int(s.node.QueueDelay()/time.Second) + 1
	resp.Header.Set("Retry-After", strconv.Itoa(secs))
	resp.Header.Set("X-Swala-Shed", "local")
	return resp
}

// shedStaleResponse serves a parked SWR body as the degraded tier: the
// client gets bytes that were valid moments ago instead of an error, and
// the node pays only the (cheap, unqueued) serve.
func (s *Server) shedStaleResponse(ct string, body []byte) *httpmsg.Response {
	s.shed.shedStale.Add(1)
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", ct)
	resp.Header.Set("X-Swala-Cache", "stale-overload")
	resp.Body = body
	return resp
}
