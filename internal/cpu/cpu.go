// Package cpu models the bounded processing capacity of a server node. The
// paper's central premise is that for dynamic-content workloads the CPU —
// not the network — is the bottleneck: a node with one processor can only
// execute one CGI program at a time, and concurrent requests queue. This
// package reproduces that contention so that the reproduction's response
// times have the same queueing shape as the paper's Sun Ultra testbed, even
// though the "work" is simulated.
//
// The CPU is a virtual-time queue: each core tracks the instant it next
// becomes free; a job reserves the earliest core, computing its start as
// max(now, core free time) and advancing the core's free time by its service
// duration, then sleeps until its absolute finish instant. Queueing is
// therefore analytically exact — sleep granularity adds only a small
// constant to each response and never compounds through the queue — and the
// simulation consumes no host CPU, so many simulated nodes can share a small
// machine without distorting each other's measurements.
package cpu

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
)

// minWait is the shortest wait Run sleeps for. A timer cannot deliver less,
// and a cost model of a nanosecond (how a caller switches the simulation off
// without zeroing the model) must not cost a timer, a channel and a park per
// job. The paper-profile costs start at 50 µs.
const minWait = time.Microsecond

// ErrStopped is returned when work is submitted to a stopped Node.
var ErrStopped = errors.New("cpu: node stopped")

// Node is a bounded-capacity CPU. All methods are safe for concurrent use.
type Node struct {
	clk clock.Clock

	mu       sync.Mutex
	nextFree []time.Time // per-core instant the core becomes free
	stopped  bool
	busy     time.Duration // total core-occupied time, for utilization reports
	jobs     int64
}

// NewNode creates a CPU with the given number of cores. A nil clk uses the
// real clock. cores < 1 is treated as 1.
func NewNode(cores int, clk clock.Clock) *Node {
	if cores < 1 {
		cores = 1
	}
	if clk == nil {
		clk = clock.Real{}
	}
	return &Node{clk: clk, nextFree: make([]time.Time, cores)}
}

// Cores reports the node's core count.
func (n *Node) Cores() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.nextFree)
}

// Run occupies one core for the given service time, queueing behind other
// work if all cores are busy. It returns the time spent queueing (the gap
// between submission and the core becoming available). Run returns
// ctx.Err() if the context is cancelled while waiting and ErrStopped if the
// node has been stopped. A cancelled job's reservation is not rolled back —
// like a killed CGI process, its slot is wasted. A wait shorter than any timer
// delivers (under minWait) is booked but not slept: Run returns at once with
// ctx.Err(), and never asks ctx for its Done channel.
func (n *Node) Run(ctx context.Context, service time.Duration) (queued time.Duration, err error) {
	if service < 0 {
		service = 0
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, ErrStopped
	}
	now := n.clk.Now()
	// Earliest-free core.
	core := 0
	for i := 1; i < len(n.nextFree); i++ {
		if n.nextFree[i].Before(n.nextFree[core]) {
			core = i
		}
	}
	start := n.nextFree[core]
	if start.Before(now) {
		start = now
	}
	finish := start.Add(service)
	n.nextFree[core] = finish
	n.busy += service
	n.jobs++
	n.mu.Unlock()

	queued = start.Sub(now)
	wait := finish.Sub(now)
	if wait <= 0 {
		return queued, nil
	}
	if wait < minWait {
		return queued, ctx.Err()
	}
	select {
	case <-n.clk.After(wait):
		return queued, nil
	case <-ctx.Done():
		return queued, ctx.Err()
	}
}

// QueueDelay reports how long a job submitted now would wait before
// starting: the gap until the earliest core frees up (zero when any core
// is idle). This is the overload signal the load-shedding controller
// watches — it is the exact queueing delay the virtual-time model will
// charge the next admitted request, including reservations wasted by
// cancelled jobs.
func (n *Node) QueueDelay() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || len(n.nextFree) == 0 {
		return 0
	}
	now := n.clk.Now()
	earliest := n.nextFree[0]
	for _, t := range n.nextFree[1:] {
		if t.Before(earliest) {
			earliest = t
		}
	}
	if d := earliest.Sub(now); d > 0 {
		return d
	}
	return 0
}

// Charge models a cheap operation that consumes wall-clock time without
// occupying a core.
func (n *Node) Charge(cost time.Duration) {
	if cost > 0 {
		n.clk.Sleep(cost)
	}
}

// Stop prevents further Run calls from being admitted. In-flight waits
// complete normally.
func (n *Node) Stop() {
	n.mu.Lock()
	n.stopped = true
	n.mu.Unlock()
}

// Usage reports the cumulative core-busy time and admitted job count.
func (n *Node) Usage() (busy time.Duration, jobs int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.busy, n.jobs
}
