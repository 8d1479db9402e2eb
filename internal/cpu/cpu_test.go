package cpu

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestRunCompletesAndAccounts(t *testing.T) {
	n := NewNode(1, nil)
	queued, err := n.Run(context.Background(), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if queued > 100*time.Millisecond {
		t.Fatalf("queued = %v on idle node, want ~0", queued)
	}
	busy, jobs := n.Usage()
	if jobs != 1 {
		t.Fatalf("jobs = %d, want 1", jobs)
	}
	if busy != time.Millisecond {
		t.Fatalf("busy = %v, want 1ms", busy)
	}
}

func TestCoresDefault(t *testing.T) {
	if got := NewNode(0, nil).Cores(); got != 1 {
		t.Fatalf("Cores() = %d, want 1 for cores=0", got)
	}
	if got := NewNode(4, nil).Cores(); got != 4 {
		t.Fatalf("Cores() = %d, want 4", got)
	}
}

func TestSingleCoreSerializes(t *testing.T) {
	// With one core and two 20ms jobs, total elapsed must be >= 40ms.
	n := NewNode(1, nil)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Run(context.Background(), 20*time.Millisecond); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 40ms (jobs must serialize on one core)", elapsed)
	}
}

func TestTwoCoresOverlap(t *testing.T) {
	// With two cores, two 30ms jobs should overlap and finish well under 60ms.
	n := NewNode(2, nil)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Run(context.Background(), 30*time.Millisecond); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed >= 55*time.Millisecond {
		t.Fatalf("elapsed = %v, want < 55ms (jobs should run in parallel)", elapsed)
	}
}

func TestRunReportsQueueing(t *testing.T) {
	n := NewNode(1, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.Run(context.Background(), 30*time.Millisecond)
	}()
	time.Sleep(5 * time.Millisecond) // let the first job claim the core
	queued, err := n.Run(context.Background(), 0)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if queued < 10*time.Millisecond {
		t.Fatalf("queued = %v, want >= 10ms behind a 30ms job", queued)
	}
}

func TestRunCancelledWhileQueued(t *testing.T) {
	n := NewNode(1, nil)
	release := make(chan struct{})
	go func() {
		n.Run(context.Background(), 200*time.Millisecond)
		close(release)
	}()
	time.Sleep(5 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := n.Run(ctx, time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	<-release
}

func TestStopRejectsNewWork(t *testing.T) {
	n := NewNode(1, nil)
	n.Stop()
	if _, err := n.Run(context.Background(), time.Millisecond); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestChargeSleeps(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	n := NewNode(1, fake)
	done := make(chan struct{})
	go func() {
		n.Charge(time.Second)
		close(done)
	}()
	for i := 0; fake.Waiters() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Charge returned before clock advanced")
	default:
	}
	fake.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Charge did not return after advance")
	}
}

func TestChargeZeroIsFree(t *testing.T) {
	n := NewNode(1, clock.NewFake(time.Unix(0, 0)))
	done := make(chan struct{})
	go func() {
		n.Charge(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Charge(0) blocked")
	}
}

func TestVirtualTimeQueueingExactWithFakeClock(t *testing.T) {
	// With a fake clock, the virtual-time queue is fully deterministic:
	// three sequential submissions to one core reserve back-to-back windows,
	// and the reported queueing time equals the backlog exactly.
	fake := clock.NewFake(time.Unix(0, 0))
	n := NewNode(1, fake)

	type result struct {
		queued time.Duration
		err    error
	}
	results := make([]chan result, 3)
	for i := range results {
		results[i] = make(chan result, 1)
	}
	// Submit strictly in order: each job reserves 10s of core time.
	for i := 0; i < 3; i++ {
		i := i
		done := make(chan struct{})
		go func() {
			close(done)
			q, err := n.Run(context.Background(), 10*time.Second)
			results[i] <- result{q, err}
		}()
		<-done
		// Wait until the goroutine has parked on the fake clock.
		for j := 0; fake.Waiters() != i+1 && j < 1000; j++ {
			time.Sleep(time.Millisecond)
		}
		if fake.Waiters() != i+1 {
			t.Fatalf("job %d never parked on the clock", i)
		}
	}

	fake.Advance(30 * time.Second)
	want := []time.Duration{0, 10 * time.Second, 20 * time.Second}
	for i, ch := range results {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("job %d: %v", i, r.err)
			}
			if r.queued != want[i] {
				t.Fatalf("job %d queued = %v, want %v", i, r.queued, want[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d never completed", i)
		}
	}
	busy, jobs := n.Usage()
	if busy != 30*time.Second || jobs != 3 {
		t.Fatalf("usage = %v/%d, want 30s/3", busy, jobs)
	}
}

func TestEarliestFreeCoreChosen(t *testing.T) {
	// Two cores, three jobs: the third job must queue behind the shorter of
	// the two reservations.
	fake := clock.NewFake(time.Unix(0, 0))
	n := NewNode(2, fake)
	submit := func(d time.Duration) chan time.Duration {
		ch := make(chan time.Duration, 1)
		started := make(chan struct{})
		go func() {
			close(started)
			q, _ := n.Run(context.Background(), d)
			ch <- q
		}()
		<-started
		return ch
	}
	a := submit(10 * time.Second)
	for i := 0; fake.Waiters() != 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	b := submit(4 * time.Second)
	for i := 0; fake.Waiters() != 2 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	c := submit(1 * time.Second)
	for i := 0; fake.Waiters() != 3 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	fake.Advance(20 * time.Second)
	if q := <-a; q != 0 {
		t.Fatalf("job a queued %v, want 0", q)
	}
	if q := <-b; q != 0 {
		t.Fatalf("job b queued %v, want 0", q)
	}
	// Job c waits for the 4s core, not the 10s one.
	if q := <-c; q != 4*time.Second {
		t.Fatalf("job c queued %v, want 4s", q)
	}
}

func TestManyJobsThroughput(t *testing.T) {
	n := NewNode(4, nil)
	var wg sync.WaitGroup
	const jobs = 40
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Run(context.Background(), time.Millisecond)
		}()
	}
	wg.Wait()
	_, count := n.Usage()
	if count != jobs {
		t.Fatalf("jobs = %d, want %d", count, jobs)
	}
}

// errOnlyCtx is a context whose Done must not be asked for.
type errOnlyCtx struct {
	context.Context
	t   *testing.T
	err error
}

func (c errOnlyCtx) Done() <-chan struct{} {
	c.t.Error("Run asked the context for Done")
	return c.Context.Done()
}

func (c errOnlyCtx) Err() error { return c.err }

// afterCounter counts the timers a clock is asked for.
type afterCounter struct {
	clock.Clock
	afters int
}

func (c *afterCounter) After(d time.Duration) <-chan time.Time {
	c.afters++
	return c.Clock.After(d)
}

// TestRunBelowTimerResolution: a reservation whose wait no timer can deliver
// is booked like any other but costs no timer, no Done channel and no park;
// the context is still consulted through Err. Real and fake clock.
func TestRunBelowTimerResolution(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	for name, inner := range map[string]clock.Clock{"real": clock.Real{}, "fake": fake} {
		clk := &afterCounter{Clock: inner}
		n := NewNode(1, clk)
		ctx := errOnlyCtx{Context: context.Background(), t: t}
		const jobs = 100
		for i := 0; i < jobs; i++ {
			if _, err := n.Run(ctx, time.Nanosecond); err != nil {
				t.Fatalf("%s clock, job %d: %v", name, i, err)
			}
		}
		if busy, got := n.Usage(); busy != jobs*time.Nanosecond || got != jobs {
			t.Fatalf("%s clock: booked %v over %d jobs, want %v over %d", name, busy, got, jobs*time.Nanosecond, jobs)
		}
		ctx.err = context.Canceled
		if _, err := n.Run(ctx, time.Nanosecond); err != context.Canceled {
			t.Fatalf("%s clock: canceled context: err = %v", name, err)
		}
		if clk.afters != 0 {
			t.Fatalf("%s clock: %d timers for waits below %v", name, clk.afters, minWait)
		}
		// At and above the resolution Run sleeps as ever.
		done := make(chan error, 1)
		go func() {
			_, err := n.Run(context.Background(), 50*time.Microsecond)
			done <- err
		}()
		if inner == fake {
			for fake.Waiters() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			select {
			case err := <-done:
				t.Fatalf("fake clock: a 50µs job returned (%v) before the clock moved", err)
			default:
			}
			fake.Advance(time.Millisecond)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s clock: 50µs job: %v", name, err)
		}
		if clk.afters != 1 {
			t.Fatalf("%s clock: %d timers for one 50µs job", name, clk.afters)
		}
	}
}
