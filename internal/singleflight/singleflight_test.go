package singleflight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSequentialCallsEachExecute(t *testing.T) {
	var g Group[int]
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		v, err, shared := g.Do("k", func() (int, error) {
			execs.Add(1)
			return 42, nil
		})
		if err != nil || v != 42 || shared {
			t.Fatalf("Do = %d, %v, shared=%v", v, err, shared)
		}
	}
	if n := execs.Load(); n != 3 {
		t.Fatalf("execs = %d, want 3 (no in-flight overlap, no suppression)", n)
	}
}

func TestConcurrentDuplicatesShareOneExecution(t *testing.T) {
	var g Group[string]
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const dups = 16
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	leaderRunning := func() (string, error) {
		execs.Add(1)
		close(started)
		<-release
		return "result", nil
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, _ := g.Do("k", leaderRunning)
		if v != "result" || err != nil {
			t.Errorf("leader Do = %q, %v", v, err)
		}
	}()
	<-started

	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do("k", func() (string, error) {
				execs.Add(1)
				return "duplicate execution", nil
			})
			if v != "result" || err != nil {
				t.Errorf("waiter Do = %q, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}

	// Let the waiters enqueue, then release the leader.
	deadline := time.Now().Add(2 * time.Second)
	for g.waiterCount("k") < dups {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters enqueued", g.waiterCount("k"))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("execs = %d, want 1", n)
	}
	if n := sharedCount.Load(); n != dups {
		t.Fatalf("shared results = %d, want %d", n, dups)
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after completion", g.InFlight())
	}
}

func TestErrorsAreShared(t *testing.T) {
	var g Group[int]
	errBoom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, _ := g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, errBoom
		})
		if !errors.Is(err, errBoom) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-started

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, shared := g.Do("k", func() (int, error) { return 7, nil })
		if !errors.Is(err, errBoom) || !shared {
			t.Errorf("waiter err = %v shared = %v, want shared boom", err, shared)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for g.waiterCount("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
}

func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	var g Group[int]
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(string(rune('a'+i)), func() (int, error) {
				execs.Add(1)
				time.Sleep(5 * time.Millisecond)
				return i, nil
			})
		}(i)
	}
	wg.Wait()
	if n := execs.Load(); n != 8 {
		t.Fatalf("execs = %d, want 8 (distinct keys must all run)", n)
	}
}

// waiterCount exposes the waiter count for tests.
func (g *Group[V]) waiterCount(key string) int {
	s := g.stripeFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.calls[key]; ok {
		return c.waiters
	}
	return 0
}

// TestDoCtxCanceledWaiterDetaches: a waiter whose context dies returns
// promptly with ErrDetached while the flight completes for the survivors.
func TestDoCtxCanceledWaiterDetaches(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	started := make(chan struct{})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err, shared := g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		if err != nil || v != 7 || shared {
			t.Errorf("leader Do = %d, %v, shared=%v", v, err, shared)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	detached := make(chan error, 1)
	go func() {
		_, err, shared := g.DoCtx(ctx, "k", func() (int, error) {
			t.Error("duplicate execution")
			return 0, nil
		})
		if !shared {
			t.Error("waiter not marked shared")
		}
		detached <- err
	}()
	// Let the waiter register, then cancel only its context.
	waitForWaiters(t, &g, "k", 1)
	cancel()

	select {
	case err := <-detached:
		if !errors.Is(err, ErrDetached) || !errors.Is(err, context.Canceled) {
			t.Fatalf("detach err = %v, want ErrDetached wrapping context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not return promptly")
	}

	// The flight must still be alive and complete for the leader.
	if g.InFlight() != 1 {
		t.Fatalf("InFlight = %d after waiter detach, want 1", g.InFlight())
	}
	close(release)
	<-leaderDone
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after completion", g.InFlight())
	}
}

// TestDoCtxDetachedInitiator: even the caller that started the execution can
// detach; the function still runs to completion so survivors (and the cache
// insert it performs) are unaffected.
func TestDoCtxDetachedInitiator(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	completed := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	started := make(chan struct{})
	initiatorDone := make(chan error, 1)
	go func() {
		_, err, shared := g.DoCtx(ctx, "k", func() (int, error) {
			close(started)
			<-release
			close(completed)
			return 1, nil
		})
		if shared {
			t.Error("initiator marked shared")
		}
		initiatorDone <- err
	}()
	<-started
	cancel()
	err := <-initiatorDone
	if !errors.Is(err, ErrDetached) {
		t.Fatalf("initiator detach err = %v", err)
	}
	// fn keeps running after the initiator left.
	close(release)
	select {
	case <-completed:
	case <-time.After(2 * time.Second):
		t.Fatal("execution did not complete after initiator detached")
	}
}

// TestDoCtxCompletedFlight: with a live context DoCtx behaves exactly like
// Do, including result sharing.
func TestDoCtxCompletedFlight(t *testing.T) {
	var g Group[int]
	v, err, shared := g.DoCtx(context.Background(), "k", func() (int, error) { return 9, nil })
	if v != 9 || err != nil || shared {
		t.Fatalf("DoCtx = %d, %v, shared=%v", v, err, shared)
	}
	// A pre-canceled context still detaches rather than executing... the
	// execution is spawned regardless (it may already have side effects
	// underway), but this caller must not block.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, _ = g.DoCtx(ctx, "k2", func() (int, error) { return 0, nil })
	if err != nil && !errors.Is(err, ErrDetached) {
		t.Fatalf("pre-canceled DoCtx err = %v", err)
	}
}

// waitForWaiters polls until key has n registered waiters.
func waitForWaiters(t *testing.T, g *Group[int], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if g.waiterCount(key) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("waiters for %q never reached %d", key, n)
}

// TestStripedManyKeysConcurrent hammers the striped map with many distinct
// keys from many goroutines: coalescing must stay per-key exact (one
// execution per key per round) while stripes are exercised in parallel.
func TestStripedManyKeysConcurrent(t *testing.T) {
	var g Group[int]
	const keys = 128 // 4x the stripe count, every stripe occupied
	const callersPerKey = 4
	var execs atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		for c := 0; c < callersPerKey; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.Do(key, func() (int, error) {
					execs.Add(1)
					<-release // hold every flight open so duplicates pile up
					return 0, nil
				})
			}()
		}
	}
	// Wait until every caller has joined — each key's flight registered with
	// all its duplicates waiting on it — then let them finish.
	joined := func() (calls, waiters int) {
		for i := range g.stripes {
			st := &g.stripes[i]
			st.mu.Lock()
			for _, c := range st.calls {
				calls++
				waiters += c.waiters
			}
			st.mu.Unlock()
		}
		return calls, waiters
	}
	const wantWaiters = keys * (callersPerKey - 1)
	deadline := time.Now().Add(2 * time.Second)
	for calls, waiters := joined(); calls < keys || waiters < wantWaiters; calls, waiters = joined() {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls with %d waiters, want %d with %d", calls, waiters, keys, wantWaiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := execs.Load(); n != keys {
		t.Fatalf("execs = %d, want %d (exactly one per key)", n, keys)
	}
	if n := g.InFlight(); n != 0 {
		t.Fatalf("InFlight after completion = %d, want 0", n)
	}
}
