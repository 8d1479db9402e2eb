package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netx"
	"repro/internal/wire"
)

// dirHandler backs a cluster node with a real directory and implements
// Handler's replication half the way the core server does: batches and syncs apply into
// the directory, versions come from it, catch-ups are built from it. An
// optional gate stalls batch application to simulate a slow receiver.
type dirHandler struct {
	NopHandler
	dir  *directory.Directory
	gate atomic.Pointer[chan struct{}]
}

func newDirHandler(self uint32) *dirHandler {
	return &dirHandler{dir: directory.New(self, 0, nil)}
}

// block makes batch application stall until unblock is called.
func (h *dirHandler) block() {
	ch := make(chan struct{})
	h.gate.Store(&ch)
}

func (h *dirHandler) unblock() {
	if ch := h.gate.Swap(nil); ch != nil {
		close(*ch)
	}
}

func (h *dirHandler) waitGate() {
	if ch := h.gate.Load(); ch != nil {
		<-*ch
	}
}

func (h *dirHandler) HandleDirBatch(m *wire.DirBatch) {
	h.waitGate()
	now := time.Now()
	h.dir.AdvancePeerVersion(m.Owner, m.Version) // before applying, as core does
	for i := range m.Updates {
		u := &m.Updates[i]
		if u.Delete {
			h.dir.ApplyDelete(u.Owner, u.Key)
		} else {
			h.dir.ApplyInsert(directory.Entry{
				Key: u.Key, Owner: u.Owner, Size: u.Size,
				ExecTime: u.ExecTime, Expires: u.Expires,
			}, now)
		}
	}
}

func (h *dirHandler) HandleDirSync(m *wire.DirSync) {
	ops := make([]directory.SyncOp, len(m.Updates))
	for i := range m.Updates {
		u := &m.Updates[i]
		ops[i] = directory.SyncOp{
			Delete: u.Delete,
			Entry: directory.Entry{
				Key: u.Key, Owner: u.Owner, Size: u.Size,
				ExecTime: u.ExecTime, Expires: u.Expires,
			},
		}
	}
	h.dir.ApplySync(m.Owner, m.Full, ops, m.Version, time.Now())
}

func (h *dirHandler) DirVersion(owner uint32) uint64 { return h.dir.PeerVersion(owner) }

func (h *dirHandler) BuildDirSync(since uint64) *wire.DirSync {
	ops, ver, full, ok := h.dir.SyncSince(since)
	if !ok {
		return nil
	}
	updates := make([]wire.DirUpdate, len(ops))
	for i, op := range ops {
		updates[i] = wire.DirUpdate{
			Delete: op.Delete, Owner: h.dir.Self(), Key: op.Entry.Key,
			Size: op.Entry.Size, ExecTime: op.Entry.ExecTime, Expires: op.Entry.Expires,
		}
	}
	return &wire.DirSync{Owner: h.dir.Self(), Version: ver, Full: full, Updates: updates}
}

// wireUpdates connects a node's directory to its cluster broadcasts the way
// the core server does: every versioned local mutation is enqueued in order.
func wireUpdates(h *dirHandler, n *Node) {
	h.dir.OnUpdate(func(op directory.SyncOp) {
		n.BroadcastUpdate(wire.DirUpdate{
			Delete: op.Delete, Owner: h.dir.Self(), Key: op.Entry.Key,
			Size: op.Entry.Size, ExecTime: op.Entry.ExecTime, Expires: op.Entry.Expires,
		}, op.Version)
	})
}

// startSyncPair builds a two-node mesh with directory-backed handlers;
// queueA, when not zero, is node A's send queue depth.
func startSyncPair(t *testing.T, queueA int) (*Node, *Node, *dirHandler, *dirHandler) {
	t.Helper()
	mem := netx.NewMem()
	hA, hB := newDirHandler(1), newDirHandler(2)
	nA := NewNode(Config{NodeID: 1, Network: mem}, hA)
	nB := NewNode(Config{NodeID: 2, Network: mem}, hB)
	if queueA != 0 {
		nA.sendQueue = queueA
	}
	if err := nA.Start("sync-a"); err != nil {
		t.Fatal(err)
	}
	if err := nB.Start("sync-b"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nA.Close(); nB.Close() })
	wireUpdates(hA, nA)
	wireUpdates(hB, nB)
	if err := nA.ConnectPeer(2, "sync-b"); err != nil {
		t.Fatal(err)
	}
	if err := nB.ConnectPeer(1, "sync-a"); err != nil {
		t.Fatal(err)
	}
	return nA, nB, hA, hB
}

// agreeOn reports whether replica holds exactly owner's local table.
func agreeOn(owner, replica *directory.Directory) bool {
	local := owner.SnapshotLocal()
	if replica.TotalLen()-replica.LocalLen() != len(local) {
		return false
	}
	now := time.Now()
	for _, e := range local {
		if _, ok := replica.Lookup(e.Key, now); !ok {
			return false
		}
	}
	return true
}

func TestBatchedBroadcastConverges(t *testing.T) {
	nA, _, hA, hB := startSyncPair(t, 0)
	const inserts = 800
	for i := 0; i < inserts; i++ {
		hA.dir.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /k%d", i), Size: 10}, time.Now())
	}
	waitFor(t, "replica agreement", func() bool { return agreeOn(hA.dir, hB.dir) })
	rs := nA.ReplicationStats()
	if rs.UpdatesSent != inserts {
		t.Fatalf("updates sent = %d, want %d", rs.UpdatesSent, inserts)
	}
	if rs.BatchFrames == 0 {
		t.Fatal("no batch frames written")
	}
	if rs.Dropped != 0 {
		t.Fatalf("unexpected drops: %d", rs.Dropped)
	}
	// The peer's recorded version must have caught up.
	waitFor(t, "version convergence", func() bool {
		return hB.dir.PeerVersion(1) == hA.dir.Version()
	})
}

func TestBatchingPreservesUpdateOrder(t *testing.T) {
	_, _, hA, hB := startSyncPair(t, 0)
	// Insert, delete, reinsert the same key repeatedly: any reordering
	// inside or across batches would leave the replica on the wrong step.
	key := "GET /contested"
	for i := 0; i < 200; i++ {
		hA.dir.InsertLocal(directory.Entry{Key: key, Size: int64(i)}, time.Now())
		if i%2 == 1 {
			hA.dir.RemoveLocal(key)
		}
	}
	// The last step (i=199, odd) removes the key, so the replica must end
	// without it — any insert applied out of order would resurrect it.
	waitFor(t, "ordered convergence", func() bool {
		_, ok := hB.dir.Lookup(key, time.Now())
		return !ok && hB.dir.PeerVersion(1) == hA.dir.Version()
	})
}

func TestDropAndHealAfterQueueOverflow(t *testing.T) {
	nA, _, hA, hB := startSyncPair(t, 4)
	// Stall the receiver so A's tiny queue overflows and drops updates.
	hB.block()
	const inserts = 3000
	for i := 0; i < inserts; i++ {
		hA.dir.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /heal%d", i), Size: 32}, time.Now())
	}
	if nA.Dropped() == 0 {
		t.Fatal("expected queue-overflow drops, got none")
	}
	if got := nA.DroppedByPeer()[2]; got == 0 {
		t.Fatalf("per-peer drop counter for peer 2 = %d, want > 0", got)
	}
	hB.unblock()
	// Anti-entropy must restore full agreement despite the dropped
	// broadcasts: the drop flagged peer 2 for a full resync.
	waitFor(t, "drop-and-heal agreement", func() bool { return agreeOn(hA.dir, hB.dir) })
	rs := nA.ReplicationStats()
	if rs.SyncsSent == 0 || rs.SyncFull == 0 {
		t.Fatalf("expected a full sync to heal drops, got %+v", rs)
	}
}

func TestReconnectHealsOfflineGap(t *testing.T) {
	mem := netx.NewMem()
	hA := newDirHandler(1)
	nA := NewNode(Config{NodeID: 1, Network: mem}, hA)
	if err := nA.Start("gap-a"); err != nil {
		t.Fatal(err)
	}
	defer nA.Close()
	wireUpdates(hA, nA)

	hB := newDirHandler(2)
	nB := NewNode(Config{NodeID: 2, Network: mem}, hB)
	if err := nB.Start("gap-b"); err != nil {
		t.Fatal(err)
	}
	wireUpdates(hB, nB)
	if err := nA.ConnectPeer(2, "gap-b"); err != nil {
		t.Fatal(err)
	}
	if err := nB.ConnectPeer(1, "gap-a"); err != nil {
		t.Fatal(err)
	}

	hA.dir.InsertLocal(directory.Entry{Key: "GET /before", Size: 1}, time.Now())
	waitFor(t, "pre-restart delivery", func() bool { return agreeOn(hA.dir, hB.dir) })

	// Take B down; A keeps mutating while B is away.
	nB.Close()
	for i := 0; i < 50; i++ {
		hA.dir.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /while-down%d", i), Size: 1}, time.Now())
	}
	hA.dir.RemoveLocal("GET /before")

	// B restarts empty on the same address (a fresh directory, as after a
	// crash); A's reconnect loop finds it, B requests a sync at version 0,
	// and A ships a snapshot.
	hB2 := newDirHandler(2)
	nB2 := NewNode(Config{NodeID: 2, Network: mem}, hB2)
	if err := nB2.Start("gap-b"); err != nil {
		t.Fatal(err)
	}
	defer nB2.Close()
	wireUpdates(hB2, nB2)
	if err := nB2.ConnectPeer(1, "gap-a"); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "post-restart agreement", func() bool { return agreeOn(hA.dir, hB2.dir) })
	if _, ok := hB2.dir.Lookup("GET /before", time.Now()); ok {
		t.Fatal("deleted-while-down entry resurrected after sync")
	}
}

func TestConcurrentBatchEncodeApply(t *testing.T) {
	nA, _, hA, hB := startSyncPair(t, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				hA.dir.InsertLocal(directory.Entry{
					Key: fmt.Sprintf("GET /c%d-%d", g, i), Size: 8,
				}, time.Now())
			}
		}(g)
	}
	// Interleave fetches and pings with the storm so frame writes from the
	// request path race the corked batch writer on the same link.
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := nA.Ping(ctx, 2); err != nil {
			cancel()
			t.Fatalf("ping during storm: %v", err)
		}
		cancel()
	}
	wg.Wait()
	waitFor(t, "storm convergence", func() bool { return agreeOn(hA.dir, hB.dir) })
}

func TestReconnectDuringSyncStorm(t *testing.T) {
	mem := netx.NewMem()
	hA := newDirHandler(1)
	nA := NewNode(Config{NodeID: 1, Network: mem}, hA)
	nA.sendQueue = 64
	if err := nA.Start("storm-a"); err != nil {
		t.Fatal(err)
	}
	defer nA.Close()
	wireUpdates(hA, nA)

	startB := func() (*Node, *dirHandler) {
		h := newDirHandler(2)
		n := NewNode(Config{NodeID: 2, Network: mem}, h)
		if err := n.Start("storm-b"); err != nil {
			t.Fatal(err)
		}
		wireUpdates(h, n)
		return n, h
	}
	nB, _ := startB()
	if err := nA.ConnectPeer(2, "storm-b"); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4000; i++ {
			hA.dir.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /s%d", i), Size: 8}, time.Now())
		}
	}()

	// Bounce B twice mid-storm: links die while batches and syncs are in
	// flight, and every restart forces a fresh catch-up.
	var hBFinal *dirHandler
	for bounce := 0; bounce < 2; bounce++ {
		time.Sleep(10 * time.Millisecond)
		nB.Close()
		time.Sleep(10 * time.Millisecond)
		nB, hBFinal = startB()
	}
	defer nB.Close()
	<-done

	waitFor(t, "convergence after bounces", func() bool { return agreeOn(hA.dir, hBFinal.dir) })
}
