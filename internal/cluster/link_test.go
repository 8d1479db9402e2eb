package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netx"
	"repro/internal/stats"
	"repro/internal/wire"
)

// countingNetwork counts the connections it dialed that are still open on
// the dialing side: with one link per pair, a settled mesh of N nodes holds
// N·(N−1)/2 of them.
type countingNetwork struct {
	netx.Network
	mu   sync.Mutex
	open int
}

func (b *countingNetwork) Dial(addr string) (net.Conn, error) {
	c, err := b.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.open++
	b.mu.Unlock()
	return &countedConn{Conn: c, n: b}, nil
}

func (b *countingNetwork) openConns() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

type countedConn struct {
	net.Conn
	n    *countingNetwork
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.n.mu.Lock()
		c.n.open--
		c.n.mu.Unlock()
	})
	return c.Conn.Close()
}

// refusingNetwork fails every Dial once refuse is set: it makes the end of a
// pair that must not redial.
type refusingNetwork struct {
	netx.Network
	refuse atomic.Bool
}

func (r *refusingNetwork) Dial(addr string) (net.Conn, error) {
	if r.refuse.Load() {
		return nil, errors.New("dial refused")
	}
	return r.Network.Dial(addr)
}

// linkGoroutines counts the running senders and read loops of every node in
// the process.
func linkGoroutines() (senders, readers int) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "cluster.(*Node).linkSender("), strings.Count(stacks, "cluster.(*Node).readLoop(")
}

// TestLinkSimultaneousDialSettles: every node of a mesh dials every other at
// the same instant, as every test mesh, swalad -peers and bench/node do. Each
// pair must end with exactly one connection, served by one sender and one
// read loop per end, every ConnectPeer must return nil, no link may be seen
// to die of the tie-break (no suspicion, no redial), and the link must carry
// requests and broadcasts in both directions, whichever side dialed it.
func TestLinkSimultaneousDialSettles(t *testing.T) {
	const n = 4
	iterations := 200
	if testing.Short() {
		iterations = 20
	}
	for iter := 0; iter < iterations; iter++ {
		mem := &countingNetwork{Network: netx.NewMem()}
		nodes := make([]*Node, n)
		handlers := make([]*recordingHandler, n)
		for i := range nodes {
			handlers[i] = newRecordingHandler()
			handlers[i].bodies["GET /k"] = fmt.Sprintf("body-%d", i+1)
			nodes[i] = NewNode(Config{NodeID: uint32(i + 1), Network: mem, FetchTimeout: 5 * time.Second}, handlers[i])
			if err := nodes[i].Start(fmt.Sprintf("node-%d", i+1)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range nodes {
			for j := range nodes {
				if i == j {
					continue
				}
				wg.Add(1)
				go func(i, j int) {
					defer wg.Done()
					<-start
					if err := nodes[i].ConnectPeer(uint32(j+1), fmt.Sprintf("node-%d", j+1)); err != nil {
						t.Errorf("iter %d: node %d ConnectPeer(%d): %v", iter, i+1, j+1, err)
					}
				}(i, j)
			}
		}
		close(start)
		wg.Wait()

		// The links ConnectPeer returned with are the final ones: usable at
		// once, in both directions.
		for i := range nodes {
			for j := range nodes {
				if i == j {
					continue
				}
				if err := nodes[i].Ping(context.Background(), uint32(j+1)); err != nil {
					t.Fatalf("iter %d: ping %d→%d: %v", iter, i+1, j+1, err)
				}
				_, body, ok, err := nodes[i].Fetch(context.Background(), uint32(j+1), "GET /k")
				if err != nil || !ok || string(body) != fmt.Sprintf("body-%d", j+1) {
					t.Fatalf("iter %d: fetch %d→%d: %q ok=%v err=%v", iter, i+1, j+1, body, ok, err)
				}
			}
			nodes[i].BroadcastUpdate(wire.DirUpdate{Owner: uint32(i + 1), Key: "GET /from"}, 0)
		}
		for i := range handlers {
			i := i
			waitFor(t, "broadcasts from every peer", func() bool { return handlers[i].insertCount() == n-1 })
		}

		// Spares are closed and their serving goroutines gone: N·(N−1)/2
		// connections, one sender and one read loop per link end.
		waitFor(t, "one connection per pair", func() bool {
			senders, readers := linkGoroutines()
			return mem.openConns() == n*(n-1)/2 && senders == n*(n-1) && readers == n*(n-1)
		})
		for i, node := range nodes {
			for _, h := range node.PeerHealth() {
				if h.State != PeerAlive || h.LastErr != "" {
					t.Fatalf("iter %d: node %d suspects peer %d: %+v", iter, i+1, h.Peer, h)
				}
			}
		}
		for _, node := range nodes {
			node.Close()
		}
	}
}

// TestLinkSnapshotDuringBatchStorm orders a full snapshot against a batch
// storm adversarially: while A's directory churns, B's replica is made to
// take full snapshots over and over. Snapshot and batches share the pair's one
// stream, so the replica's version of A's table never moves backwards and
// ends at A's.
func TestLinkSnapshotDuringBatchStorm(t *testing.T) {
	mem := &countingNetwork{Network: netx.NewMem()}
	hA, hB := newDirHandler(1), newDirHandler(2)
	nA := NewNode(Config{NodeID: 1, Network: mem}, hA)
	nB := NewNode(Config{NodeID: 2, Network: mem}, hB)
	if err := nA.Start("snap-a"); err != nil {
		t.Fatal(err)
	}
	if err := nB.Start("snap-b"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nA.Close(); nB.Close() })
	wireUpdates(hA, nA)
	if err := nB.ConnectPeer(1, "snap-a"); err != nil {
		t.Fatal(err)
	}
	if err := nA.ConnectPeer(2, "snap-b"); err != nil {
		t.Fatal(err)
	}
	link := nA.link(2)

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	var backwards atomic.Uint64
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := hB.dir.PeerVersion(1)
			if v < last {
				backwards.Store(last<<32 | v)
			}
			last = v
		}
	}()
	for i := 0; i < 5000; i++ {
		hA.dir.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /s%d", i%700), Size: int64(i)}, time.Now())
		if i%3 == 0 {
			hA.dir.RemoveLocal(fmt.Sprintf("GET /s%d", (i+350)%700))
		}
		if i%50 == 0 {
			// A request from floor 0: the catch-up is a full snapshot.
			select {
			case link.floors <- 0:
			default:
			}
		}
	}
	defer func() {
		if t.Failed() {
			t.Logf("replica at version %d with %d entries, owner at %d with %d; %+v", hB.dir.PeerVersion(1),
				hB.dir.TotalLen()-hB.dir.LocalLen(), hA.dir.Version(), hA.dir.LocalLen(), nA.ReplicationStats())
		}
	}()
	waitFor(t, "replica at the owner's version", func() bool {
		return hB.dir.PeerVersion(1) == hA.dir.Version() && agreeOn(hA.dir, hB.dir)
	})
	close(stop)
	watcher.Wait()
	if b := backwards.Load(); b != 0 {
		t.Fatalf("replica's version of the owner's table moved backwards: %d → %d", b>>32, b&0xFFFFFFFF)
	}
	if rs := nA.ReplicationStats(); rs.SyncFull == 0 {
		t.Fatalf("the storm raced no full snapshot: %+v", rs)
	}
	if got := mem.openConns(); got != 1 {
		t.Fatalf("%d connections between the pair, want the one stream", got)
	}
}

// TestLinkUpDuringBatchStorm: a link comes up while its owner's directory
// churns. What the replica missed while there was no link is healed from the
// version its DirSyncReq states, and no batch may leave ahead of that request:
// it would pass for the replica's version and bury the hole below it.
func TestLinkUpDuringBatchStorm(t *testing.T) {
	mem := netx.NewMem()
	hA, hB := newDirHandler(1), newDirHandler(2)
	nA := NewNode(Config{NodeID: 1, Network: mem}, hA)
	nB := NewNode(Config{NodeID: 2, Network: mem}, hB)
	if err := nA.Start("up-a"); err != nil {
		t.Fatal(err)
	}
	if err := nB.Start("up-b"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nA.Close(); nB.Close() })
	wireUpdates(hA, nA)
	if err := nA.ConnectPeer(2, "up-b"); err != nil {
		t.Fatal(err)
	}

	defer func() {
		if t.Failed() {
			t.Logf("replica at version %d with %d entries, owner at %d with %d; %+v", hB.dir.PeerVersion(1),
				hB.dir.TotalLen()-hB.dir.LocalLen(), hA.dir.Version(), hA.dir.LocalLen(), nA.ReplicationStats())
		}
	}()
	for iter, i := 0, 0; iter < 40; iter++ {
		// Paced so that no queue overflows: a full resync would heal the hole
		// this test is after.
		stop := make(chan struct{})
		var storm sync.WaitGroup
		storm.Add(1)
		go func() {
			defer storm.Done()
			for ; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(20 * time.Microsecond):
				}
				hA.dir.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /u%d", i%500), Size: int64(i)}, time.Now())
				if i%3 == 0 {
					hA.dir.RemoveLocal(fmt.Sprintf("GET /u%d", (i+250)%500))
				}
			}
		}()
		side, peer := nA, uint32(2)
		if iter%2 == 1 {
			side, peer = nB, 1
		}
		time.Sleep(time.Millisecond)
		side.RecyclePeer(peer)
		waitFor(t, "link up again", func() bool { return nA.Ping(context.Background(), 2) == nil })
		time.Sleep(time.Millisecond)
		close(stop)
		storm.Wait()
		waitFor(t, "replica at the owner's version and table", func() bool {
			return hB.dir.PeerVersion(1) == hA.dir.Version() && agreeOn(hA.dir, hB.dir)
		})
	}
	if rs := nA.ReplicationStats(); rs.SyncFull > 1 || rs.Dropped != 0 {
		t.Logf("storm overflowed a queue, the test saw less than it could: %+v", rs)
	}
}

// bigBodyHandler is a dirHandler that owns a 32 KiB body for every key.
type bigBodyHandler struct {
	*dirHandler
	body []byte
}

func (h bigBodyHandler) HandleFetch(_ string, _ uint8, r *wire.FetchReply) func() {
	r.OK, r.ContentType, r.Body = true, "application/octet-stream", h.body
	return nil
}

// TestLinkFloodBothWays: both nodes flood each other with directory batches,
// fetches of 32 KiB bodies and pings at once over netx.Mem's 64 KiB pipes.
// Both ends read and answer on the one socket, so a read loop that wrote its
// answers itself would sooner or later block in a write while its peer's read
// loop did the same, and neither would ever drain the other. Every request
// must be answered.
func TestLinkFloodBothWays(t *testing.T) {
	mem := netx.NewMem()
	body := bytes.Repeat([]byte{0xA5}, 32<<10)
	hs := []bigBodyHandler{{newDirHandler(1), body}, {newDirHandler(2), body}}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i] = NewNode(Config{NodeID: uint32(i + 1), Network: mem, FetchTimeout: 30 * time.Second}, hs[i])
		if err := nodes[i].Start(fmt.Sprintf("flood-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		wireUpdates(hs[i].dirHandler, nodes[i])
	}
	t.Cleanup(func() { nodes[0].Close(); nodes[1].Close() })
	if err := nodes[0].ConnectPeer(2, "flood-2"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	flood := func(name string, workers, each int, op func(self int, peer uint32) error) {
		for self := range nodes {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(self int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := op(self, uint32(2-self)); err != nil {
							t.Errorf("node %d: %s %d: %v", self+1, name, i, err)
							return
						}
					}
				}(self)
			}
		}
	}
	flood("fetch", 8, 100, func(self int, peer uint32) error {
		_, got, ok, err := nodes[self].Fetch(context.Background(), peer, "GET /big")
		if err == nil && (!ok || len(got) != len(body)) {
			err = fmt.Errorf("ok=%v, %d bytes", ok, len(got))
		}
		return err
	})
	flood("ping", 8, 300, func(self int, peer uint32) error {
		return nodes[self].Ping(context.Background(), peer)
	})
	flood("insert", 1, 20000, func(self int, _ uint32) error {
		hs[self].dir.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /f%d", time.Now().UnixNano()%4096), Size: 2048}, time.Now())
		return nil
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("flood made no progress (read loops deadlocked?)\n%s", buf[:runtime.Stack(buf, true)])
	}
	waitFor(t, "both replicas converged", func() bool {
		return agreeOn(hs[0].dir, hs[1].dir) && agreeOn(hs[1].dir, hs[0].dir)
	})
}

// TestDispatchTable walks every wire message type through the one dispatch
// table and pins what a node does with it on a peer link and on an
// administrative connection: handled, or rejected as unexpected. A new
// message type fails here until it has a row.
func TestDispatchTable(t *testing.T) {
	type row struct {
		msg         wire.Message
		link, admin bool // handled there
	}
	table := map[wire.MsgType]row{
		wire.MsgHello:        {&wire.Hello{NodeID: 9}, false, false}, // only ever a connection's first frame
		wire.MsgFetch:        {&wire.Fetch{Seq: 1, Key: "k"}, true, true},
		wire.MsgFetchReply:   {&wire.FetchReply{Seq: 1}, true, false},
		wire.MsgPing:         {&wire.Ping{Seq: 1}, true, true},
		wire.MsgPong:         {&wire.Pong{Seq: 1}, true, false},
		wire.MsgStats:        {&wire.Stats{Seq: 1}, true, true},
		wire.MsgInvalidate:   {&wire.Invalidate{Origin: 9, Pattern: "*", Seq: 1}, true, true},
		wire.MsgInvalAck:     {&wire.InvalAck{Seq: 1}, false, false},
		wire.MsgStatsReply:   {&wire.StatsReply{Seq: 1, Samples: []stats.Sample{{Name: "swala_misses_total"}}}, false, false},
		wire.MsgDirBatch:     {&wire.DirBatch{Owner: 9, Version: 1}, true, false},
		wire.MsgDirSyncReq:   {&wire.DirSyncReq{}, true, false},
		wire.MsgDirSync:      {&wire.DirSync{Owner: 9}, true, false},
		wire.MsgJoin:         {&wire.Join{NodeID: 9, Addr: "dispatch-9"}, true, false},
		wire.MsgLeave:        {&wire.Leave{NodeID: 9, Incarnation: 1}, true, false},
		wire.MsgRingUpdate:   {&wire.RingUpdate{Origin: 9}, true, false},
		wire.MsgReplicaPush:  {&wire.ReplicaPush{}, true, false},
		wire.MsgReplicaEvent: {&wire.ReplicaEvent{}, true, false},
	}

	mem := netx.NewMem()
	n := NewNode(Config{NodeID: 1, Network: mem, RingMode: true}, newRecordingHandler())
	if err := n.Start("dispatch-1"); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// conn returns a served connection whose far end swallows the replies.
	conn := func() *peerLink {
		near, far := net.Pipe()
		t.Cleanup(func() { near.Close(); far.Close() })
		go func() {
			for wc := wire.NewConn(far); ; {
				if _, err := wc.Read(); err != nil {
					return
				}
			}
		}()
		return n.newConn(9, near, wire.NewConn(near), false)
	}
	link, admin := conn(), conn()
	n.mu.Lock()
	n.register(n.peerLocked(9), link)
	n.mu.Unlock()
	// No read loop runs on them; end their fetch workers as one would.
	defer func() { close(link.fetches); close(admin.fetches) }()

	for ty := wire.MsgType(1); ty != 0; ty++ {
		if strings.HasPrefix(ty.String(), "wire.MsgType(") {
			continue // not a message type (the reserved slots among them)
		}
		r, ok := table[ty]
		if !ok {
			t.Errorf("%v has no row: decide what a peer link and an admin connection do with it", ty)
			continue
		}
		if r.msg.Type() != ty {
			t.Fatalf("row %v holds a %v", ty, r.msg.Type())
		}
		if got := n.dispatch(link, r.msg); got != r.link {
			t.Errorf("%v on a peer link: handled=%v, want %v", ty, got, r.link)
		}
		if got := n.dispatch(admin, r.msg); got != r.admin {
			t.Errorf("%v on an admin connection: handled=%v, want %v", ty, got, r.admin)
		}
	}
}

// TestLinkReestablishedFromEitherSide: a pair's link is redialed by
// whichever end notices it die — the end that had accepted it too, from the
// address the peer's Hello announced — and a restarted peer is linked again
// whether it comes back dialing or only listening, with the lower or the
// higher NodeID of the pair.
func TestLinkReestablishedFromEitherSide(t *testing.T) {
	bothWays := func(t *testing.T, a, b *Node) {
		t.Helper()
		waitFor(t, "link up in both directions", func() bool {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			return a.Ping(ctx, b.ID()) == nil && b.Ping(ctx, a.ID()) == nil
		})
	}
	start := func(t *testing.T, mem netx.Network, id uint32) (*Node, *refusingNetwork) {
		t.Helper()
		rn := &refusingNetwork{Network: mem}
		n := NewNode(Config{NodeID: id, Network: rn}, NopHandler{})
		if err := n.Start(fmt.Sprintf("re-%d", id)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n, rn
	}
	for _, tc := range []struct {
		name             string
		dialer, acceptor uint32
		redialer         uint32 // 0 = both
	}{
		{"lower dialed, dialer redials", 1, 2, 1},
		{"lower dialed, acceptor redials", 1, 2, 2},
		{"higher dialed, dialer redials", 2, 1, 2},
		{"higher dialed, acceptor redials", 2, 1, 1},
		{"both redial at once", 1, 2, 0},
	} {
		t.Run("link dies/"+tc.name, func(t *testing.T) {
			mem := &countingNetwork{Network: netx.NewMem()}
			d, dNet := start(t, mem, tc.dialer)
			a, aNet := start(t, mem, tc.acceptor)
			if err := d.ConnectPeer(a.ID(), a.Addr()); err != nil {
				t.Fatal(err)
			}
			bothWays(t, d, a)
			dNet.refuse.Store(tc.redialer == tc.acceptor)
			aNet.refuse.Store(tc.redialer == tc.dialer)
			d.link(a.ID()).conn.Close() // the transport fails under both ends
			bothWays(t, d, a)
			waitFor(t, "one connection again", func() bool { return mem.openConns() == 1 })
		})
	}
	for _, tc := range []struct {
		name                string
		survivor, restarted uint32
		dialsBack           bool
	}{
		{"higher peer restarts listening", 1, 2, false},
		{"higher peer restarts dialing", 1, 2, true},
		{"lower peer restarts listening", 2, 1, false},
		{"lower peer restarts dialing", 2, 1, true},
	} {
		t.Run("restart/"+tc.name, func(t *testing.T) {
			mem := &countingNetwork{Network: netx.NewMem()}
			s, _ := start(t, mem, tc.survivor)
			r, _ := start(t, mem, tc.restarted)
			if err := s.ConnectPeer(r.ID(), r.Addr()); err != nil {
				t.Fatal(err)
			}
			bothWays(t, s, r)
			r.Close()
			r, _ = start(t, mem, tc.restarted)
			if tc.dialsBack {
				if err := r.ConnectPeer(s.ID(), s.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			bothWays(t, s, r)
			waitFor(t, "one connection again", func() bool { return mem.openConns() == 1 })
		})
	}
}

// TestLinkRedialAddress: a node knows the address it listens on, not the one
// it is reached at — swalad's default listener is on every interface and
// announces "[::]:9080". The end that adopted a link must redial it where the
// connection came from, keep an address ConnectPeer was given over anything a
// Hello announces, and never take a connection from itself for a peer's.
func TestLinkRedialAddress(t *testing.T) {
	// start's network refuses dials once its refuse is set.
	start := func(t *testing.T, id uint32) (*Node, *refusingNetwork, string) {
		t.Helper()
		h := newRecordingHandler()
		h.bodies["GET /who"] = fmt.Sprintf("node-%d", id)
		rn := &refusingNetwork{Network: netx.TCP{}}
		n := NewNode(Config{NodeID: id, Network: rn}, h)
		if err := n.Start(":0"); err != nil {
			t.Skipf("loopback unavailable: %v", err)
		}
		t.Cleanup(func() { n.Close() })
		_, port, err := net.SplitHostPort(n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return n, rn, net.JoinHostPort("127.0.0.1", port)
	}
	redialAddr := func(n *Node, peer uint32) string {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.peers[peer].addr
	}
	answers := func(from *Node, peer uint32) string {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_, body, _, _ := from.Fetch(ctx, peer, "GET /who")
		return string(body)
	}

	t.Run("adopted link is redialed where it came from", func(t *testing.T) {
		a, aNet, aAddr := start(t, 1)
		b, _, bAddr := start(t, 2)
		if err := a.ConnectPeer(2, bAddr); err != nil {
			t.Fatal(err)
		}
		aNet.refuse.Store(true)
		if got := redialAddr(b, 1); got != aAddr {
			t.Fatalf("adopting end redials %q (the peer announced %q), want %q", got, a.Addr(), aAddr)
		}
		a.RecyclePeer(2) // only b redials
		waitFor(t, "b to redial a", func() bool { return answers(b, 1) == "node-1" && answers(a, 2) == "node-2" })
		if got := b.Peers(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("b's links = %v, want [1]", got)
		}
	})
	t.Run("ConnectPeer's address outlives adoption", func(t *testing.T) {
		a, _, aAddr := start(t, 1)
		b, bNet, bAddr := start(t, 2)
		bNet.refuse.Store(true)
		if err := a.ConnectPeer(2, bAddr); err != nil {
			t.Fatal(err)
		}
		// The link is up already, adopted: b was still told where a is.
		_, port, _ := net.SplitHostPort(aAddr)
		given := net.JoinHostPort("localhost", port)
		if err := b.ConnectPeer(1, given); err != nil {
			t.Fatal(err)
		}
		b.RecyclePeer(1) // only a redials, and b adopts again
		waitFor(t, "a to redial b", func() bool { return answers(b, 1) == "node-1" })
		if got := redialAddr(b, 1); got != given {
			t.Fatalf("b redials %q, want the address ConnectPeer was given, %q", got, given)
		}
	})
	t.Run("a dial that reaches the node's own listener", func(t *testing.T) {
		a, aNet, aAddr := start(t, 1)
		a.ConnectPeer(2, aAddr) // there is no node 2 there
		aNet.refuse.Store(true)
		if got := answers(a, 2); got != "" {
			t.Fatalf("node 1 answers as its own peer 2: %q", got)
		}
		waitFor(t, "the rejected link to die", func() bool {
			a.mu.Lock()
			defer a.mu.Unlock()
			p := a.peers[2]
			return a.peers[1] == nil && (p == nil || !p.linked())
		})
	})
}

// TestOneDialLoopPerPeer: a link loss, a membership dial and a ConnectPeer
// arrive for one peer at once. One dial loop serves all three: at most one
// dial is in flight at a time, ConnectPeer returns with the link that loop
// makes, and no loop outlives the link coming up.
func TestOneDialLoopPerPeer(t *testing.T) {
	mem := netx.NewMem()
	bn := &blockingNetwork{countingNetwork: countingNetwork{Network: mem}, entered: make(chan struct{}), release: make(chan struct{})}
	bNet := &refusingNetwork{Network: mem}
	a := NewNode(Config{NodeID: 1, Network: bn}, NopHandler{})
	b := NewNode(Config{NodeID: 2, Network: bNet}, NopHandler{})
	for i, n := range []*Node{a, b} {
		if err := n.Start(fmt.Sprintf("loop-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
	}
	// b dials the pair's link, so a's first dial is the redial the network
	// parks; b dials nothing more, so only a can link the pair again.
	if err := b.ConnectPeer(1, "loop-1"); err != nil {
		t.Fatal(err)
	}
	bNet.refuse.Store(true)

	a.RecyclePeer(2)
	select {
	case <-bn.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the lost link was never redialed")
	}
	a.reconcileLinks([]wire.Member{{ID: 2, Addr: "loop-2"}})
	connected := make(chan error, 1)
	go func() { connected <- a.ConnectPeer(2, "loop-2") }()
	time.Sleep(50 * time.Millisecond) // a second loop would dial meanwhile
	close(bn.release)

	if err := <-connected; err != nil {
		t.Fatalf("ConnectPeer: %v", err)
	}
	if got := bn.mostInFlight(); got != 1 {
		t.Fatalf("%d dials to one peer in flight at once, want 1", got)
	}
	loops := func(n *Node) int {
		n.mu.Lock()
		defer n.mu.Unlock()
		running := 0
		for _, p := range n.peers {
			if p.loop != nil {
				running++
			}
		}
		return running
	}
	waitFor(t, "every dial loop to end", func() bool { return loops(a) == 0 && loops(b) == 0 })
	if err := a.Ping(context.Background(), 2); err != nil {
		t.Fatalf("ping over the redialed link: %v", err)
	}
}

// TestUnboundedDialOutlivesCaller: membership asks for a peer while a
// ConnectPeerContext is dialing it. The loop carries on past that caller's
// context, so the peer is linked once it listens.
func TestUnboundedDialOutlivesCaller(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	if err := a.Start("late-1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	connected := make(chan error, 1)
	go func() { connected <- a.ConnectPeerContext(ctx, 2, "late-2") }() // nobody listens there yet
	waitFor(t, "the caller's loop to run", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.peers[2] != nil && a.peers[2].loop != nil
	})
	a.reconcileLinks([]wire.Member{{ID: 2, Addr: "late-2"}})
	if err := <-connected; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ConnectPeerContext = %v, want its deadline", err)
	}

	b := NewNode(Config{NodeID: 2, Network: mem}, NopHandler{})
	if err := b.Start("late-2"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	waitFor(t, "the pair to be linked", func() bool { return a.Ping(context.Background(), 2) == nil })
}
