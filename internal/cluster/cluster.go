// Package cluster implements Swala's inter-node protocol: node membership,
// asynchronous broadcast of cache directory updates, and remote cache
// fetches. The consistency model is the paper's weak inter-node protocol —
// inserts and deletes are broadcast without global locks or two-phase
// commit, so peers may briefly act on stale directories (false misses and
// false hits), which the server layer tolerates by falling back to local
// execution.
//
// Topology is a full mesh with one connection per pair of nodes, whichever
// side dialed it: both ends write directory batches, fetches and pings on it
// and read the peer's on it, through one sender, one read loop and one
// dispatch table. Every fetch in flight has its own goroutine (the paper's
// cacher module "starts a separate thread for each request to return the cache
// contents"), which then waits for the next one.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/directory"
	"repro/internal/netx"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Handler is the upper layer's (the cache manager's) view of cluster events.
// Implementations must be safe for concurrent use.
type Handler interface {
	// HandleFetch answers a peer's fetch of key by filling in reply: OK=false
	// signals a false hit (the entry is gone). flags are the wire.Fetch* ring
	// flags (zero, and ignored, under replicate placement). Body may be
	// leased: the link calls release, when not nil, once reply is written.
	HandleFetch(key string, flags uint8, reply *wire.FetchReply) (release func())
	// HandleStats returns the node's metric samples for swalactl.
	HandleStats() []stats.Sample
	// HandleInvalidate originates an invalidation wave for the pattern and
	// reports the local matches plus the fan-out accounting (peers the wave
	// was sent on toward, and how many of them it could not reach), which
	// the link returns as an InvalAck when m.Seq asks for one.
	HandleInvalidate(m *wire.Invalidate) (matched, peers, unreached int)

	// HandleDirBatch applies a batch of consecutive records of a peer's
	// origin log (directory updates and invalidation waves).
	HandleDirBatch(m *wire.DirBatch)
	// HandleDirSync applies an anti-entropy catch-up (or, with m.Handoff, a
	// ring rebalance offer) from a peer.
	HandleDirSync(m *wire.DirSync)
	// DirVersion reports this node's floor of owner's origin log: every
	// record at or below it has been applied (0 = none).
	DirVersion(owner uint32) uint64
	// BuildDirSync assembles the catch-up of this node's origin log for a
	// peer whose floor is since; nil when the peer is already current.
	BuildDirSync(since uint64) *wire.DirSync

	// HandleReplicaPush applies a home owner's instruction to hold (or
	// retire) a replica of one of its hot entries.
	HandleReplicaPush(m *wire.ReplicaPush)
	// HandleReplicaEvent applies a holder's announcement that it now serves
	// (or no longer serves) a replica.
	HandleReplicaEvent(m *wire.ReplicaEvent)
}

// NopHandler ignores all events; useful for tests and pseudo-servers.
type NopHandler struct{}

// HandleFetch implements Handler.
func (NopHandler) HandleFetch(string, uint8, *wire.FetchReply) func() { return nil }

// HandleStats implements Handler.
func (NopHandler) HandleStats() []stats.Sample { return nil }

// HandleInvalidate implements Handler.
func (NopHandler) HandleInvalidate(*wire.Invalidate) (matched, peers, unreached int) {
	return 0, 0, 0
}

// HandleDirBatch implements Handler.
func (NopHandler) HandleDirBatch(*wire.DirBatch) {}

// HandleDirSync implements Handler.
func (NopHandler) HandleDirSync(*wire.DirSync) {}

// DirVersion implements Handler.
func (NopHandler) DirVersion(uint32) uint64 { return 0 }

// BuildDirSync implements Handler.
func (NopHandler) BuildDirSync(uint64) *wire.DirSync { return nil }

// HandleReplicaPush implements Handler.
func (NopHandler) HandleReplicaPush(*wire.ReplicaPush) {}

// HandleReplicaEvent implements Handler.
func (NopHandler) HandleReplicaEvent(*wire.ReplicaEvent) {}

// Config configures a cluster Node.
type Config struct {
	// NodeID uniquely identifies this node in the group.
	NodeID uint32
	// Name is a human-readable node name (defaults to "node-<id>").
	Name string
	// Network is the transport (nil = real TCP).
	Network netx.Network
	// FetchTimeout bounds a remote cache fetch (default 5s). A timed-out
	// fetch is treated as a false hit by the caller.
	FetchTimeout time.Duration
	// Health tunes the peer failure detector (see HealthConfig). The zero
	// value enables it with conservative defaults; set Health.Disable for
	// the paper's reactive-only failure handling.
	Health HealthConfig
	// Score tunes per-peer fetch latency/failure scoring and the circuit
	// breaker (see ScoreConfig). The zero value disables both.
	Score ScoreConfig
	// OnPeerState, when set, observes failure-detector transitions (alive →
	// suspect → dead and back). It runs with the node's lock held so one
	// peer's transitions arrive in order; it must be fast and must not call
	// back into the Node.
	OnPeerState func(peer uint32, state PeerState)
	// RingMode enables dynamic membership and consistent-hash placement:
	// MsgJoin/MsgLeave/MsgRingUpdate are spoken, Hello announces ring
	// placement, and the failure detector evicts dead members from the ring.
	// Ring mode replicates no directory tables: the origin logs its links
	// carry hold invalidation waves only.
	RingMode bool
	// OnRingChange, when set, observes ring rebuilds after membership
	// changes. Changes are delivered in order on a dedicated goroutine; the
	// callback may call back into the Node.
	OnRingChange func(old, new *ring.Ring)
	// Logger receives protocol errors; nil discards.
	Logger *log.Logger
}

// Errors.
var (
	ErrNoPeer       = errors.New("cluster: no link to peer")
	ErrFetchTimeout = errors.New("cluster: fetch timed out")
	ErrClosed       = errors.New("cluster: node closed")

	errForgotten = errors.New("cluster: peer forgotten")
)

// Link tuning, the same on every node.
const (
	// connectWindow is how long ConnectPeer keeps dialing, so nodes can start
	// in any order, and what bounds each attempt of every dial loop.
	connectWindow = 5 * time.Second
	// dialRetry is the nominal gap between a dial loop's attempts (jittered).
	dialRetry = 20 * time.Millisecond
	// sendQueueLen is a link's async broadcast queue depth.
	sendQueueLen = 1024
	// batchLimit caps the updates packed into one DirBatch frame.
	batchLimit = 256
)

// Node is one member of the Swala group.
type Node struct {
	cfg     Config
	handler Handler

	// mu guards the listener, the peer records, inbound and closed.
	mu       sync.Mutex
	listener net.Listener
	peers    map[uint32]*peer
	inbound  map[net.Conn]struct{}
	closed   bool
	done     chan struct{} // closed when the node shuts down
	wg       sync.WaitGroup

	sendQueue int // sendQueueLen, which tests shrink before Start

	// memMu guards the dynamic membership table (ring mode only).
	memMu   sync.Mutex
	members map[uint32]memberInfo
	epoch   uint64
	leaving bool
	// ringPtr is the current placement ring, swapped whole on change so the
	// request path reads it with one atomic load.
	ringPtr    atomic.Pointer[ring.Ring]
	ringEvents chan ringEvent

	dropped atomic.Uint64 // broadcasts dropped due to full peer queues

	// Replication counters (see stats.ReplicationSnapshot).
	updates      atomic.Uint64
	updatesSent  atomic.Uint64
	batchFrames  atomic.Uint64
	flushes      atomic.Uint64
	syncsSent    atomic.Uint64
	syncFull     atomic.Uint64
	syncDelta    atomic.Uint64
	syncUpdates  atomic.Uint64
	syncsApplied atomic.Uint64
}

// NewNode creates a node; call Start to listen and ConnectPeer to join the
// mesh.
func NewNode(cfg Config, handler Handler) *Node {
	if cfg.Network == nil {
		cfg.Network = netx.TCP{}
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("node-%d", cfg.NodeID)
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 5 * time.Second
	}
	cfg.Health.setDefaults()
	if cfg.Score.MinSamples <= 0 {
		cfg.Score.MinSamples = 8
	}
	if handler == nil {
		handler = NopHandler{}
	}
	n := &Node{
		cfg:       cfg,
		handler:   handler,
		peers:     make(map[uint32]*peer),
		inbound:   make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
		sendQueue: sendQueueLen,
	}
	if cfg.RingMode {
		n.members = make(map[uint32]memberInfo)
		n.ringEvents = make(chan ringEvent, 16)
	}
	return n
}

// Start listens for peer connections on addr (":0" on TCP picks a port).
func (n *Node) Start(addr string) error {
	l, err := n.cfg.Network.Listen(addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	n.listener = l
	n.mu.Unlock()

	n.wg.Add(1)
	go n.acceptLoop(l)
	if !n.cfg.Health.Disable {
		n.wg.Add(1)
		go n.probeLoop()
	}
	if n.cfg.RingMode {
		n.initMembership()
	}
	return nil
}

// Addr returns the cluster listen address ("" before Start).
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// ID returns the node's cluster ID.
func (n *Node) ID() uint32 { return n.cfg.NodeID }

func (n *Node) acceptLoop(l net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveAccepted(conn)
	}
}

// serveAccepted handles one accepted connection, whose first frame must be a
// Hello. One that announces a listen address comes from a cluster node and is
// answered with this node's own: the connection becomes this node's link to it
// unless the pair's tie-break says otherwise (adopt), which an answer that
// announces no address tells the dialer. Every other connection — an
// administrative client (swalactl), or a peer's dial that lost the tie-break
// and that the peer now closes — is served in request/reply form and is
// nobody's link.
func (n *Node) serveAccepted(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()

	wc := wire.NewConn(conn)
	first, err := wc.Read()
	if err != nil {
		return
	}
	hello, ok := first.(*wire.Hello)
	if !ok {
		n.logf("inbound connection did not start with hello: %v", first.Type())
		return
	}
	// Protocol negotiation: reject placement/version mismatches with a clear
	// error, never a decode failure downstream.
	if reason := n.rejectHello(hello); reason != "" {
		n.logf("rejecting inbound link: %s", reason)
		return
	}
	c := n.newConn(hello.NodeID, conn, wc, false)
	if hello.Addr != "" {
		// The answer is the connection's first frame, ahead of whatever other
		// goroutines send once adopt has made it the link.
		answer := n.hello()
		c.sendMu.Lock()
		adopted := n.adopt(c, hello.Addr)
		if !adopted {
			answer.Addr = ""
		}
		wc.Write(answer) // a failure shows in the read loop
		c.sendMu.Unlock()
		if adopted {
			n.wg.Add(1)
			go n.linkSender(c)
		}
	}
	n.readLoop(c)
}

// readLoop reads one connection until it fails. It never writes to the
// connection it reads: with both ends of a link reading and answering on one
// socket, two read loops blocked in a write to each other would never drain
// the buffers they are waiting on. Replies leave through reply, the fetch
// workers or the link's sender.
func (n *Node) readLoop(c *peerLink) {
	defer close(c.fetches)
	for {
		msg, err := c.wc.Read()
		if err != nil {
			n.linkDown(c)
			return
		}
		if !n.dispatch(c, msg) {
			n.logf("unexpected %v from %d", msg.Type(), c.id)
		}
	}
}

// isRequest reports the messages answered on any connection; every other
// message is link traffic and unexpected anywhere else.
func isRequest(t wire.MsgType) bool {
	return t == wire.MsgFetch || t == wire.MsgPing || t == wire.MsgStats || t == wire.MsgInvalidate
}

// dispatch is the one table of inbound messages: what a node does with each
// wire message read from a peer link or, for the requests, from any other
// connection. It reports false for a message that is unexpected there.
// One-way messages are applied in place, so a link's stream is applied in
// the order its peer wrote it.
func (n *Node) dispatch(c *peerLink, msg wire.Message) bool {
	t := msg.Type()
	if c.queue == nil && !isRequest(t) {
		return false
	}
	if !n.cfg.RingMode && (t == wire.MsgJoin || t == wire.MsgLeave || t == wire.MsgRingUpdate) {
		n.logf("%v from node %d ignored: this node runs replicate placement (start it with swalad -profile=production to accept joins)", t, c.id)
		return true
	}
	switch m := msg.(type) {
	case *wire.Fetch:
		// One goroutine per fetch in flight, as in the paper's cacher
		// module: an idle one takes m, else a new one starts.
		select {
		case c.fetches <- m:
		default:
			n.wg.Add(1)
			go n.fetchWorker(c, m)
		}
	case *wire.FetchReply:
		if !c.deliver(m.Seq, m) {
			m.Release() // its fetch timed out or was cancelled
		}
	case *wire.Ping:
		n.reply(c, &wire.Pong{Seq: m.Seq})
	case *wire.Pong:
		c.deliver(m.Seq, nil)
	case *wire.Stats:
		n.reply(c, &wire.StatsReply{Seq: m.Seq, Samples: n.handler.HandleStats()})
	case *wire.Invalidate:
		matched, peers, unreached := n.handler.HandleInvalidate(m)
		if m.Seq != 0 {
			n.reply(c, &wire.InvalAck{
				Seq: m.Seq, Matched: uint32(matched),
				Peers: uint32(peers), Unreached: uint32(unreached),
			})
		}
	case *wire.DirBatch:
		n.handler.HandleDirBatch(m)
	case *wire.DirSyncReq:
		// The peer told us its floor of our log: the sender ships the
		// records above it behind everything already queued.
		select {
		case c.floors <- m.Version:
		default: // a link's peer asks once
		}
	case *wire.DirSync:
		// Even an empty catch-up is applied: it is the convergence signal
		// that lifts a rejoined peer's quarantine.
		n.handler.HandleDirSync(m)
		n.syncsApplied.Add(1)
	case *wire.ReplicaPush:
		n.handler.HandleReplicaPush(m)
	case *wire.ReplicaEvent:
		n.handler.HandleReplicaEvent(m)
	case *wire.Join:
		n.admitMember(m.NodeID, dialBack(m.Addr, c.conn))
	case *wire.Leave:
		n.mergeMembers([]wire.Member{{ID: m.NodeID, Incarnation: m.Incarnation, Left: true}}, true)
	case *wire.RingUpdate:
		n.handleRingUpdate(c, m)
	default:
		return false
	}
	return true
}

// fetchWorker answers m and then every fetch the read loop hands it, until
// the connection goes; the body travels from the handler's lease to the
// stream.
func (n *Node) fetchWorker(c *peerLink, m *wire.Fetch) {
	defer n.wg.Done()
	var r wire.FetchReply // escapes into the handler: one per worker
	for ; m != nil; m = <-c.fetches {
		r = wire.FetchReply{Seq: m.Seq}
		release := n.handler.HandleFetch(m.Key, m.Flags, &r)
		err := c.send(&r)
		if release != nil {
			release()
		}
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// The requester could not read the frame and would drop the
			// link over it: answer a false hit, and it executes the request.
			r = wire.FetchReply{Seq: m.Seq}
			err = c.send(&r)
		}
		if err != nil {
			n.logf("fetch reply to %d: %v", c.id, err)
		}
	}
}

// reply writes a read loop's answer to a request from a goroutine of its
// own, for the reason readLoop gives.
func (n *Node) reply(c *peerLink, m wire.Message) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := c.send(m); err != nil {
			n.logf("%v to %d: %v", m.Type(), c.id, err)
		}
	}()
}

// --- peers and their links ---

// peer is everything a node keeps about one other node, guarded by Node.mu.
type peer struct {
	id   uint32
	link *peerLink // the pair's one connection, dialed or adopted; nil before the first
	// addr is where the peer is dialed: the address ConnectPeer or membership
	// gave, else the one its Hello announced (see adopt).
	addr string
	// intended: ConnectPeer or membership asked for a link, so fan-out
	// accounting counts the peer as unreached while it has none.
	intended bool

	// loop is closed when the running dial loop ends (nil when none runs);
	// unbounded asks that loop to carry on past its caller's context until
	// the pair is linked. abort cancels the dial attempt in flight.
	loop      chan struct{}
	unbounded bool
	abort     context.CancelFunc

	drops uint64 // broadcasts dropped for it

	health PeerHealthInfo // Peer left unset
	score  peerScore
}

// linked reports whether the pair has a live link.
func (p *peer) linked() bool { return p.link != nil && p.link.live() }

// teardown aborts p's dial attempt in flight and closes its link. Callers
// hold n.mu.
func (p *peer) teardown() {
	if p.abort != nil {
		p.abort()
	}
	if p.link != nil {
		p.link.close()
	}
}

// peerLocked returns id's record, made on first use. Callers hold n.mu.
func (n *Node) peerLocked(id uint32) *peer {
	p := n.peers[id]
	if p == nil {
		p = &peer{id: id}
		n.peers[id] = p
	}
	return p
}

// link returns the pair's link to id, nil when there is none.
func (n *Node) link(id uint32) *peerLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[id]; p != nil {
		return p.link
	}
	return nil
}

// outMsg is one entry in a link's send queue: either a record of this node's
// origin log (batchable) or an arbitrary message written as its own frame.
type outMsg struct {
	msg      wire.Message
	update   wire.DirUpdate
	version  uint64
	isUpdate bool
}

// peerLink is one served connection. Held by a peer record it is the pair's
// link — the one connection both nodes send everything to each other
// on, whichever of them dialed it — and owns a send queue and a sender; a
// connection that is not a link (queue == nil) only answers requests.
type peerLink struct {
	id     uint32
	conn   net.Conn
	wc     *wire.Conn
	dialed bool // by this node; false = accepted

	sendMu sync.Mutex // serializes writes to wc
	queue  chan outMsg
	// floors (capacity 1) hands the sender the floor the peer's DirSyncReq
	// names; syncCh (capacity 1) wakes the sender to ship a catch-up when a
	// record toward the peer was dropped or written past a gap.
	floors chan uint64
	syncCh chan struct{}
	done   chan struct{} // closed when the link shuts down
	// fetches hands the peer's fetches to idle fetch workers; the read loop
	// closes it on its way out.
	fetches chan *wire.Fetch

	// since is how far into our log the peer has been sent every record:
	// set from its DirSyncReq and by each catch-up, advanced over batches
	// that continue it. Only the sender touches it.
	since directory.Cursor

	// flushes points at the owning node's flush counter so every real
	// stream push on this link is accounted.
	flushes *atomic.Uint64

	// scratch buffers reused by the sender's drain-coalesce loop.
	run   []outMsg
	batch []wire.DirUpdate

	mu sync.Mutex
	// pending holds, by sequence number, the channel (capacity 1: the read
	// loop never blocks on it) each request in flight gets its answer on: a
	// fetch its FetchReply, a ping a nil for its Pong. Closing the link
	// closes them.
	pending map[uint64]chan *wire.FetchReply
	nextSeq uint64
	closed  bool
}

// deliver hands r to the request it answers, if that still waits.
func (p *peerLink) deliver(seq uint64, r *wire.FetchReply) bool {
	p.mu.Lock()
	ch := p.pending[seq]
	delete(p.pending, seq)
	p.mu.Unlock()
	if ch != nil {
		ch <- r
	}
	return ch != nil
}

// fetchWaiter is what one request blocks on: its answer's channel and the
// timer bounding the wait. Only a request that got its answer pools its
// waiter again: on every other exit a closing link or a late answer may touch
// the channel.
type fetchWaiter struct {
	ch    chan *wire.FetchReply // capacity 1: the reader never blocks on it
	timer *time.Timer
}

// quickWait is how long a request waits for its answer before it also waits
// on its context: several round trips, a thousandth of the default
// FetchTimeout.
const quickWait = time.Millisecond

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &fetchWaiter{ch: make(chan *wire.FetchReply, 1), timer: t}
}}

// roundTrip sends the request m, numbered through seq (m's own Seq field),
// and waits for its answer — a Fetch's FetchReply, nil for a Ping's Pong —
// for at most timeout and no longer than ctx. A link torn down meanwhile
// fails it at once with ErrNoPeer.
func (p *peerLink) roundTrip(ctx context.Context, timeout time.Duration, m wire.Message, seq *uint64) (*wire.FetchReply, error) {
	w := waiterPool.Get().(*fetchWaiter)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		waiterPool.Put(w)
		return nil, p.errClosed()
	}
	p.nextSeq++
	*seq = p.nextSeq
	p.pending[*seq] = w.ch
	p.mu.Unlock()
	err := p.send(m)
	if err == nil {
		// An answer is usually there within a fraction of a millisecond, and
		// a context can charge for its Done channel (httpserver's starts the
		// disconnect watch with it): wait quickWait on the answer alone, and
		// ask the context only for a request that outlasts it.
		quick := min(timeout, quickWait)
		rest := timeout - quick
		w.timer.Reset(quick)
		var done <-chan struct{}
	wait:
		select {
		case reply, open := <-w.ch:
			if !w.timer.Stop() {
				// Fired meanwhile: take the tick out before the timer is reused.
				select {
				case <-w.timer.C:
				default:
				}
			}
			if open {
				waiterPool.Put(w)
				return reply, nil
			}
			err = p.errClosed()
		case <-w.timer.C:
			if rest > 0 {
				done = ctx.Done()
				w.timer.Reset(rest)
				rest = 0
				goto wait
			}
			err = ctxFetchErr(context.DeadlineExceeded)
		case <-done:
			w.timer.Stop()
			err = ctxFetchErr(ctx.Err())
		}
	} else {
		err = fmt.Errorf("cluster: %v to %d: %w", m.Type(), p.id, err)
	}
	p.mu.Lock()
	delete(p.pending, *seq) // given up on: a late answer finds no one
	p.mu.Unlock()
	return nil, err
}

func (p *peerLink) errClosed() error {
	return fmt.Errorf("%w: %d (link closed)", ErrNoPeer, p.id)
}

func (n *Node) newConn(id uint32, conn net.Conn, wc *wire.Conn, dialed bool) *peerLink {
	return &peerLink{
		id: id, conn: conn, wc: wc, dialed: dialed,
		done:    make(chan struct{}),
		fetches: make(chan *wire.Fetch),
		flushes: &n.flushes,
	}
}

// wakeSync asks the sender for an anti-entropy pass; one already asked for
// covers this one too.
func (p *peerLink) wakeSync() {
	select {
	case p.syncCh <- struct{}{}:
	default:
	}
}

func (p *peerLink) send(m wire.Message) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if err := p.wc.WriteBuffered(m); err != nil {
		return err
	}
	wrote, err := p.wc.Flush()
	if wrote {
		p.flushes.Add(1)
	}
	return err
}

func (p *peerLink) live() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.closed
}

func (p *peerLink) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pending := p.pending
	p.pending = make(map[uint64]chan *wire.FetchReply)
	p.mu.Unlock()
	close(p.done)
	p.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// register makes c p's link, in place of whatever was. Callers hold n.mu.
func (n *Node) register(p *peer, c *peerLink) {
	c.queue = make(chan outMsg, n.sendQueue)
	c.floors = make(chan uint64, 1)
	c.syncCh = make(chan struct{}, 1)
	c.pending = make(map[uint64]chan *wire.FetchReply)
	p.link = c
}

// adopt makes an accepted connection from a cluster node this node's link to
// it, and reports whether it did. A pair settles on one connection even when
// both nodes dial at once, by a rule both apply to the same two connections:
// the one dialed by the lower NodeID is the link. So the higher node's dial
// is not adopted while this node has its own dial to that peer in flight or
// alive, and adopting the lower node's aborts this node's own. The spare was
// never either end's link, so no end sees a link die of the tie-break. A
// connection that is adopted replaces the link that was: a peer that dials
// again has given the old one up.
//
// announced, the listen address in the peer's Hello, becomes the dial
// address only when ConnectPeer or membership never gave one for that peer:
// a node knows the address it listens on, not the one it is reached at.
func (n *Node) adopt(c *peerLink, announced string) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	p := n.peerLocked(c.id)
	cur, abort := p.link, p.abort
	if c.id > n.cfg.NodeID && (abort != nil || cur != nil && cur.dialed && cur.live()) {
		n.mu.Unlock()
		return false
	}
	n.register(p, c)
	if p.addr == "" {
		p.addr = dialBack(announced, c.conn)
	}
	n.mu.Unlock()
	if cur != nil {
		cur.close()
	}
	if abort != nil {
		abort() // our own dial is the spare now
	}
	return true
}

// dialBack is where the node at the far end of conn is dialed: the address it
// announced, with the host conn came from when it announced none (a listener
// on every interface, swalad's default).
func dialBack(announced string, conn net.Conn) string {
	host, port, err := net.SplitHostPort(announced)
	if err != nil {
		return announced // a netx.Mem name
	}
	if ip := net.ParseIP(host); host != "" && (ip == nil || !ip.IsUnspecified()) {
		return announced
	}
	from, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		return announced
	}
	return net.JoinHostPort(from, port)
}

// linkDown closes a connection that failed. If it was still the pair's link —
// not replaced, forgotten or shut down with the node — the peer is suspected
// and redialed until the pair is linked again, whichever side had dialed the
// link.
func (n *Node) linkDown(c *peerLink) {
	c.close()
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[c.id]
	if p == nil || p.link != c || n.closed {
		return
	}
	n.suspectLocked(p)
	n.keepDialingLocked(p, true)
}

// ConnectPeer makes sure this node has a link to peerID, dialing addr unless
// one is already up (the peer may have dialed first: a pair shares one link).
// It keeps dialing for connectWindow so nodes can start in any order, and
// both nodes of a pair may call it at the same time (see adopt).
func (n *Node) ConnectPeer(peerID uint32, addr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), connectWindow)
	defer cancel()
	return n.ConnectPeerContext(ctx, peerID, addr)
}

// ConnectPeerContext is ConnectPeer for as long as ctx lives. It runs the
// peer's dial loop itself, or waits for the one already running, and returns
// as soon as ctx ends or the node closes.
func (n *Node) ConnectPeerContext(ctx context.Context, peerID uint32, addr string) error {
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return ErrClosed
		}
		p := n.peerLocked(peerID)
		p.intended, p.addr = true, addr
		if p.linked() {
			n.mu.Unlock()
			return nil
		}
		running := p.loop
		if running == nil {
			p.loop = make(chan struct{})
		}
		n.mu.Unlock()
		if running == nil {
			return n.dialLoop(ctx, p, false)
		}
		select {
		case <-running: // over: look again
		case <-ctx.Done():
			return fmt.Errorf("cluster: dial peer %d at %s: %w", peerID, addr, ctx.Err())
		case <-n.done:
			return ErrClosed
		}
	}
}

// keepDialingLocked makes sure a dial loop runs for p until the pair is
// linked, p is forgotten or the node closes: a new one (after a jittered
// pause when pause is set), or the one running, which then outlives its
// caller's context. Callers hold n.mu on an open node.
func (n *Node) keepDialingLocked(p *peer, pause bool) {
	p.unbounded = true
	if p.loop != nil {
		return
	}
	p.loop = make(chan struct{})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.dialLoop(context.Background(), p, pause)
	}()
}

// dialLoop is the one loop that dials a peer: one attempt at a time,
// jitter(dialRetry) apart (the first at once unless pause), until the pair is
// linked, p is forgotten, the node closes or ctx ends. Its starter has set
// p.loop, which the loop owns until it ends.
func (n *Node) dialLoop(ctx context.Context, p *peer, pause bool) error {
	var up bool
	var err error
	logged := time.Now()
	for ; ; pause = true {
		if pause {
			select {
			case <-time.After(jitter(dialRetry)):
			case <-ctx.Done():
			case <-n.done:
			}
		}
		attempt, abort := context.WithTimeout(ctx, connectWindow)
		n.mu.Lock()
		addr, unbounded := p.addr, p.unbounded
		over := n.closed || n.peers[p.id] != p || p.linked() || ctx.Err() != nil
		if !over {
			// Until this attempt settles no dial of a higher peer is adopted
			// (see adopt); adopting a lower one's, forget or Close aborts it.
			p.abort = abort
		}
		n.mu.Unlock()
		if !over {
			up, err = n.dialLink(attempt, p, addr)
		}
		abort()
		if over || up {
			break
		}
		if unbounded && time.Since(logged) >= connectWindow {
			n.logf("reconnect to peer %d: %v", p.id, err)
			logged = time.Now()
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	close(p.loop)
	p.loop = nil
	unbounded := p.unbounded
	p.unbounded = false
	switch {
	case n.closed:
		return ErrClosed
	case n.peers[p.id] != p:
		return errForgotten
	case up || p.linked():
		if unbounded {
			n.logf("reconnected to peer %d at %s", p.id, p.addr)
		}
		return nil
	case unbounded:
		n.keepDialingLocked(p, true) // asked to outlive ctx, which ended
	}
	return fmt.Errorf("cluster: dial peer %d at %s: %w (last attempt: %v)", p.id, p.addr, ctx.Err(), err)
}

// errDialInFlight fails a dial attempt the peer answered as a spare: the pair
// keeps the peer's own dial, whose adoption aborted this attempt.
var errDialInFlight = errors.New("another dial in flight")

// dialLink is one attempt of a dial loop: up reports that the pair has its
// link, dialed by this attempt unless the peer's own dial got there first. A
// dialed connection is the link once the peer's Hello says it adopted it (see
// serveAccepted), so the link ConnectPeer returns with is the one both ends
// use.
func (n *Node) dialLink(ctx context.Context, p *peer, addr string) (up bool, err error) {
	c, answer, err := n.dialHello(ctx, addr)
	if err == nil && answer != nil {
		switch {
		case answer.NodeID != p.id:
			err = fmt.Errorf("the node there is %d", answer.NodeID)
		case answer.Addr == "":
			// The peer keeps the link it dialed itself: adopting that one
			// aborts this attempt.
			c.conn.Close()
			<-ctx.Done()
			err = errDialInFlight
		}
	}
	return n.settle(c, p, err)
}

// settle ends a dial attempt, err telling how it went: c becomes p's link
// unless the lower node's dial was adopted while this one was in flight,
// which makes this one the spare (see adopt), or p was forgotten meanwhile.
func (n *Node) settle(c *peerLink, p *peer, err error) (up bool, _ error) {
	n.mu.Lock()
	p.abort = nil
	cur := p.link
	switch {
	case n.closed:
		err = ErrClosed
	case n.peers[p.id] != p:
		err = errForgotten
	case cur != nil && cur.live() && n.cfg.NodeID > p.id:
		up, err = true, nil
	case err == nil:
		c.id = p.id
		n.register(p, c)
		n.wg.Add(2)
		n.mu.Unlock()
		if cur != nil {
			cur.close()
		}
		go n.linkSender(c)
		go func() {
			defer n.wg.Done()
			n.readLoop(c)
		}()
		return true, nil
	}
	n.mu.Unlock()
	if c != nil {
		c.conn.Close()
	}
	return up, err
}

// hello introduces this node on a connection.
func (n *Node) hello() *wire.Hello {
	h := &wire.Hello{NodeID: n.cfg.NodeID, NodeName: n.cfg.Name, Addr: n.Addr(), ProtoVersion: wire.ProtoVersion}
	if n.cfg.RingMode {
		h.Placement = wire.PlacementRing
	}
	return h
}

// dialHello dials addr, introduces this node and waits for the Hello the node
// there answers with. A node that rejects ours hangs up instead, which is no
// error here (answer is nil): to ConnectPeer that is a link that dies the way
// links do, redial included.
func (n *Node) dialHello(ctx context.Context, addr string) (c *peerLink, answer *wire.Hello, err error) {
	conn, err := n.cfg.Network.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	c = n.newConn(0, conn, wire.NewConn(conn), true) // settle names the peer
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	// The context may have been cancelled while the dial was in flight; a
	// link registered after cancellation would outlive the caller's intent,
	// so give the connection back.
	if err = ctx.Err(); err == nil {
		err = c.wc.Write(n.hello())
	}
	if err == nil {
		if first, rerr := c.wc.Read(); rerr == nil {
			if answer, _ = first.(*wire.Hello); answer == nil {
				err = fmt.Errorf("hello answered with %v", first.Type())
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return c, answer, nil
}

// linkSender opens this node's half of a link's stream and then drains the
// async queue onto the wire. Broadcast updates travel through here so that
// directory maintenance never blocks request handling (the paper's
// asynchronous update design). The writer is corked: the sender
// drain-coalesces whatever has accumulated in the queue — packing runs of
// directory updates into DirBatch frames — and flushes only when the queue
// runs empty. Under light load each update flushes immediately; under an
// insert storm the flush (one write syscall on TCP) amortizes over the whole
// drained run.
func (n *Node) linkSender(link *peerLink) {
	defer n.wg.Done()
	err := n.writeLinkUp(link)
	if err == nil {
		// Nothing queued leaves before the peer's DirSyncReq has said what it
		// holds: the catch-up from its floor goes first.
		select {
		case v := <-link.floors:
			link.since = directory.Cursor(v)
			err = n.writeSync(link)
		case <-link.done:
			return
		}
	}
	for err == nil {
		select {
		case om := <-link.queue:
			var owed bool
			if owed, err = n.writeCoalesced(link, om); owed && err == nil {
				err = n.writeSync(link)
			}
		case v := <-link.floors:
			link.since = directory.Cursor(v)
			err = n.writeSync(link)
		case <-link.syncCh:
			err = n.writeSync(link)
		case <-link.done:
			return
		}
	}
	n.logf("send to peer %d: %v", link.id, err)
	n.linkDown(link)
}

// writeLinkUp is the exchange each end opens a link with once the Hellos
// have crossed, whichever end dialed: a DirSyncReq telling the peer our floor
// of its origin log, so it ships the catch-up we are missing (and an
// affirmative "you are current" when there is none — see writeSync), and in
// ring mode the full membership view, link establishment being membership's
// anti-entropy path too. The peer answers through its sender, so a catch-up
// at version V is followed on the stream only by batches it covers or that
// continue it.
func (n *Node) writeLinkUp(link *peerLink) error {
	req := &wire.DirSyncReq{Version: n.handler.DirVersion(link.id)}
	if err := link.send(req); err != nil || !n.cfg.RingMode {
		return err
	}
	return link.send(&wire.RingUpdate{Origin: n.cfg.NodeID, Members: n.MembersSnapshot()})
}

// maxDrain bounds how many queue items one drain pass collects before
// writing, so a sustained storm cannot grow the in-memory run unboundedly.
const maxDrain = 1024

// writeCoalesced writes first plus everything else currently queued, corked,
// and flushes once the queue runs empty, or as soon as a run owes the peer a
// catch-up (see writeRun), which it then reports: every record still queued
// past the gap would be refused too. The send mutex is released between
// rounds so fetches and pings can interleave with a long storm.
func (n *Node) writeCoalesced(link *peerLink, first outMsg) (owed bool, err error) {
	pending := append(link.run[:0], first)
	defer func() { link.run = pending[:0] }()
	for {
	drain:
		for len(pending) < maxDrain {
			select {
			case om := <-link.queue:
				pending = append(pending, om)
			default:
				break drain
			}
		}
		link.sendMu.Lock()
		owed, err = n.writeRun(link, pending)
		if err == nil && (owed || len(link.queue) == 0) {
			// Queue ran empty: uncork. A racing enqueue after this check
			// costs one extra flush, nothing more.
			var wrote bool
			wrote, err = link.wc.Flush()
			if wrote {
				n.flushes.Add(1)
			}
			link.sendMu.Unlock()
			return owed, err
		}
		link.sendMu.Unlock()
		if err != nil {
			return false, err
		}
		pending = pending[:0]
	}
}

// writeRun writes one drained run: consecutive records of the log are packed
// into DirBatch frames (split at batchLimit and at version gaps, since a
// batch numbers its records from its last one), other messages go out as
// their own frames, everything corked until the caller flushes. A batch that
// does not continue the peer's cursor would be refused there: it is not
// written, and writeRun reports that the peer is owed a catch-up, which will
// carry it. Callers hold sendMu.
func (n *Node) writeRun(link *peerLink, run []outMsg) (owed bool, err error) {
	batch := link.batch[:0]
	defer func() { link.batch = batch[:0] }()
	var ver uint64
	writeBatch := func() error {
		defer func() { batch = batch[:0] }()
		if len(batch) == 0 {
			return nil
		}
		if ver != 0 && !link.since.Wrote(ver+1-uint64(len(batch)), ver) {
			owed = true
			return nil
		}
		n.batchFrames.Add(1)
		n.updatesSent.Add(uint64(len(batch)))
		return link.wc.WriteBuffered(&wire.DirBatch{
			Owner:   n.cfg.NodeID,
			Version: ver,
			Updates: batch,
		})
	}
	for i := range run {
		om := &run[i]
		if !om.isUpdate {
			if err := writeBatch(); err != nil {
				return owed, err
			}
			if err := link.wc.WriteBuffered(om.msg); err != nil {
				return owed, err
			}
			continue
		}
		if len(batch) > 0 && !(ver == 0 && om.version == 0 || ver != 0 && om.version == ver+1) {
			if err := writeBatch(); err != nil {
				return owed, err
			}
		}
		batch = append(batch, om.update)
		ver = om.version
		if len(batch) >= batchLimit {
			if err := writeBatch(); err != nil {
				return owed, err
			}
		}
	}
	err = writeBatch()
	return owed, err
}

// writeSync ships an anti-entropy catch-up of this node's log to the peer:
// everything above its cursor. The queue is drained first, so the catch-up
// comes after every record already written and covers all of them; whatever
// is queued behind it and at or below its version the peer skips, and
// whatever is above continues the cursor the catch-up leaves.
func (n *Node) writeSync(link *peerLink) error {
	select {
	case om := <-link.queue:
		if _, err := n.writeCoalesced(link, om); err != nil {
			return err
		}
	default:
	}
	since := uint64(link.since)
	msg := n.handler.BuildDirSync(since)
	if msg == nil {
		// The peer is already current. Still send an empty delta at the
		// current version: a rejoining peer that quarantined our entries
		// while we were gone needs a convergence signal to lift the
		// quarantine, and with nothing to catch up this ack is the only
		// DirSync it would ever see.
		msg = &wire.DirSync{Owner: n.cfg.NodeID, Version: since}
	}
	if err := link.send(msg); err != nil {
		return err
	}
	n.syncsSent.Add(1)
	if msg.Full {
		n.syncFull.Add(1)
	} else {
		n.syncDelta.Add(1)
	}
	n.syncUpdates.Add(uint64(len(msg.Updates)))
	link.since = directory.Cursor(msg.Version)
	return nil
}

// jitter spreads a wait uniformly over [d/2, d], so the links that died in
// one partition are not redialed in lockstep after a heal: N simultaneous
// dials (and Hello/DirSync exchanges) on the recovered peer.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Peers returns the IDs of the peers that have a link, ascending.
func (n *Node) Peers() []uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]uint32, 0, len(n.peers))
	for id, p := range n.peers {
		if p.link != nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SendTo writes msg directly to one peer's link, bypassing the broadcast
// queues — the transport for targeted control traffic such as handoff
// metadata pushes during a rebalance.
func (n *Node) SendTo(peer uint32, msg wire.Message) error {
	link := n.link(peer)
	if link == nil {
		return fmt.Errorf("%w: %d", ErrNoPeer, peer)
	}
	return link.send(msg)
}

// Broadcast enqueues m to every peer without blocking the caller and reports
// the fan-out: peers is how many peers the node was asked to reach (links
// plus peers still dialing), unreached how many did not take m — no link
// yet, or a full queue, which drops m for that peer and counts it. The weak
// consistency protocol tolerates the staleness (a false miss or false hit).
func (n *Node) Broadcast(m wire.Message) (peers, unreached int) {
	return n.broadcast(outMsg{msg: m})
}

// BroadcastUpdate enqueues one record of this node's origin log to every
// peer, to travel in a DirBatch (version 0 = unversioned: anti-entropy does
// not cover it), and reports the fan-out as Broadcast does; anti-entropy
// replays the record to a peer it did not reach. Callers must present
// records in version order (the directory's OnUpdate callback does, holding
// its lock), which makes per-link queue contents version-ordered — the
// invariant anti-entropy sync relies on.
func (n *Node) BroadcastUpdate(u wire.DirUpdate, version uint64) (peers, unreached int) {
	return n.broadcast(outMsg{isUpdate: true, update: u, version: version})
}

func (n *Node) broadcast(om outMsg) (peers, unreached int) {
	n.mu.Lock()
	links := make([]*peerLink, 0, len(n.peers))
	for _, p := range n.peers {
		switch {
		case p.link != nil:
			links = append(links, p.link)
		case p.intended: // asked for, never linked: unreached, not nonexistent
			unreached++
		}
	}
	n.mu.Unlock()
	peers = len(links) + unreached
	for _, l := range links {
		select {
		case l.queue <- om:
			if om.isUpdate {
				n.updates.Add(1)
			}
		default:
			unreached++
			n.dropped.Add(1)
			n.mu.Lock()
			if p := n.peers[l.id]; p != nil {
				p.drops++
			}
			n.mu.Unlock()
			if om.isUpdate {
				// A dropped record leaves a gap in the log toward this peer,
				// which stops its floor: the sender's cursor stops there too,
				// and a catch-up replays the gap.
				l.wakeSync()
			}
			n.logf("broadcast queue full for peer %d; dropped %v", l.id, dropKind(om))
		}
	}
	return peers, unreached
}

func dropKind(om outMsg) string {
	if om.isUpdate {
		return "dir-update"
	}
	return om.msg.Type().String()
}

// Dropped reports broadcasts dropped due to full peer queues.
func (n *Node) Dropped() uint64 { return n.dropped.Load() }

// DroppedByPeer returns per-peer dropped-broadcast counts, covering every
// known peer (zero for one that has lost nothing).
func (n *Node) DroppedByPeer() map[uint32]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[uint32]uint64, len(n.peers))
	for id, p := range n.peers {
		out[id] = p.drops
	}
	return out
}

// ReplicationStats snapshots the node's broadcast batching and anti-entropy
// sync counters.
func (n *Node) ReplicationStats() stats.ReplicationSnapshot {
	return stats.ReplicationSnapshot{
		Updates:      n.updates.Load(),
		UpdatesSent:  n.updatesSent.Load(),
		BatchFrames:  n.batchFrames.Load(),
		Flushes:      n.flushes.Load(),
		SyncsSent:    n.syncsSent.Load(),
		SyncFull:     n.syncFull.Load(),
		SyncDelta:    n.syncDelta.Load(),
		SyncUpdates:  n.syncUpdates.Load(),
		SyncsApplied: n.syncsApplied.Load(),
		Dropped:      n.dropped.Load(),
	}
}

// Fetch retrieves a cached body from the peer that owns it. ok=false with a
// nil error is a false hit: the owner no longer has the entry.
//
// The fetch is bounded by both the caller's context and the node's
// FetchTimeout (whichever fires first): the context carries the request's
// end-to-end deadline and cancellation, while FetchTimeout remains the
// per-fetch default so a request with no deadline of its own still cannot
// hang on a dead peer. A deadline expiry is reported as ErrFetchTimeout
// (also wrapping context.DeadlineExceeded); a cancellation wraps
// context.Canceled. The caller tells the two apart — and decides between
// false-hit fallback and aborting the request — by inspecting its own
// context.
func (n *Node) Fetch(ctx context.Context, owner uint32, key string) (contentType string, body []byte, ok bool, err error) {
	reply, err := n.FetchRing(ctx, owner, key, 0)
	if err != nil {
		return "", nil, false, err
	}
	return reply.ContentType, reply.Body, reply.OK, nil // never released: body is the caller's own
}

// FetchRing is Fetch with ring-placement flags (wire.FetchExecute asks the
// owner to run the request on a cache miss; wire.FetchTakeover pulls a body
// during handoff and tells the previous owner to drop its copy;
// wire.FetchReplica pulls a copy the source keeps). The reply's Executed
// reports whether the owner ran the request rather than serving its cache;
// Stored whether the result is cached at the owner (false after an execute
// means the key is not worth routing to the owner again until something
// changes). Its Body is leased: valid until Release, which may never come.
func (n *Node) FetchRing(ctx context.Context, owner uint32, key string, flags uint8) (*wire.FetchReply, error) {
	n.mu.Lock()
	p := n.peers[owner]
	if p == nil || p.link == nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrNoPeer, owner)
	}
	if p.health.State == PeerDead {
		n.mu.Unlock()
		// The failure detector has declared the owner dead: fail fast so the
		// caller degrades to local execution immediately instead of paying
		// FetchTimeout. (The prober keeps pinging, so a recovered peer is
		// marked alive again without fetch traffic.)
		return nil, fmt.Errorf("%w: %d (peer dead)", ErrNoPeer, owner)
	}
	probe, err := n.admitFetch(p)
	link := p.link
	n.mu.Unlock()
	if err != nil {
		// Breaker open: fail fast like the dead-peer path so the caller
		// degrades to local execution without paying FetchTimeout.
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// The round trip looks at ctx only after quickWait.
		n.settleFetch(p, probe, 0, fetchNeutral)
		return nil, ctxFetchErr(err)
	}

	start := time.Now()
	f := &wire.Fetch{Key: key, Flags: flags}
	reply, err := link.roundTrip(ctx, n.cfg.FetchTimeout, f, &f.Seq)
	if err == nil {
		n.settleFetch(p, probe, time.Since(start), fetchOK)
		return reply, nil
	}
	outcome := fetchFailed // a closed link, a failed send or a missed deadline counts against the peer
	if errors.Is(err, context.Canceled) {
		// The caller gave up (hedge loser, client gone): says nothing about it.
		outcome = fetchNeutral
	}
	n.settleFetch(p, probe, 0, outcome)
	return nil, err
}

// ctxFetchErr maps a context failure onto the cluster error vocabulary while
// keeping the context error visible to errors.Is.
func ctxFetchErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrFetchTimeout, err)
	}
	return fmt.Errorf("cluster: fetch canceled: %w", err)
}

// RecyclePeer tears down the link to peer (if any); the automatic reconnect,
// from whichever end gets there first, then performs a fresh Hello — and
// with it the anti-entropy version exchange. The server layer uses this when a dead peer turns alive
// again without its links ever having died (a hung host that recovers): no
// reconnect would otherwise happen, so no DirSyncReq would be exchanged and
// updates lost during the outage would never be healed.
func (n *Node) RecyclePeer(peer uint32) {
	if link := n.link(peer); link != nil {
		n.logf("recycling link to peer %d for a fresh sync exchange", peer)
		link.close()
	}
}

// Ping round-trips a liveness probe to a peer, bounded by ctx and the node's
// FetchTimeout (whichever fires first). It passes neither the dead-peer
// fast-fail nor the breaker: a probe is what revives a dead peer.
func (n *Node) Ping(ctx context.Context, peer uint32) error {
	link := n.link(peer)
	if link == nil {
		return fmt.Errorf("%w: %d", ErrNoPeer, peer)
	}
	m := &wire.Ping{}
	_, err := link.roundTrip(ctx, n.cfg.FetchTimeout, m, &m.Seq)
	return err
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Printf("cluster[%d]: "+format, append([]any{n.cfg.NodeID}, args...)...)
	}
}

// Close tears down the listener and every link and waits for goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	l := n.listener
	for _, p := range n.peers {
		p.teardown() // its dial loop sees the node closed and ends
	}
	for c := range n.inbound {
		c.Close() // its serving goroutine takes it off the table
	}
	n.mu.Unlock()

	if l != nil {
		l.Close()
	}
	n.wg.Wait()
	return nil
}
