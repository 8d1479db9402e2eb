// Package cluster implements Swala's inter-node protocol: node membership,
// asynchronous broadcast of cache directory updates, and remote cache
// fetches. The consistency model is the paper's weak inter-node protocol —
// inserts and deletes are broadcast without global locks or two-phase
// commit, so peers may briefly act on stale directories (false misses and
// false hits), which the server layer tolerates by falling back to local
// execution.
//
// Topology is a full mesh of outbound links: every node dials every peer's
// cluster address. A node writes Insert/Delete/Fetch/Ping on its outbound
// link to a peer and reads FetchReply/Pong back on the same link; messages
// arriving on accepted (inbound) links are directory updates and fetch
// requests from the peer, answered in-place. Every fetch in flight has its own
// goroutine (the paper's cacher module "starts a separate thread for each
// request to return the cache contents"), which then waits for the next one.
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

	"repro/internal/netx"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Handler is the upper layer's (the cache manager's) view of cluster events.
// Implementations must be safe for concurrent use.
type Handler interface {
	// HandleInsert applies a peer's directory insert broadcast.
	HandleInsert(m *wire.Insert)
	// HandleDelete applies a peer's directory delete broadcast.
	HandleDelete(m *wire.Delete)
	// HandleFetch answers a peer's fetch of key by filling in reply: OK=false
	// signals a false hit (the entry is gone). flags are the wire.Fetch* ring
	// flags (zero, and ignored, under replicate placement). Body may be
	// leased: the link calls release, when not nil, once reply is written.
	HandleFetch(key string, flags uint8, reply *wire.FetchReply) (release func())
	// HandleStats returns the node's counters for swalactl.
	HandleStats() wire.StatsReply
	// HandleInvalidate drops locally owned entries matching the pattern.
	HandleInvalidate(m *wire.Invalidate)
}

// DirSyncer is implemented by handlers that speak versioned directory
// replication: batched update apply plus anti-entropy catch-up sync. It is
// optional — a handler without it still interoperates: incoming batches are
// unrolled into HandleInsert/HandleDelete calls and sync frames are skipped.
type DirSyncer interface {
	// HandleDirBatch applies a batched run of directory updates.
	HandleDirBatch(m *wire.DirBatch)
	// HandleDirSync applies an anti-entropy catch-up from a peer.
	HandleDirSync(m *wire.DirSync)
	// DirVersion reports the highest update version applied from owner's
	// directory table (0 = never seen a versioned update from it).
	DirVersion(owner uint32) uint64
	// BuildDirSync assembles a catch-up that brings a replica which last
	// saw version since up to date with the local table; nil when the
	// replica is already current.
	BuildDirSync(since uint64) *wire.DirSync
}

// ReplicaHandler is implemented by handlers that speak adaptive hot-entry
// replication: targeted replica pushes from a key's home owner and broadcast
// replica events announcing where copies live. Optional — without it both
// message kinds are ignored.
type ReplicaHandler interface {
	// HandleReplicaPush applies a home owner's instruction to hold (or
	// retire) a replica of one of its hot entries.
	HandleReplicaPush(m *wire.ReplicaPush)
	// HandleReplicaEvent applies a holder's announcement that it now serves
	// (or no longer serves) a replica.
	HandleReplicaEvent(m *wire.ReplicaEvent)
}

// WaveSyncer is implemented by handlers that ride versioned invalidation
// waves on the directory replication channel: broadcast wave frames plus
// anti-entropy replay of waves a peer missed. Optional — without it wave
// frames are ignored and DirSync frames carry no waves.
type WaveSyncer interface {
	// HandleInvalWave applies one invalidation wave from a peer.
	HandleInvalWave(m *wire.InvalWave)
	// HandleWaveSync applies waves replayed inside a DirSync catch-up.
	HandleWaveSync(origin uint32, waves []wire.InvalWave)
	// WaveFloor reports the highest contiguous wave sequence applied from
	// origin — the WaveSeq advertised in a DirSyncReq toward it.
	WaveFloor(origin uint32) uint64
	// BuildWaveSync returns this node's own waves that a peer whose applied
	// floor is since still needs, in sequence order (nil when current).
	BuildWaveSync(since uint64) []wire.InvalWave
}

// InvalidateAcker is implemented by handlers that account invalidation
// fan-out. An administrative Invalidate carrying a Seq is dispatched here
// and answered with an InvalAck, so the admin client can see how many peers
// the wave could not reach instead of the drop being silent.
type InvalidateAcker interface {
	// HandleInvalidateCounted applies an invalidation and reports the local
	// matches plus the fan-out accounting.
	HandleInvalidateCounted(m *wire.Invalidate) (matched, peers, unreached int)
}

// NopHandler ignores all events; useful for tests and pseudo-servers.
type NopHandler struct{}

// HandleInsert implements Handler.
func (NopHandler) HandleInsert(*wire.Insert) {}

// HandleDelete implements Handler.
func (NopHandler) HandleDelete(*wire.Delete) {}

// HandleFetch implements Handler.
func (NopHandler) HandleFetch(string, uint8, *wire.FetchReply) func() { return nil }

// HandleStats implements Handler.
func (NopHandler) HandleStats() wire.StatsReply { return wire.StatsReply{} }

// HandleInvalidate implements Handler.
func (NopHandler) HandleInvalidate(*wire.Invalidate) {}

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
	// DialRetry is how long ConnectPeer keeps retrying an unreachable peer
	// (default 5s), so nodes can start in any order.
	DialRetry time.Duration
	// SendQueue is the per-peer async broadcast queue depth (default 1024).
	SendQueue int
	// DisableReconnect turns off automatic redial of failed peer links
	// (links normally reconnect with exponential backoff).
	DisableReconnect bool
	// DisableBatching writes (and flushes) every directory update as its
	// own frame instead of drain-coalescing the send queue into corked
	// DirBatch frames — the pre-batching wire behaviour, one stream push
	// per update.
	DisableBatching bool
	// DisableSync turns off anti-entropy directory sync (version exchange
	// on Hello and catch-up snapshots/deltas).
	DisableSync bool
	// BatchLimit caps the updates packed into one DirBatch frame
	// (default 256).
	BatchLimit int
	// Health tunes the peer failure detector (see HealthConfig). The zero
	// value enables it with conservative defaults; set Health.Disable for
	// the paper's reactive-only failure handling.
	Health HealthConfig
	// Score tunes per-peer fetch latency/failure scoring and the circuit
	// breaker (see ScoreConfig). The zero value disables both.
	Score ScoreConfig
	// OnPeerState, when set, observes failure-detector transitions (alive →
	// suspect → dead and back). It runs with the detector lock held so one
	// peer's transitions arrive in order; it must be fast and must not call
	// back into the Node.
	OnPeerState func(peer uint32, state PeerState)
	// RingMode enables dynamic membership and consistent-hash placement:
	// MsgJoin/MsgLeave/MsgRingUpdate are spoken, Hello announces ring
	// placement, and the failure detector evicts dead members from the ring.
	RingMode bool
	// VirtualNodes is the per-member point count for the placement ring
	// (default ring.DefaultVirtualNodes).
	VirtualNodes int
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
)

// Node is one member of the Swala group.
type Node struct {
	cfg     Config
	handler Handler

	mu           sync.Mutex
	listener     net.Listener
	peers        map[uint32]*peerLink // outbound links by peer ID
	peerAddrs    map[uint32]string    // last known dial address per peer
	intended     map[uint32]bool      // peers ConnectPeer was asked to reach
	reconnecting map[uint32]bool
	inbound      map[net.Conn]struct{}
	closed       bool
	done         chan struct{} // closed when the node shuts down
	wg           sync.WaitGroup

	// needFullSync marks peers that lost at least one update to a full
	// queue since their last sync. It lives on the Node, not the link, so
	// the debt survives link death and is settled on reconnect.
	needFullSync map[uint32]bool
	// peerDrops counts dropped updates per destination peer.
	peerDrops map[uint32]*atomic.Uint64

	// healthMu guards health: the failure detector's per-peer records.
	healthMu sync.Mutex
	health   map[uint32]*peerHealth

	// scoreMu guards scores: per-peer fetch scoring and breaker state.
	scoreMu sync.Mutex
	scores  map[uint32]*peerScore

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
	singleFrames atomic.Uint64
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
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 5 * time.Second
	}
	if cfg.SendQueue <= 0 {
		cfg.SendQueue = 1024
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 256
	}
	cfg.Health.setDefaults()
	cfg.Score.setDefaults()
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = ring.DefaultVirtualNodes
	}
	if handler == nil {
		handler = NopHandler{}
	}
	n := &Node{
		cfg:          cfg,
		handler:      handler,
		peers:        make(map[uint32]*peerLink),
		peerAddrs:    make(map[uint32]string),
		intended:     make(map[uint32]bool),
		reconnecting: make(map[uint32]bool),
		inbound:      make(map[net.Conn]struct{}),
		needFullSync: make(map[uint32]bool),
		peerDrops:    make(map[uint32]*atomic.Uint64),
		health:       make(map[uint32]*peerHealth),
		scores:       make(map[uint32]*peerScore),
		done:         make(chan struct{}),
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
		go n.serveInbound(conn)
	}
}

// serveInbound handles one accepted peer connection: directory updates,
// fetch requests, pings, and stats queries.
func (n *Node) serveInbound(conn net.Conn) {
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
	if reason := n.ringRejectHello(hello); reason != "" {
		n.logf("rejecting inbound link: %s", reason)
		return
	}

	var sendMu sync.Mutex
	reply := func(m wire.Message) {
		sendMu.Lock()
		defer sendMu.Unlock()
		if err := wc.Write(m); err != nil {
			n.logf("inbound reply: %v", err)
		}
	}

	// fetchWorker answers m and then every fetch the read loop hands it, until
	// the link goes; the body travels from the handler's lease to the stream.
	fetches := make(chan *wire.Fetch)
	defer close(fetches)
	fetchWorker := func(m *wire.Fetch) {
		defer n.wg.Done()
		var r wire.FetchReply // escapes into the handler: one per worker
		for ; m != nil; m = <-fetches {
			r = wire.FetchReply{Seq: m.Seq}
			release := n.handler.HandleFetch(m.Key, m.Flags, &r)
			sendMu.Lock()
			err := wc.Write(&r)
			sendMu.Unlock()
			if release != nil {
				release()
			}
			if err != nil {
				n.logf("inbound reply: %v", err)
			}
		}
	}

	// Anti-entropy version exchange: tell a (re)connecting node how much of
	// its directory we have, so it ships the catch-up we are missing. Only
	// real cluster nodes announce a listen address; administrative clients
	// (swalactl) do not and are left alone. Wave state rides the same
	// request even when directory sync is off (ring mode disables the
	// latter but invalidation waves must still heal across reconnects).
	syncer, hasSyncer := n.handler.(DirSyncer)
	waveSyncer, hasWaves := n.handler.(WaveSyncer)
	if hello.Addr != "" {
		req := &wire.DirSyncReq{}
		send := false
		if hasSyncer && !n.cfg.DisableSync {
			req.Version = syncer.DirVersion(hello.NodeID)
			send = true
		}
		if hasWaves {
			req.WaveSeq = waveSyncer.WaveFloor(hello.NodeID)
			send = true
		}
		if send {
			reply(req)
		}
	}
	// Membership anti-entropy: every link (re)establishment between ring
	// nodes exchanges the full membership view, the same pattern DirSyncReq
	// uses for the directory.
	if n.cfg.RingMode && hello.Addr != "" {
		reply(&wire.RingUpdate{Origin: n.cfg.NodeID, Members: n.MembersSnapshot()})
	}

	for {
		msg, err := wc.Read()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.Insert:
			n.handler.HandleInsert(m)
		case *wire.Delete:
			n.handler.HandleDelete(m)
		case *wire.DirBatch:
			if hasSyncer {
				syncer.HandleDirBatch(m)
				break
			}
			// Degrade for handlers that predate batching: unroll into the
			// single-update callbacks, preserving order.
			for i := range m.Updates {
				u := &m.Updates[i]
				if u.Delete {
					n.handler.HandleDelete(&wire.Delete{Owner: u.Owner, Key: u.Key})
				} else {
					n.handler.HandleInsert(&wire.Insert{
						Owner: u.Owner, Key: u.Key, Size: u.Size,
						ExecTime: u.ExecTime, Expires: u.Expires,
					})
				}
			}
		case *wire.DirSync:
			// Wave replays bypass the DisableSync gate too: they are the
			// invalidation layer's own anti-entropy and must converge even in
			// ring mode. Applied before the directory updates so a healed
			// entry can never outlive a wave that covered it.
			if hasWaves && len(m.Waves) > 0 {
				waveSyncer.HandleWaveSync(m.Owner, m.Waves)
			}
			// Handoff frames (ring rebalance offers) bypass the DisableSync
			// gate: ring mode turns anti-entropy off but still moves entry
			// metadata between owners on this message.
			if hasSyncer && (!n.cfg.DisableSync || m.Handoff) {
				syncer.HandleDirSync(m)
				n.syncsApplied.Add(1)
			}
		case *wire.DirSyncReq:
			// Mirror of the request we send on accept: the dialer asked for
			// OUR table's catch-up over its link. Reply with the delta — or an
			// explicit empty ack at its version, because "you are current" must
			// be an affirmative signal: a peer whose failure detector flapped
			// after it had already converged re-quarantines our entries, and
			// with no new directory traffic this ack is the only convergence
			// signal it will ever see.
			var sync *wire.DirSync
			if hasSyncer && !n.cfg.DisableSync {
				sync = syncer.BuildDirSync(m.Version)
				if sync == nil {
					sync = &wire.DirSync{Owner: n.cfg.NodeID, Version: m.Version}
				}
			}
			if hasWaves {
				if sync == nil {
					sync = &wire.DirSync{Owner: n.cfg.NodeID}
				}
				sync.Waves = waveSyncer.BuildWaveSync(m.WaveSeq)
			}
			if sync != nil && (hasSyncer && !n.cfg.DisableSync || len(sync.Waves) > 0) {
				// With dir sync off (ring mode) and no waves to replay there
				// is nothing to say; quarantine lifts on liveness alone there.
				reply(sync)
			}
		case *wire.Fetch:
			// One goroutine per fetch in flight, as in the paper's cacher
			// module: an idle one takes m, else a new one starts.
			select {
			case fetches <- m:
			default:
				n.wg.Add(1)
				go fetchWorker(m)
			}
		case *wire.Ping:
			reply(&wire.Pong{Seq: m.Seq})
		case *wire.Stats:
			sr := n.handler.HandleStats()
			sr.Seq = m.Seq
			reply(&sr)
		case *wire.Invalidate:
			if m.Seq != 0 {
				if acker, ok := n.handler.(InvalidateAcker); ok {
					matched, peers, unreached := acker.HandleInvalidateCounted(m)
					reply(&wire.InvalAck{
						Seq: m.Seq, Matched: uint32(matched),
						Peers: uint32(peers), Unreached: uint32(unreached),
					})
					break
				}
			}
			n.handler.HandleInvalidate(m)
		case *wire.InvalWave:
			if hasWaves {
				waveSyncer.HandleInvalWave(m)
			}
		case *wire.ReplicaPush:
			if rh, ok := n.handler.(ReplicaHandler); ok {
				rh.HandleReplicaPush(m)
			}
		case *wire.ReplicaEvent:
			if rh, ok := n.handler.(ReplicaHandler); ok {
				rh.HandleReplicaEvent(m)
			}
		case *wire.Join:
			if !n.cfg.RingMode {
				n.logf("join from node %d at %s ignored: this node runs replicate placement (start it with -placement=ring to accept joins)", m.NodeID, m.Addr)
				break
			}
			n.admitMember(m.NodeID, m.Addr)
			reply(&wire.RingUpdate{Origin: n.cfg.NodeID, Members: n.MembersSnapshot()})
		case *wire.Leave:
			if !n.cfg.RingMode {
				n.logf("leave from node %d ignored: this node runs replicate placement", m.NodeID)
				break
			}
			n.mergeMembers([]wire.Member{{ID: m.NodeID, Incarnation: m.Incarnation, Left: true}}, true)
		case *wire.RingUpdate:
			if !n.cfg.RingMode {
				n.logf("ring update from node %d ignored: this node runs replicate placement", m.Origin)
				break
			}
			n.handleRingUpdate(m, reply)
		default:
			n.logf("unexpected inbound message: %v", msg.Type())
		}
	}
}

// --- outbound peer links ---

// outMsg is one entry in a link's send queue: either a versioned directory
// update (batchable) or an arbitrary message written as its own frame.
type outMsg struct {
	msg      wire.Message
	update   wire.DirUpdate
	version  uint64
	isUpdate bool
}

// legacy returns the single-frame encoding of a directory update, for peers
// when batching is disabled.
func (om *outMsg) legacy() wire.Message {
	if om.update.Delete {
		return &wire.Delete{Owner: om.update.Owner, Key: om.update.Key}
	}
	return &wire.Insert{
		Owner: om.update.Owner, Key: om.update.Key, Size: om.update.Size,
		ExecTime: om.update.ExecTime, Expires: om.update.Expires,
	}
}

type peerLink struct {
	id   uint32
	conn net.Conn
	wc   *wire.Conn

	sendMu sync.Mutex // serializes writes to wc
	queue  chan outMsg
	// syncCh (capacity 1) wakes the sender to ship an anti-entropy
	// catch-up: poked when the peer requests one (DirSyncReq) or when a
	// queue overflow drops an update toward it.
	syncCh chan struct{}
	done   chan struct{} // closed when the link shuts down

	// peerVer tracks the highest directory version the peer is believed to
	// have from us: seeded by its DirSyncReq, advanced as batches go out.
	peerVer atomic.Uint64

	// waveAck tracks the highest of our own invalidation waves the peer is
	// believed to have: seeded by its DirSyncReq.WaveSeq, advanced as wave
	// frames go out and as sync replays are sent. A wave dropped by a full
	// queue leaves waveAck behind, so the next sync pass replays it.
	waveAck atomic.Uint64

	// flushes points at the owning node's flush counter so every real
	// stream push on this link is accounted.
	flushes *atomic.Uint64

	// scratch buffers reused by the sender's drain-coalesce loop.
	run   []outMsg
	batch []wire.DirUpdate

	mu      sync.Mutex
	pending map[uint64]chan *wire.FetchReply
	pongs   map[uint64]chan struct{}
	nextSeq uint64
	closed  bool
}

// advancePeerVer raises peerVer to v, never lowering it.
func (p *peerLink) advancePeerVer(v uint64) {
	for {
		cur := p.peerVer.Load()
		if v <= cur || p.peerVer.CompareAndSwap(cur, v) {
			return
		}
	}
}

// advanceWaveAck raises waveAck to v, never lowering it.
func (p *peerLink) advanceWaveAck(v uint64) {
	for {
		cur := p.waveAck.Load()
		if v <= cur || p.waveAck.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (p *peerLink) send(m wire.Message) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if err := p.wc.WriteBuffered(m); err != nil {
		return err
	}
	wrote, err := p.wc.Flush()
	if wrote && p.flushes != nil {
		p.flushes.Add(1)
	}
	return err
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
	// Pong channels are closed by the reader on success only; ping waiters
	// blocked at teardown are woken by the done channel below (closing them
	// here would be indistinguishable from a pong). Dropping the map just
	// unpins the memory.
	p.pongs = make(map[uint64]chan struct{})
	p.mu.Unlock()
	close(p.done)
	p.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// ConnectPeer dials a peer's cluster address and registers the link under
// peerID. It retries for DialRetry so nodes can start in any order.
// Reconnecting an existing peer ID replaces the old link.
func (n *Node) ConnectPeer(peerID uint32, addr string) error {
	return n.ConnectPeerContext(context.Background(), peerID, addr)
}

// ConnectPeerContext is ConnectPeer bounded by a context. The dial-retry
// loop is fully event-driven: it sleeps on a timer between attempts and
// aborts as soon as ctx is canceled or the node is closed, so Close never
// has to wait out the remainder of the retry window behind a pending dial.
func (n *Node) ConnectPeerContext(ctx context.Context, peerID uint32, addr string) error {
	// Register the peer as intended before the first dial attempt, not
	// after it succeeds: a peer whose link is still dialing is already part
	// of the intended mesh, so fan-out accounting (BroadcastCounted) must
	// count it as unreached rather than silently skipping it. (peerAddrs is
	// deliberately left alone until the dial succeeds — it doubles as the
	// failure detector's probe roster.)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.intended[peerID] = true
	n.mu.Unlock()

	window := time.NewTimer(n.cfg.DialRetry)
	defer window.Stop()
	var retry *time.Timer
	defer func() {
		if retry != nil {
			retry.Stop()
		}
	}()

	var conn net.Conn
	var err error
	for {
		// Cancellation wins over a ready retry tick: the select below picks
		// randomly among ready cases, so without this check a cancelled
		// connect could still issue one more dial.
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("cluster: dial peer %d at %s: %w", peerID, addr, cerr)
		}
		select {
		case <-n.done:
			return ErrClosed
		default:
		}
		conn, err = n.cfg.Network.Dial(addr)
		if err == nil {
			// The context may have been cancelled while the dial was in
			// flight; a link registered after cancellation would outlive the
			// caller's intent, so give the connection back.
			if cerr := ctx.Err(); cerr != nil {
				conn.Close()
				return fmt.Errorf("cluster: dial peer %d at %s: %w", peerID, addr, cerr)
			}
			break
		}
		if retry == nil {
			retry = time.NewTimer(jitter(20 * time.Millisecond))
		} else {
			// Drain a fired-but-unread timer before Reset; a stale tick
			// would make the next wait fire immediately and turn the retry
			// loop into a busy spin.
			if !retry.Stop() {
				select {
				case <-retry.C:
				default:
				}
			}
			retry.Reset(jitter(20 * time.Millisecond))
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: dial peer %d at %s: %w", peerID, addr, ctx.Err())
		case <-n.done:
			return ErrClosed
		case <-window.C:
			return fmt.Errorf("cluster: dial peer %d at %s: %w", peerID, addr, err)
		case <-retry.C:
		}
	}

	wc := wire.NewConn(conn)
	hello := &wire.Hello{
		NodeID: n.cfg.NodeID, NodeName: n.cfg.Name, Addr: n.Addr(),
		ProtoVersion: wire.ProtoCurrent, Placement: n.placement(),
	}
	if err := wc.Write(hello); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: hello to peer %d: %w", peerID, err)
	}

	link := &peerLink{
		id:      peerID,
		conn:    conn,
		wc:      wc,
		queue:   make(chan outMsg, n.cfg.SendQueue),
		syncCh:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		flushes: &n.flushes,
		pending: make(map[uint64]chan *wire.FetchReply),
		pongs:   make(map[uint64]chan struct{}),
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	if old := n.peers[peerID]; old != nil {
		old.close()
	}
	n.peers[peerID] = link
	n.peerAddrs[peerID] = addr
	syncDebt := n.needFullSync[peerID]
	n.mu.Unlock()

	n.wg.Add(2)
	go n.linkSender(link)
	go n.linkReader(link)
	if syncDebt {
		// Updates were dropped toward this peer before the link (re)came up;
		// settle with a catch-up even if its DirSyncReq never arrives.
		select {
		case link.syncCh <- struct{}{}:
		default:
		}
	}
	// Anti-entropy is requested in both directions on every link
	// establishment: the accept side asks the dialer for its table (see
	// serveConn), and here the dialer asks the accept side for *its* table.
	// Without the dialer-side request, a node that re-quarantines an
	// already-converged peer (an asymmetric detector flap — only our probes
	// failed, the peer's links to us never died) would recycle its link,
	// reconnect, and then wait forever: no version gap means no directory
	// traffic, and the convergence ack that lifts the quarantine would never
	// be provoked.
	syncer, hasSyncer := n.handler.(DirSyncer)
	waveSyncer, hasWaves := n.handler.(WaveSyncer)
	if hasSyncer && !n.cfg.DisableSync || hasWaves {
		req := &wire.DirSyncReq{}
		if hasSyncer && !n.cfg.DisableSync {
			req.Version = syncer.DirVersion(peerID)
		}
		if hasWaves {
			req.WaveSeq = waveSyncer.WaveFloor(peerID)
		}
		if err := link.send(req); err != nil {
			n.logf("sync request to peer %d: %v", peerID, err)
		}
	}
	return nil
}

// linkSender drains the async queue onto the wire. Broadcast updates travel
// through here so that directory maintenance never blocks request handling
// (the paper's asynchronous update design). The writer is corked: the sender
// drain-coalesces whatever has accumulated in the queue — packing runs of
// directory updates into DirBatch frames — and flushes only when the queue
// runs empty. Under light load each update flushes immediately; under an
// insert storm the flush (one write syscall on TCP) amortizes over the whole
// drained run.
func (n *Node) linkSender(link *peerLink) {
	defer n.wg.Done()
	for {
		select {
		case om := <-link.queue:
			if err := n.writeCoalesced(link, om); err != nil {
				n.logf("send to peer %d: %v", link.id, err)
				link.close()
				n.scheduleReconnect(link)
				return
			}
		case <-link.syncCh:
			if err := n.writeSync(link); err != nil {
				n.logf("sync to peer %d: %v", link.id, err)
				link.close()
				n.scheduleReconnect(link)
				return
			}
		case <-link.done:
			return
		}
	}
}

// maxDrain bounds how many queue items one drain pass collects before
// writing, so a sustained storm cannot grow the in-memory run unboundedly.
const maxDrain = 1024

// writeCoalesced writes first plus everything else currently queued, corked,
// and flushes once the queue runs empty. The send mutex is released between
// rounds so fetches and pings can interleave with a long storm.
func (n *Node) writeCoalesced(link *peerLink, first outMsg) error {
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
		err := n.writeRun(link, pending)
		if err == nil && len(link.queue) == 0 {
			// Queue ran empty: uncork. A racing enqueue after this check
			// costs one extra flush, nothing more.
			var wrote bool
			wrote, err = link.wc.Flush()
			if wrote {
				n.flushes.Add(1)
			}
			link.sendMu.Unlock()
			return err
		}
		link.sendMu.Unlock()
		if err != nil {
			return err
		}
		pending = pending[:0]
	}
}

// writeRun writes one drained run: consecutive directory updates are packed
// into DirBatch frames (split at BatchLimit), other messages go out as their
// own frames, everything corked until the caller flushes. Callers hold
// sendMu.
func (n *Node) writeRun(link *peerLink, run []outMsg) error {
	batch := link.batch[:0]
	defer func() { link.batch = batch[:0] }()
	var ver uint64
	writeBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := link.wc.WriteBuffered(&wire.DirBatch{
			Owner:   n.cfg.NodeID,
			Version: ver,
			Updates: batch,
		})
		n.batchFrames.Add(1)
		n.updatesSent.Add(uint64(len(batch)))
		link.advancePeerVer(ver)
		batch = batch[:0]
		ver = 0
		return err
	}
	for i := range run {
		om := &run[i]
		if om.isUpdate && !n.cfg.DisableBatching {
			batch = append(batch, om.update)
			if om.version > ver {
				ver = om.version
			}
			if len(batch) >= n.cfg.BatchLimit {
				if err := writeBatch(); err != nil {
					return err
				}
			}
			continue
		}
		if err := writeBatch(); err != nil {
			return err
		}
		m := om.msg
		if om.isUpdate {
			// Batching disabled: the paper-faithful one-frame-per-update
			// path, which any peer understands.
			m = om.legacy()
			n.updatesSent.Add(1)
			n.singleFrames.Add(1)
			link.advancePeerVer(om.version)
		}
		if err := link.wc.WriteBuffered(m); err != nil {
			return err
		}
		if w, ok := m.(*wire.InvalWave); ok && w.Origin == n.cfg.NodeID {
			// The peer now has (or has in the ordered pipe) every own wave
			// up to this one; sync passes need not replay below it.
			link.advanceWaveAck(w.Seq)
		}
		if om.isUpdate {
			// One stream push per update, reproducing the pre-batching wire
			// behaviour exactly (the baseline the -broadcast bench compares
			// against).
			wrote, err := link.wc.Flush()
			if wrote {
				n.flushes.Add(1)
			}
			if err != nil {
				return err
			}
		}
	}
	return writeBatch()
}

// writeSync ships an anti-entropy catch-up to the peer. The queue is drained
// first so the catch-up's version covers every update already on the wire —
// anything still queued behind it replays idempotently on top.
func (n *Node) writeSync(link *peerLink) error {
	syncer, hasSyncer := n.handler.(DirSyncer)
	ws, hasWaves := n.handler.(WaveSyncer)
	dirSyncOn := hasSyncer && !n.cfg.DisableSync
	if !dirSyncOn && !hasWaves {
		return nil
	}
	select {
	case om := <-link.queue:
		if err := n.writeCoalesced(link, om); err != nil {
			return err
		}
	default:
	}
	since := link.peerVer.Load()
	var msg *wire.DirSync
	if dirSyncOn {
		n.mu.Lock()
		full := n.needFullSync[link.id]
		delete(n.needFullSync, link.id)
		n.mu.Unlock()
		if full {
			// Updates were dropped toward this peer, so versions alone cannot
			// tell what it is missing: resend authoritative state.
			since = 0
		}
		msg = syncer.BuildDirSync(since)
	}
	if msg == nil {
		// The peer is already current (or directory sync is off and only
		// waves ride this frame). Still send an empty delta at the current
		// version: a rejoining peer that quarantined our entries while we
		// were gone needs a convergence signal to lift the quarantine, and
		// with nothing to catch up this ack is the only DirSync it would
		// ever see.
		msg = &wire.DirSync{Owner: n.cfg.NodeID, Version: since}
	}
	if hasWaves {
		msg.Waves = ws.BuildWaveSync(link.waveAck.Load())
	}
	if !dirSyncOn && len(msg.Waves) == 0 {
		// Nothing to say on a wave-only link.
		return nil
	}
	link.sendMu.Lock()
	defer link.sendMu.Unlock()
	if err := link.wc.WriteBuffered(msg); err != nil {
		return err
	}
	wrote, err := link.wc.Flush()
	if wrote {
		n.flushes.Add(1)
	}
	if err != nil {
		return err
	}
	n.syncsSent.Add(1)
	if msg.Full {
		n.syncFull.Add(1)
	} else {
		n.syncDelta.Add(1)
	}
	n.syncUpdates.Add(uint64(len(msg.Updates)))
	link.advancePeerVer(msg.Version)
	if len(msg.Waves) > 0 {
		link.advanceWaveAck(msg.Waves[len(msg.Waves)-1].Seq)
	}
	return nil
}

// linkReader consumes replies on an outbound link.
func (n *Node) linkReader(link *peerLink) {
	defer n.wg.Done()
	for {
		msg, err := link.wc.Read()
		if err != nil {
			link.close()
			n.noteLinkDown(link.id)
			n.scheduleReconnect(link)
			return
		}
		switch m := msg.(type) {
		case *wire.FetchReply:
			link.mu.Lock()
			ch := link.pending[m.Seq]
			delete(link.pending, m.Seq)
			link.mu.Unlock()
			if ch != nil {
				ch <- m
			} else {
				m.Release() // its fetch timed out or was cancelled
			}
		case *wire.Pong:
			link.mu.Lock()
			ch := link.pongs[m.Seq]
			delete(link.pongs, m.Seq)
			link.mu.Unlock()
			if ch != nil {
				close(ch)
			}
		case *wire.DirSyncReq:
			// The peer told us how much of our directory (and wave journal)
			// it has; wake the sender to ship the difference. Wave state is
			// exchanged even when directory sync is disabled (ring mode).
			_, hasWaves := n.handler.(WaveSyncer)
			if n.cfg.DisableSync && !hasWaves {
				break
			}
			if !n.cfg.DisableSync {
				link.advancePeerVer(m.Version)
			}
			if hasWaves {
				link.advanceWaveAck(m.WaveSeq)
			}
			select {
			case link.syncCh <- struct{}{}:
			default:
			}
		case *wire.RingUpdate:
			// Membership view exchanged on link establishment (or a
			// convergence reply to our gossip).
			if n.cfg.RingMode {
				n.handleRingUpdate(m, func(msg wire.Message) {
					if err := link.send(msg); err != nil {
						n.logf("ring reply to peer %d: %v", link.id, err)
					}
				})
			}
		case *wire.DirSync:
			// A ring rebalance offer can arrive on either side of a link —
			// whoever dialed first owns the connection, and the old owner
			// pushes to the new one regardless of who that was. A regular
			// (non-handoff) sync here is the peer answering the DirSyncReq we
			// sent when this link came up; it applies exactly as it would on
			// the inbound side, and even an empty ack matters (it is the
			// convergence signal that lifts a rejoined peer's quarantine).
			if ws, ok := n.handler.(WaveSyncer); ok && len(m.Waves) > 0 {
				ws.HandleWaveSync(m.Owner, m.Waves)
			}
			if syncer, ok := n.handler.(DirSyncer); ok && (!n.cfg.DisableSync || m.Handoff) {
				syncer.HandleDirSync(m)
				n.syncsApplied.Add(1)
			}
		case *wire.ReplicaPush:
			// Like handoff offers, replica control traffic rides whichever
			// side of the pair's links the sender owns.
			if rh, ok := n.handler.(ReplicaHandler); ok {
				rh.HandleReplicaPush(m)
			}
		case *wire.ReplicaEvent:
			if rh, ok := n.handler.(ReplicaHandler); ok {
				rh.HandleReplicaEvent(m)
			}
		default:
			n.logf("unexpected reply on outbound link to %d: %v", link.id, msg.Type())
		}
	}
}

// scheduleReconnect redials a failed peer link with exponential backoff so a
// restarted node rejoins the mesh without operator action. At most one
// redial loop runs per peer, and intentional shutdown never reconnects.
// jitter spreads a backoff wait uniformly over [d/2, d]. Deterministic
// exponential backoff makes every link that died in the same partition
// redial in lockstep after a heal — a reconnect thundering herd that lands
// N simultaneous dials (and N Hello/DirSync exchanges) on the recovered
// peer. Randomizing each wait de-synchronizes the herd while keeping the
// same expected pace.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (n *Node) scheduleReconnect(dead *peerLink) {
	if n.cfg.DisableReconnect {
		return
	}
	n.mu.Lock()
	if n.closed || n.peers[dead.id] != dead || n.reconnecting[dead.id] {
		n.mu.Unlock()
		return
	}
	addr := n.peerAddrs[dead.id]
	if addr == "" {
		n.mu.Unlock()
		return
	}
	n.reconnecting[dead.id] = true
	n.mu.Unlock()

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			n.mu.Lock()
			delete(n.reconnecting, dead.id)
			n.mu.Unlock()
		}()
		backoff := 50 * time.Millisecond
		for {
			select {
			case <-n.done:
				return
			case <-time.After(jitter(backoff)):
			}
			err := n.ConnectPeer(dead.id, addr)
			if err == nil {
				n.logf("reconnected to peer %d at %s", dead.id, addr)
				return
			}
			if errors.Is(err, ErrClosed) {
				return
			}
			n.logf("reconnect to peer %d: %v", dead.id, err)
			if backoff < 5*time.Second {
				backoff *= 2
			}
		}
	}()
}

// Peers returns the connected peer IDs, ascending.
func (n *Node) Peers() []uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]uint32, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Broadcast enqueues a message to every peer without blocking the caller.
// Insert and Delete messages are converted to unversioned directory updates
// so they ride the batching path. If a peer's queue is full the message is
// dropped for that peer and counted; the weak consistency protocol tolerates
// the resulting staleness (it manifests as a false miss or false hit) and
// anti-entropy sync later heals it.
// SendTo writes msg directly to one peer's link, bypassing the broadcast
// queues — the transport for targeted control traffic such as handoff
// metadata pushes during a rebalance.
func (n *Node) SendTo(peer uint32, msg wire.Message) error {
	n.mu.Lock()
	link := n.peers[peer]
	n.mu.Unlock()
	if link == nil {
		return fmt.Errorf("%w: %d", ErrNoPeer, peer)
	}
	return link.send(msg)
}

func (n *Node) Broadcast(m wire.Message) {
	switch t := m.(type) {
	case *wire.Insert:
		n.broadcast(outMsg{isUpdate: true, update: wire.DirUpdate{
			Owner: t.Owner, Key: t.Key, Size: t.Size,
			ExecTime: t.ExecTime, Expires: t.Expires,
		}})
	case *wire.Delete:
		n.broadcast(outMsg{isUpdate: true, update: wire.DirUpdate{
			Delete: true, Owner: t.Owner, Key: t.Key,
		}})
	default:
		n.broadcast(outMsg{msg: m})
	}
}

// BroadcastUpdate enqueues one versioned directory update to every peer.
// Callers must present updates in version order (the directory's OnUpdate
// callback does, holding its lock), which makes per-link queue contents
// version-ordered — the invariant anti-entropy sync relies on.
func (n *Node) BroadcastUpdate(u wire.DirUpdate, version uint64) {
	n.broadcast(outMsg{isUpdate: true, update: u, version: version})
}

// BroadcastCounted enqueues m to every intended peer and reports the
// fan-out: peers is how many peers the node was asked to reach (live links
// plus peers still dialing or reconnecting), unreached how many of them did
// not take the message — no usable link yet, or a full queue. Invalidation
// waves heal unreached peers via anti-entropy once their links come up; for
// other message kinds an unreached peer simply never sees the frame, which
// is why callers surface the count instead of dropping it silently.
func (n *Node) BroadcastCounted(m wire.Message) (peers, unreached int) {
	return n.broadcast(outMsg{msg: m})
}

func (n *Node) broadcast(om outMsg) (peers, unreached int) {
	_, isWave := om.msg.(*wire.InvalWave)
	n.mu.Lock()
	links := make([]*peerLink, 0, len(n.peers))
	for _, l := range n.peers {
		links = append(links, l)
	}
	// Peers an operator asked to connect (or that membership dialed) but
	// that have no live link yet count as unreached, not as nonexistent.
	for id := range n.intended {
		if _, ok := n.peers[id]; !ok {
			peers++
			unreached++
		}
	}
	n.mu.Unlock()
	peers += len(links)
	for _, l := range links {
		select {
		case l.queue <- om:
			if om.isUpdate {
				n.updates.Add(1)
			}
		default:
			unreached++
			n.dropped.Add(1)
			n.dropCounter(l.id).Add(1)
			if om.isUpdate && !n.cfg.DisableSync {
				// The version sequence toward this peer now has a hole;
				// flag it for a full resync and wake the sender.
				n.mu.Lock()
				n.needFullSync[l.id] = true
				n.mu.Unlock()
			}
			if (om.isUpdate && !n.cfg.DisableSync) || isWave {
				// Wake the sender to heal the gap: dropped directory updates
				// replay via BuildDirSync, dropped waves via BuildWaveSync
				// (waveAck never advanced past the dropped wave).
				select {
				case l.syncCh <- struct{}{}:
				default:
				}
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

func (n *Node) dropCounter(peer uint32) *atomic.Uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.peerDrops[peer]
	if c == nil {
		c = new(atomic.Uint64)
		n.peerDrops[peer] = c
	}
	return c
}

// Dropped reports broadcasts dropped due to full peer queues.
func (n *Node) Dropped() uint64 { return n.dropped.Load() }

// DroppedByPeer returns per-peer dropped-broadcast counts, covering every
// peer that has lost at least one message.
func (n *Node) DroppedByPeer() map[uint32]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[uint32]uint64, len(n.peerDrops))
	for id, c := range n.peerDrops {
		if v := c.Load(); v > 0 {
			out[id] = v
		}
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
		SingleFrames: n.singleFrames.Load(),
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

// fetchWaiter is what one fetch blocks on: its reply's channel and the timer
// bounding the wait. Only a fetch that got its reply pools its waiter again:
// on every other exit a closing link or a late reply may touch the channel.
type fetchWaiter struct {
	ch    chan *wire.FetchReply // capacity 1: the reader never blocks on it
	timer *time.Timer
}

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &fetchWaiter{ch: make(chan *wire.FetchReply, 1), timer: t}
}}

// FetchRing is Fetch with ring-placement flags (wire.FetchExecute asks the
// owner to run the request on a cache miss; wire.FetchTakeover pulls a body
// during handoff and tells the previous owner to drop its copy;
// wire.FetchReplica pulls a copy the source keeps). The reply's Executed
// reports whether the owner ran the request rather than serving its cache;
// Stored whether the result is cached at the owner (false after an execute
// means the key is not worth routing to the owner again until something
// changes). Its Body is leased: valid until Release, which may never come.
func (n *Node) FetchRing(ctx context.Context, owner uint32, key string, flags uint8) (*wire.FetchReply, error) {
	if n.PeerState(owner) == PeerDead {
		// The failure detector has declared the owner dead: fail fast so the
		// caller degrades to local execution immediately instead of paying
		// FetchTimeout. (The prober keeps pinging, so a recovered peer is
		// marked alive again without fetch traffic.)
		return nil, fmt.Errorf("%w: %d (peer dead)", ErrNoPeer, owner)
	}
	probe, admitErr := n.admitFetch(owner)
	if admitErr != nil {
		// Breaker open: fail fast like the dead-peer path so the caller
		// degrades to local execution without paying FetchTimeout.
		return nil, admitErr
	}
	n.mu.Lock()
	link := n.peers[owner]
	n.mu.Unlock()
	if link == nil {
		n.settleFetch(owner, probe, 0, fetchNeutral)
		return nil, fmt.Errorf("%w: %d", ErrNoPeer, owner)
	}

	link.mu.Lock()
	if link.closed {
		link.mu.Unlock()
		n.settleFetch(owner, probe, 0, fetchFailed)
		return nil, fmt.Errorf("%w: %d (link closed)", ErrNoPeer, owner)
	}
	link.nextSeq++
	seq := link.nextSeq
	w := waiterPool.Get().(*fetchWaiter)
	link.pending[seq] = w.ch
	link.mu.Unlock()

	start := time.Now()
	err := link.send(&wire.Fetch{Seq: seq, Key: key, Flags: flags})
	if err == nil {
		w.timer.Reset(n.cfg.FetchTimeout)
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
				n.settleFetch(owner, probe, time.Since(start), fetchOK)
				waiterPool.Put(w)
				return reply, nil
			}
			err = fmt.Errorf("%w: %d (link closed)", ErrNoPeer, owner)
		case <-w.timer.C:
			err = ctxFetchErr(context.DeadlineExceeded)
		case <-ctx.Done():
			w.timer.Stop()
			err = ctxFetchErr(ctx.Err())
		}
	} else {
		err = fmt.Errorf("cluster: fetch from %d: %w", owner, err)
	}
	link.mu.Lock()
	delete(link.pending, seq)
	link.mu.Unlock()
	outcome := fetchFailed // a failed send or a missed deadline counts against the peer
	if errors.Is(err, context.Canceled) {
		// The caller gave up (hedge loser, client gone): says nothing about it.
		outcome = fetchNeutral
	}
	n.settleFetch(owner, probe, 0, outcome)
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

// RecyclePeer tears down the outbound link to peer (if any); the automatic
// reconnect then performs a fresh Hello — and with it the anti-entropy
// version exchange. The server layer uses this when a dead peer turns alive
// again without its links ever having died (a hung host that recovers): no
// reconnect would otherwise happen, so no DirSyncReq would be exchanged and
// updates lost during the outage would never be healed.
func (n *Node) RecyclePeer(peer uint32) {
	n.mu.Lock()
	link := n.peers[peer]
	n.mu.Unlock()
	if link != nil {
		n.logf("recycling link to peer %d for a fresh sync exchange", peer)
		link.close()
	}
}

// Ping round-trips a liveness probe to a peer, bounded by ctx and the node's
// FetchTimeout (whichever fires first).
func (n *Node) Ping(ctx context.Context, peer uint32) error {
	n.mu.Lock()
	link := n.peers[peer]
	n.mu.Unlock()
	if link == nil {
		return fmt.Errorf("%w: %d", ErrNoPeer, peer)
	}
	if n.cfg.FetchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.cfg.FetchTimeout)
		defer cancel()
	}
	link.mu.Lock()
	if link.closed {
		link.mu.Unlock()
		return fmt.Errorf("%w: %d (link closed)", ErrNoPeer, peer)
	}
	link.nextSeq++
	seq := link.nextSeq
	ch := make(chan struct{})
	link.pongs[seq] = ch
	link.mu.Unlock()

	if err := link.send(&wire.Ping{Seq: seq}); err != nil {
		// Deregister, as Fetch does — otherwise the pong channel would sit
		// in link.pongs forever.
		link.mu.Lock()
		delete(link.pongs, seq)
		link.mu.Unlock()
		return err
	}
	select {
	case <-ch:
		return nil
	case <-link.done:
		// The reader tore the link down with our ping in flight. Unlike
		// fetch waiters (whose pending channels are closed on teardown), a
		// closed pong channel would read as success, so teardown is signalled
		// through the link's done channel instead — without this case the
		// waiter would strand until ctx (worst case FetchTimeout) despite the
		// answer already being knowable: the peer is unreachable.
		link.mu.Lock()
		delete(link.pongs, seq)
		link.mu.Unlock()
		return fmt.Errorf("%w: %d (link closed)", ErrNoPeer, peer)
	case <-ctx.Done():
		link.mu.Lock()
		delete(link.pongs, seq)
		link.mu.Unlock()
		return ctxFetchErr(ctx.Err())
	}
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
	peers := n.peers
	n.peers = make(map[uint32]*peerLink)
	inbound := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, p := range peers {
		p.close()
	}
	for _, c := range inbound {
		c.Close()
	}
	n.wg.Wait()
	return nil
}
