package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/ring"
	"repro/internal/wire"
)

// Dynamic membership (ring placement mode).
//
// In replicate mode the cluster is the paper's: a fixed peer list wired at
// boot. Ring mode replaces that with a gossiped membership table from which
// every node derives the same consistent-hash ring:
//
//   - Each member is a (id, addr, incarnation, left) record. Incarnations
//     order competing statements about one node; a departure (left) beats an
//     arrival at the same incarnation. Merging two tables member-by-member is
//     idempotent, commutative, and associative, so concurrent joins, leaves,
//     and evictions converge without coordination.
//   - A node joins by dialing any seed and sending MsgJoin on that link; the
//     seed admits it at a fresh incarnation and gossips the change. Both
//     ends of every link between ring-mode nodes also open it with their
//     full view — how the joiner learns the seed's — making link
//     (re)establishment the membership anti-entropy path — the same pattern
//     the directory uses with DirSyncReq.
//   - Graceful leave marks the member departed at incarnation+1; the
//     departing node hands its entries off first, then announces.
//   - The failure detector is the membership authority for crashes: a
//     peer declared dead is evicted (tombstoned) and the ring excludes it.
//     If it was a false positive, the evicted node sees its own tombstone in
//     gossip and refutes it at a higher incarnation, rejoining the ring.
//
// Every effective change bumps the local epoch, rebuilds the immutable ring
// snapshot, and fires Config.OnRingChange (in order, on a dedicated
// goroutine) so the server layer can rebalance.

type memberInfo struct {
	addr        string
	incarnation uint64
	left        bool
}

// ringEvent is one ring rebuild delivered to Config.OnRingChange.
type ringEvent struct {
	old, new *ring.Ring
}

// initMembership seeds the membership table with this node itself. Called
// from Start once the listen address is known.
func (n *Node) initMembership() {
	n.memMu.Lock()
	n.members[n.cfg.NodeID] = memberInfo{addr: n.Addr(), incarnation: 1}
	n.epoch++
	n.ringPtr.Store(n.buildRingLocked())
	n.memMu.Unlock()

	n.wg.Add(1)
	go n.ringNotifyLoop()
}

// buildRingLocked derives the ring from the non-departed members. Callers
// hold memMu.
func (n *Node) buildRingLocked() *ring.Ring {
	ids := make([]uint32, 0, len(n.members))
	for id, m := range n.members {
		if !m.left {
			ids = append(ids, id)
		}
	}
	return ring.New(ids, ring.DefaultVirtualNodes)
}

// Ring returns the current placement ring (nil when not in ring mode, never
// nil after Start in ring mode). The returned ring is immutable.
func (n *Node) Ring() *ring.Ring { return n.ringPtr.Load() }

// MembersSnapshot returns the full membership table (departed members
// included — gossip needs the tombstones), sorted by ID.
func (n *Node) MembersSnapshot() []wire.Member {
	n.memMu.Lock()
	defer n.memMu.Unlock()
	return n.membersSnapshotLocked()
}

func (n *Node) membersSnapshotLocked() []wire.Member {
	out := make([]wire.Member, 0, len(n.members))
	for id, m := range n.members {
		out = append(out, wire.Member{ID: id, Addr: m.addr, Incarnation: m.incarnation, Left: m.left})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ringNotifyLoop delivers ring changes to Config.OnRingChange in order.
func (n *Node) ringNotifyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case ev := <-n.ringEvents:
			if n.cfg.OnRingChange != nil {
				n.cfg.OnRingChange(ev.old, ev.new)
			}
		}
	}
}

// mergeMembers folds a batch of member statements into the table. Each
// statement wins if its incarnation is higher than what we have, or equal
// with Left set (departure beats arrival). A statement that this node itself
// has left is refuted — unless the node is leaving on purpose — by
// re-announcing at a higher incarnation, which heals detector false
// positives. On any effective change the epoch advances, the ring is
// rebuilt, OnRingChange fires, and (if gossip) the new view is broadcast.
func (n *Node) mergeMembers(ms []wire.Member, gossip bool) bool {
	n.memMu.Lock()
	changed := false
	for _, m := range ms {
		cur, exists := n.members[m.ID]
		if m.ID == n.cfg.NodeID {
			if m.Left && m.Incarnation >= cur.incarnation && !n.leaving {
				// Someone evicted us (detector false positive): refute.
				n.members[m.ID] = memberInfo{addr: n.Addr(), incarnation: m.Incarnation + 1}
				n.logf("refuting eviction at incarnation %d", m.Incarnation)
				changed = true
			}
			continue
		}
		newer := !exists || m.Incarnation > cur.incarnation ||
			(m.Incarnation == cur.incarnation && m.Left && !cur.left)
		if !newer {
			continue
		}
		addr := m.Addr
		if addr == "" {
			addr = cur.addr // tombstones may omit the address
		}
		n.members[m.ID] = memberInfo{addr: addr, incarnation: m.Incarnation, left: m.Left}
		changed = true
		if m.Left {
			n.logf("member %d departed (incarnation %d)", m.ID, m.Incarnation)
		} else {
			n.logf("member %d at %s joined (incarnation %d)", m.ID, addr, m.Incarnation)
		}
	}
	if !changed {
		n.memMu.Unlock()
		return false
	}
	n.ringChangedLocked(gossip)
	return true
}

// ringChangedLocked finishes an effective membership change: epoch, ring
// rebuild, change notification, peer-link reconciliation, and (optionally)
// gossip. It is called with memMu held and releases it.
func (n *Node) ringChangedLocked(gossip bool) {
	n.epoch++
	old := n.ringPtr.Load()
	newRing := n.buildRingLocked()
	n.ringPtr.Store(newRing)
	snapshot := n.membersSnapshotLocked()
	n.memMu.Unlock()

	n.logf("ring epoch advanced: %d members", newRing.Len())
	select {
	case n.ringEvents <- ringEvent{old: old, new: newRing}:
	case <-n.done:
	}
	n.reconcileLinks(snapshot)
	if gossip {
		n.Broadcast(&wire.RingUpdate{Origin: n.cfg.NodeID, Members: snapshot})
	}
}

// reconcileLinks dials live members until linked and forgets departed ones.
func (n *Node) reconcileLinks(members []wire.Member) {
	for _, m := range members {
		if m.ID == n.cfg.NodeID {
			continue
		}
		if m.Left {
			n.forgetPeer(m.ID)
			continue
		}
		n.mu.Lock()
		if p := n.peerLocked(m.ID); !n.closed && !p.linked() {
			p.intended, p.addr = true, m.Addr
			n.keepDialingLocked(p, false)
		}
		n.mu.Unlock()
	}
}

// forgetPeer drops a departed member's record — link, dial loop, detector
// state, score and all — so no reconnect or probe resurrects it.
func (n *Node) forgetPeer(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[id]; p != nil {
		delete(n.peers, id)
		p.teardown() // its dial loop sees the record gone and ends
	}
}

// admitMember handles a MsgJoin: the joiner enters (or re-enters, after an
// eviction or restart) at a fresh incarnation, at addr, the address it
// announced as the link layer redials it (dialBack).
func (n *Node) admitMember(id uint32, addr string) {
	n.memMu.Lock()
	cur, exists := n.members[id]
	if exists && !cur.left && cur.addr == addr {
		// Already a live member at this address: idempotent re-join.
		n.memMu.Unlock()
		return
	}
	n.members[id] = memberInfo{addr: addr, incarnation: cur.incarnation + 1}
	n.logf("admitting member %d at %s (incarnation %d)", id, addr, cur.incarnation+1)
	n.ringChangedLocked(true)
}

// evictMember tombstones a member the failure detector declared dead — the
// detector is the membership authority for crashes. The dial address is kept
// in the tombstone so gossip survives; probes stop because forgetPeer (via
// reconcileLinks) drops the peer record. A false positive heals itself: the
// evicted node refutes the tombstone when it reconnects and sees it.
func (n *Node) evictMember(id uint32) {
	n.memMu.Lock()
	cur, exists := n.members[id]
	if !exists || cur.left {
		n.memMu.Unlock()
		return
	}
	n.members[id] = memberInfo{addr: cur.addr, incarnation: cur.incarnation + 1, left: true}
	n.logf("evicting dead member %d (incarnation %d)", id, cur.incarnation+1)
	n.ringChangedLocked(true)
}

// handleRingUpdate merges gossip read from c. The sender's own entry holds
// its listen address, which is redialed the way the link layer redials it
// (dialBack). When the sender's view is older than ours on any member, answer
// with our view so the pair converges even when we learned nothing new —
// this is how an evicted node finds out and refutes.
func (n *Node) handleRingUpdate(c *peerLink, m *wire.RingUpdate) {
	for i := range m.Members {
		if m.Members[i].ID == c.id {
			m.Members[i].Addr = dialBack(m.Members[i].Addr, c.conn)
		}
	}
	n.mergeMembers(m.Members, true)
	n.memMu.Lock()
	stale := false
	theirs := make(map[uint32]wire.Member, len(m.Members))
	for _, mb := range m.Members {
		theirs[mb.ID] = mb
	}
	for id, cur := range n.members {
		t, ok := theirs[id]
		if !ok || cur.incarnation > t.Incarnation ||
			(cur.incarnation == t.Incarnation && cur.left && !t.Left) {
			stale = true
			break
		}
	}
	var snapshot []wire.Member
	if stale {
		snapshot = n.membersSnapshotLocked()
	}
	n.memMu.Unlock()
	if stale {
		n.reply(c, &wire.RingUpdate{Origin: n.cfg.NodeID, Members: snapshot})
	}
}

// JoinSeed joins the ring through a seed member, over the link to it that
// then stays: it dials the seed, whose Hello names it, sends MsgJoin on the
// link and returns once the seed has admitted this node. The seed's view,
// which arrives on the link, connects to every other live member.
func (n *Node) JoinSeed(ctx context.Context, seedAddr string) error {
	if !n.cfg.RingMode {
		return fmt.Errorf("cluster: join requires ring placement mode")
	}
	ctx, cancel := context.WithTimeout(ctx, n.cfg.FetchTimeout)
	defer cancel()
	c, answer, err := n.dialHello(ctx, seedAddr)
	if err == nil && answer == nil {
		c.conn.Close()
		err = errors.New("the seed hung up (one that runs replicate placement does)")
	}
	if err != nil {
		return fmt.Errorf("cluster: join via %s: %w", seedAddr, err)
	}
	seed := answer.NodeID
	if answer.Addr == "" {
		err = errDialInFlight // the seed is dialing this node: that is the link
	}
	n.mu.Lock()
	p := n.peerLocked(seed)
	p.addr = seedAddr
	n.mu.Unlock()
	up, err := n.settle(c, p, err)
	if !up {
		err = n.ConnectPeerContext(ctx, seed, seedAddr)
	}
	if err == nil {
		err = n.SendTo(seed, &wire.Join{NodeID: n.cfg.NodeID, Addr: n.Addr()})
	}
	if err == nil {
		// The seed reads the ping after the join: answered, it has admitted us.
		err = n.Ping(ctx, seed)
	}
	if err != nil {
		return fmt.Errorf("cluster: join via %s (node %d): %w", seedAddr, seed, err)
	}
	n.logf("joined ring via %s (node %d)", seedAddr, seed)
	return nil
}

// LeaveRing marks this node departed in its own view and rebuilds the ring
// without it, firing OnRingChange so the server layer hands its entries off
// to their new owners. Nothing is announced yet — call AnnounceLeave once
// the handoff has drained, so receivers keep serving our fetches meanwhile.
func (n *Node) LeaveRing() {
	n.memMu.Lock()
	if n.leaving {
		n.memMu.Unlock()
		return
	}
	n.leaving = true
	cur := n.members[n.cfg.NodeID]
	n.members[n.cfg.NodeID] = memberInfo{addr: cur.addr, incarnation: cur.incarnation + 1, left: true}
	n.logf("leaving ring (incarnation %d)", cur.incarnation+1)
	n.ringChangedLocked(false)
}

// AnnounceLeave tells every peer directly (bypassing the async queues, best
// effort) that this node has departed. Peers tombstone it and gossip on.
func (n *Node) AnnounceLeave() {
	n.memMu.Lock()
	inc := n.members[n.cfg.NodeID].incarnation
	n.memMu.Unlock()
	msg := &wire.Leave{NodeID: n.cfg.NodeID, Incarnation: inc}
	n.mu.Lock()
	links := make([]*peerLink, 0, len(n.peers))
	for _, p := range n.peers {
		if p.link != nil {
			links = append(links, p.link)
		}
	}
	n.mu.Unlock()
	for _, l := range links {
		if err := l.send(msg); err != nil {
			n.logf("leave announce to peer %d: %v", l.id, err)
		}
	}
}

// RingMemberInfo is a point-in-time view of one live ring member for
// status reporting.
type RingMemberInfo struct {
	ID    uint32
	Addr  string
	State PeerState
	// Self marks the reporting node's own row (State is meaningless there).
	Self bool
	// Owned is the member's share of the hash circle.
	Owned float64
}

// RingStatus summarizes ring membership for /swala-status and swalactl.
type RingStatus struct {
	Epoch        uint64
	VirtualNodes int
	Members      []RingMemberInfo
}

// RingStatusSnapshot reports the live membership with detector verdicts and
// owned shares. Nil when not in ring mode.
func (n *Node) RingStatusSnapshot() *RingStatus {
	r := n.Ring()
	if r == nil {
		return nil
	}
	n.memMu.Lock()
	epoch := n.epoch
	addrs := make(map[uint32]string, len(n.members))
	for id, m := range n.members {
		if !m.left {
			addrs[id] = m.addr
		}
	}
	n.memMu.Unlock()

	st := &RingStatus{Epoch: epoch, VirtualNodes: r.VirtualNodes()}
	for _, id := range r.Members() {
		info := RingMemberInfo{ID: id, Addr: addrs[id], Owned: r.OwnedFraction(id)}
		if id != n.cfg.NodeID {
			info.State = n.PeerState(id)
		} else {
			info.Self = true
		}
		st.Members = append(st.Members, info)
	}
	return st
}

// rejectHello enforces protocol negotiation for cluster-node links
// (administrative clients, which announce no address, are exempt). It
// returns a non-empty reason when the peer must be rejected.
func (n *Node) rejectHello(hello *wire.Hello) string {
	if hello.Addr == "" {
		return ""
	}
	if hello.NodeID == n.cfg.NodeID {
		return fmt.Sprintf("peer %s announces this node's own ID %d: a dial that reached its own listener, or two nodes started with one -id",
			hello.NodeName, hello.NodeID)
	}
	if hello.ProtoVersion != wire.ProtoVersion {
		return fmt.Sprintf("peer %d (%s) speaks protocol v%d; this node speaks v%d — run one build across the cluster",
			hello.NodeID, hello.NodeName, hello.ProtoVersion, wire.ProtoVersion)
	}
	if n.cfg.RingMode {
		if hello.Placement != wire.PlacementRing {
			return fmt.Sprintf("peer %d (%s) runs replicate placement; this node runs ring placement — run one placement (swalad -profile) across the cluster",
				hello.NodeID, hello.NodeName)
		}
		return ""
	}
	if hello.Placement == wire.PlacementRing {
		return fmt.Sprintf("peer %d (%s) runs ring placement; this node replicates — run one placement (swalad -profile) across the cluster",
			hello.NodeID, hello.NodeName)
	}
	return ""
}
