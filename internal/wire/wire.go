// Package wire defines the binary inter-node protocol Swala nodes use to
// exchange cache meta-data and data: directory insert/delete broadcasts,
// remote cache fetches, and membership hellos. Messages are length-prefixed
// and encoded with a compact big-endian binary format so that the protocol
// has a stable, language-independent wire representation.
//
// Frame layout:
//
//	uint32  total payload length (excluding this prefix)
//	uint8   message type
//	...     type-specific payload
//
// Strings and byte slices are encoded as uint32 length + bytes. Times are
// int64 Unix nanoseconds. Durations are int64 nanoseconds.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/lease"
	"repro/internal/stats"
)

// MsgType identifies the kind of a protocol message.
type MsgType uint8

// Message types exchanged between Swala nodes.
const (
	// MsgHello announces a node's identity when a peer link is opened.
	MsgHello MsgType = iota + 1
	// Types 2 and 3 are reserved (retired per-update insert and delete
	// broadcasts) so that every later type keeps its number on the wire.
	_
	_
	// MsgFetch requests the body of a cached entry from its owner.
	MsgFetch
	// MsgFetchReply carries a fetched cache body (or a miss indication).
	MsgFetchReply
	// MsgPing is a liveness probe.
	MsgPing
	// MsgPong answers MsgPing.
	MsgPong
	// MsgStats requests a node's counter snapshot (used by swalactl).
	MsgStats
	// Type 9 is reserved: it carried StatsReply in its older, struct-shaped
	// layout, which a current node must reject rather than misread.
	_
	// MsgInvalidate asks every node to drop cached entries whose key matches
	// a pattern — the application-driven invalidation the paper lists as
	// future work (Section 4.2, citing Iyengar & Challenger).
	MsgInvalidate
	// MsgDirBatch packs a run of directory updates (inserts and deletes) into
	// one frame so an insert storm costs one write per drained queue instead
	// of one per update.
	MsgDirBatch
	// MsgDirSyncReq asks a peer to bring our replica of its directory table up
	// to date; Version is the highest update we have seen from it.
	MsgDirSyncReq
	// MsgDirSync carries an anti-entropy catch-up: either a delta of missed
	// updates or a full snapshot of the sender's local directory table.
	MsgDirSync
	// MsgJoin asks a seed node to admit the sender into the hash ring
	// (ring placement only).
	MsgJoin
	// MsgLeave announces a member's graceful departure from the ring.
	MsgLeave
	// MsgRingUpdate gossips the sender's full membership view; receivers
	// merge it by per-member incarnation so concurrent changes converge.
	MsgRingUpdate
	// MsgReplicaPush asks a ring successor to host (or retire) a replica of
	// a hot entry; the holder pulls the body with a FetchReplica fetch
	// (adaptive hot-entry replication, ring placement only).
	MsgReplicaPush
	// MsgReplicaEvent announces that a node now serves — or stopped serving
	// — a replica of a key, so requesters can route reads to it.
	MsgReplicaEvent
	// MsgInvalWave carries one versioned invalidation: origin node, the
	// origin's monotonically increasing wave sequence, and the key pattern to
	// drop. Waves ride the same per-link update queues as directory batches
	// and are journaled at the origin, so anti-entropy sync can replay waves
	// a partitioned or reconnecting peer missed.
	MsgInvalWave
	// MsgInvalAck answers an administrative Invalidate that carries a Seq:
	// how many local entries matched, and the fan-out accounting (peers the
	// wave was sent toward, peers whose links could not take it).
	MsgInvalAck
	// MsgStatsReply answers MsgStats with the node's metric samples.
	MsgStatsReply
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgFetch:
		return "fetch"
	case MsgFetchReply:
		return "fetch-reply"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgStats:
		return "stats"
	case MsgStatsReply:
		return "stats-reply"
	case MsgInvalidate:
		return "invalidate"
	case MsgDirBatch:
		return "dir-batch"
	case MsgDirSyncReq:
		return "dir-sync-req"
	case MsgDirSync:
		return "dir-sync"
	case MsgJoin:
		return "join"
	case MsgLeave:
		return "leave"
	case MsgRingUpdate:
		return "ring-update"
	case MsgReplicaPush:
		return "replica-push"
	case MsgReplicaEvent:
		return "replica-event"
	case MsgInvalWave:
		return "inval-wave"
	case MsgInvalAck:
		return "inval-ack"
	default:
		return fmt.Sprintf("wire.MsgType(%d)", uint8(t))
	}
}

// Protocol versions announced in the Hello exchange.
const (
	// ProtoReplicate is the replicate-era protocol: fully replicated
	// directory, fixed boot-time peer list, no membership messages.
	ProtoReplicate uint32 = 1
	// ProtoRing adds MsgJoin/MsgLeave/MsgRingUpdate, ring placement flags
	// on Fetch, and handoff DirSync frames.
	ProtoRing uint32 = 2
	// ProtoInval adds versioned invalidation waves: MsgInvalWave/MsgInvalAck,
	// a Seq on Invalidate, a WaveSeq on DirSyncReq, and Waves on DirSync.
	ProtoInval uint32 = 3
	// ProtoCurrent is the version this build announces.
	ProtoCurrent = ProtoInval
)

// Placement modes a node announces in Hello.
const (
	// PlacementReplicate is the paper's mode: every insert is broadcast and
	// every node replicates the full directory.
	PlacementReplicate uint8 = 0
	// PlacementRing places each entry on its consistent-hash owner.
	PlacementRing uint8 = 1
)

// MaxFrameSize bounds a single frame; larger frames are rejected as corrupt.
// Cached CGI results in the paper's workload are well under a megabyte, but
// allow room for large dynamic results.
const MaxFrameSize = 64 << 20

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrBadMessage    = errors.New("wire: malformed message")
	ErrUnknownType   = errors.New("wire: unknown message type")
)

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the message's wire type tag.
	Type() MsgType
	encode(e *encoder)
	decode(d *decoder) error
}

// Hello announces the sending node when a peer connection is established.
type Hello struct {
	NodeID   uint32
	NodeName string
	// Addr is the address at which the sender accepts cluster connections.
	// Administrative clients (swalactl) leave it empty.
	Addr string
	// ProtoVersion is the sender's protocol version.
	ProtoVersion uint32
	// Placement is the sender's placement mode (PlacementReplicate or
	// PlacementRing); meaningful only for cluster nodes (Addr != "").
	Placement uint8
}

// Type implements Message.
func (*Hello) Type() MsgType { return MsgHello }

// Fetch flag bits (ring placement).
const (
	// FetchExecute asks the owner to execute the request when the entry is
	// not cached instead of reporting a miss — ring-mode miss forwarding.
	FetchExecute uint8 = 1 << 0
	// FetchTakeover marks a handoff body pull: the requester is the key's
	// new ring owner, and the sender should drop its local copy once served.
	FetchTakeover uint8 = 1 << 1
	// FetchReplica marks a replica body pull: the requester is hosting a
	// replica of a hot entry and the sender (its home owner) serves the body
	// but keeps its own copy — a takeover without the delete.
	FetchReplica uint8 = 1 << 2
)

// Fetch asks the owner node for a cached body.
type Fetch struct {
	// Seq correlates the reply with the request on a multiplexed link.
	Seq uint64
	Key string
	// Flags carries ring-placement fetch options (FetchExecute,
	// FetchTakeover); zero for replicate-era senders.
	Flags uint8
}

// Type implements Message.
func (*Fetch) Type() MsgType { return MsgFetch }

// FetchReply returns a cached body, or reports that the entry is gone
// (a "false hit" in the paper's terminology).
type FetchReply struct {
	Seq uint64
	// OK is false when the entry was deleted before the fetch arrived.
	OK          bool
	ContentType string
	// Body of a reply from ReadMessage is leased (see package lease): it
	// aliases the frame it was read into and is valid until Release.
	Body []byte
	// Executed is true when the owner produced the body by running the
	// request (a FetchExecute miss at the owner) rather than serving its
	// cache — the requester counts a cluster-wide miss, not a remote hit.
	Executed bool
	// Stored is true when an Executed result was cached at the owner. An
	// executed-but-not-stored reply marks an uncacheable-at-the-owner result
	// (too short, policy-rejected, store failure): the requester may record
	// a short-lived negative hint and skip the routed hop next time.
	Stored bool

	frame lease.Buf
}

// Type implements Message.
func (*FetchReply) Type() MsgType { return MsgFetchReply }

// Release gives back the frame Body aliases, and Body with it. It is
// idempotent, and a no-op on a nil reply or one that was not read.
func (m *FetchReply) Release() {
	if m != nil && m.frame.B != nil {
		m.Body = nil
		m.frame.Release()
	}
}

// Ping is a liveness probe.
type Ping struct{ Seq uint64 }

// Type implements Message.
func (*Ping) Type() MsgType { return MsgPing }

// Pong answers a Ping.
type Pong struct{ Seq uint64 }

// Type implements Message.
func (*Pong) Type() MsgType { return MsgPong }

// Stats requests a node's counters.
type Stats struct{ Seq uint64 }

// Type implements Message.
func (*Stats) Type() MsgType { return MsgStats }

// StatsReply carries a node's counters as one flat list of samples, in the
// order the node collected them.
type StatsReply struct {
	Seq     uint64
	Samples []stats.Sample
}

// Type implements Message.
func (*StatsReply) Type() MsgType { return MsgStatsReply }

// Invalidate asks the receiver to drop its own cached entries whose key
// matches Pattern ('*' wildcards, cacheability.Match semantics). Each node
// deletes only entries it owns; the resulting directory delete updates keep
// the replicated directories converging.
type Invalidate struct {
	// Origin is the node (or administrative client) that issued the
	// invalidation.
	Origin  uint32
	Pattern string
	// Seq, when non-zero, asks the receiver to answer with an InvalAck
	// carrying the same Seq once the invalidation has been applied and
	// fanned out. Zero keeps the legacy fire-and-forget behavior.
	Seq uint64
}

// Type implements Message.
func (*Invalidate) Type() MsgType { return MsgInvalidate }

// InvalWave is one versioned invalidation: Origin's Seq-th wave drops every
// cached entry whose key matches Pattern. Receivers apply each (Origin, Seq)
// at most once; the origin journals its own waves so DirSync anti-entropy can
// replay the ones a partitioned or reconnecting peer missed.
type InvalWave struct {
	Origin  uint32
	Seq     uint64
	Pattern string
}

// Type implements Message.
func (*InvalWave) Type() MsgType { return MsgInvalWave }

// InvalAck answers an Invalidate that carried a Seq: Matched local entries
// were dropped, and the resulting wave was sent toward Peers peers of which
// Unreached had no usable link (their copies heal via anti-entropy once the
// link comes up).
type InvalAck struct {
	Seq       uint64
	Matched   uint32
	Peers     uint32
	Unreached uint32
}

// Type implements Message.
func (*InvalAck) Type() MsgType { return MsgInvalAck }

// DirUpdate is one directory mutation inside a DirBatch or DirSync frame:
// an insert (Delete false) or a delete (Delete true, meta fields unused).
type DirUpdate struct {
	Delete   bool
	Owner    uint32
	Key      string
	Size     int64
	ExecTime time.Duration
	Expires  time.Time
}

// DirBatch packs a run of directory updates from one sender into a single
// frame. Version is the sender's directory version after the last update in
// the batch (0 when the sender does not version its updates).
type DirBatch struct {
	Owner   uint32
	Version uint64
	Updates []DirUpdate
}

// Type implements Message.
func (*DirBatch) Type() MsgType { return MsgDirBatch }

// DirSyncReq is what each end of a peer link opens its half of the stream
// with: it tells the peer the highest version of the peer's directory the
// sender has recorded, so the peer can ship a catch-up DirSync.
type DirSyncReq struct {
	// Version is the sender's recorded version of the peer's table; 0 means
	// it has never seen a versioned update from it.
	Version uint64
	// WaveSeq is the highest invalidation-wave sequence the sender has
	// applied from the peer (0 when none); the peer replays any of its own
	// waves above it.
	WaveSeq uint64
}

// Type implements Message.
func (*DirSyncReq) Type() MsgType { return MsgDirSyncReq }

// DirSync is an anti-entropy catch-up for one node's directory table. When
// Full is true the receiver replaces its whole replica of Owner's table with
// Updates (all inserts); otherwise Updates is an ordered delta to apply on
// top of the receiver's current replica.
type DirSync struct {
	Owner   uint32
	Version uint64
	Full    bool
	Updates []DirUpdate
	// Handoff marks a ring-rebalance migration: Updates are entries whose
	// ring owner is now the receiver, which adopts them into its own local
	// table (and pulls the bodies from Owner) instead of a peer replica.
	Handoff bool
	// Waves replays invalidation waves of Owner's origin that the receiver
	// missed (per its DirSyncReq.WaveSeq), in sequence order. Applied before
	// Updates so a healed entry can never outlive a wave that covered it.
	Waves []InvalWave
}

// Type implements Message.
func (*DirSync) Type() MsgType { return MsgDirSync }

// Member describes one cluster member inside a RingUpdate. Incarnation
// orders competing statements about the same node: the highest wins, and a
// departure (Left) beats an arrival at the same incarnation.
type Member struct {
	ID          uint32
	Addr        string
	Incarnation uint64
	Left        bool
}

// Join asks a seed member to admit the sender into the ring. The seed
// answers on the same connection with a RingUpdate carrying its full
// membership view and gossips the new member to everyone else.
type Join struct {
	NodeID uint32
	Addr   string
}

// Type implements Message.
func (*Join) Type() MsgType { return MsgJoin }

// Leave announces the sender's graceful departure at the given incarnation.
type Leave struct {
	NodeID      uint32
	Incarnation uint64
}

// Type implements Message.
func (*Leave) Type() MsgType { return MsgLeave }

// RingUpdate gossips the sender's full membership view. Receivers merge it
// member-by-member (highest incarnation wins) and re-gossip on change, so
// concurrent joins, leaves, and evictions converge without coordination.
type RingUpdate struct {
	Origin  uint32
	Members []Member
}

// Type implements Message.
func (*RingUpdate) Type() MsgType { return MsgRingUpdate }

// ReplicaPush is sent by a hot entry's home owner to one of its ring
// successors: host a replica of Key (Retire false) or drop it (Retire true).
// The holder pulls the body itself with a FetchReplica fetch, so losing a
// push costs nothing but replication coverage.
type ReplicaPush struct {
	// Home is the entry's ring owner (the sender); handlers need it
	// explicitly because inbound frames carry no authenticated peer ID.
	Home uint32
	Key  string
	// Size/ExecTime/Expires mirror the home's directory entry, so the
	// holder can install meta-data before the body pull completes.
	Size     int64
	ExecTime time.Duration
	Expires  time.Time
	// Retire asks the holder to drop the replica (load decayed at home).
	Retire bool
}

// Type implements Message.
func (*ReplicaPush) Type() MsgType { return MsgReplicaPush }

// ReplicaEvent is broadcast by a replica holder once a replica is live
// (Retire false) or gone (Retire true), so every node can include — or stop
// including — Holder in its read-routing choices for Key.
type ReplicaEvent struct {
	Key    string
	Home   uint32
	Holder uint32
	Retire bool
}

// Type implements Message.
func (*ReplicaEvent) Type() MsgType { return MsgReplicaEvent }

// --- encoding ---

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) timeVal(t time.Time) {
	if t.IsZero() {
		e.i64(math.MinInt64)
		return
	}
	e.i64(t.UnixNano())
}

type decoder struct {
	buf   []byte
	off   int
	err   error
	alias bool   // bytes returns slices of buf, not copies (FetchReply keeps its frame)
	ct    string // the content type FetchReply.decode returned last
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrBadMessage
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) boolean() bool { return d.u8() != 0 }

// view returns the next length-prefixed field as a slice of buf.
func (d *decoder) view() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

func (d *decoder) str() string { return string(d.view()) }

func (d *decoder) bytes() []byte {
	b := d.view()
	if !d.alias {
		b = append(make([]byte, 0, len(b)), b...)
	}
	return b
}

func (d *decoder) timeVal() time.Time {
	v := d.i64()
	if v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v)
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(d.buf)-d.off)
	}
	return nil
}

func (m *Hello) encode(e *encoder) {
	e.u32(m.NodeID)
	e.str(m.NodeName)
	e.str(m.Addr)
	e.u32(m.ProtoVersion)
	e.u8(m.Placement)
}

func (m *Hello) decode(d *decoder) error {
	m.NodeID = d.u32()
	m.NodeName = d.str()
	m.Addr = d.str()
	m.ProtoVersion = d.u32()
	m.Placement = d.u8()
	return d.finish()
}

func (m *Fetch) encode(e *encoder) {
	e.u64(m.Seq)
	e.str(m.Key)
	e.u8(m.Flags)
}

func (m *Fetch) decode(d *decoder) error {
	m.Seq = d.u64()
	m.Key = d.str()
	m.Flags = d.u8()
	return d.finish()
}

func (m *FetchReply) encode(e *encoder) {
	e.u64(m.Seq)
	e.boolean(m.OK)
	e.str(m.ContentType)
	e.bytes(m.Body)
	e.boolean(m.Executed)
	e.boolean(m.Stored)
}

func (m *FetchReply) decode(d *decoder) error {
	m.Seq = d.u64()
	m.OK = d.boolean()
	// A content type that repeats from reply to reply through ReadMessage's
	// pooled decoder is not copied again.
	if ct := d.view(); d.ct != string(ct) {
		d.ct = string(ct)
	}
	m.ContentType = d.ct
	m.Body = d.bytes()
	m.Executed = d.boolean()
	m.Stored = d.boolean()
	return d.finish()
}

func (m *Ping) encode(e *encoder) { e.u64(m.Seq) }

func (m *Ping) decode(d *decoder) error {
	m.Seq = d.u64()
	return d.finish()
}

func (m *Pong) encode(e *encoder) { e.u64(m.Seq) }

func (m *Pong) decode(d *decoder) error {
	m.Seq = d.u64()
	return d.finish()
}

func (m *Stats) encode(e *encoder) { e.u64(m.Seq) }

func (m *Stats) decode(d *decoder) error {
	m.Seq = d.u64()
	return d.finish()
}

// sampleMinSize and labelMinSize are the smallest encodings of one
// stats.Sample (empty name, no labels) and one stats.Label (both strings
// empty); they bound the counts a StatsReply frame can claim.
const (
	sampleMinSize = 4 + 4 + 8
	labelMinSize  = 4 + 4
)

func (m *StatsReply) encode(e *encoder) {
	e.u64(m.Seq)
	e.u32(uint32(len(m.Samples)))
	for _, s := range m.Samples {
		e.str(s.Name)
		e.u32(uint32(len(s.Labels)))
		for _, l := range s.Labels {
			e.str(l.Name)
			e.str(l.Value)
		}
		e.u64(math.Float64bits(s.Value))
	}
}

func (m *StatsReply) decode(d *decoder) error {
	m.Seq = d.u64()
	n := int(d.u32())
	if d.err != nil || n < 0 || n > (len(d.buf)-d.off)/sampleMinSize {
		d.fail()
		return d.err
	}
	if n > 0 {
		m.Samples = make([]stats.Sample, n)
	}
	for i := range m.Samples {
		s := &m.Samples[i]
		s.Name = d.str()
		ln := int(d.u32())
		if d.err != nil || ln < 0 || ln > (len(d.buf)-d.off)/labelMinSize {
			d.fail()
			return d.err
		}
		if ln > 0 {
			s.Labels = make([]stats.Label, ln)
			for j := range s.Labels {
				s.Labels[j] = stats.Label{Name: d.str(), Value: d.str()}
			}
		}
		s.Value = math.Float64frombits(d.u64())
	}
	return d.finish()
}

func (m *Invalidate) encode(e *encoder) {
	e.u32(m.Origin)
	e.str(m.Pattern)
	e.u64(m.Seq)
}

func (m *Invalidate) decode(d *decoder) error {
	m.Origin = d.u32()
	m.Pattern = d.str()
	m.Seq = d.u64()
	return d.finish()
}

// invalWaveMinSize is the smallest encoding of one InvalWave (empty
// pattern); it bounds the wave count a DirSync frame can claim.
const invalWaveMinSize = 4 + 8 + 4

func (m *InvalWave) encode(e *encoder) {
	e.u32(m.Origin)
	e.u64(m.Seq)
	e.str(m.Pattern)
}

func (m *InvalWave) decode(d *decoder) error {
	m.Origin = d.u32()
	m.Seq = d.u64()
	m.Pattern = d.str()
	return d.finish()
}

func (m *InvalAck) encode(e *encoder) {
	e.u64(m.Seq)
	e.u32(m.Matched)
	e.u32(m.Peers)
	e.u32(m.Unreached)
}

func (m *InvalAck) decode(d *decoder) error {
	m.Seq = d.u64()
	m.Matched = d.u32()
	m.Peers = d.u32()
	m.Unreached = d.u32()
	return d.finish()
}

// dirUpdateMinSize is the smallest possible encoding of one DirUpdate
// (empty key); it bounds how many updates a frame of a given size can hold,
// so a corrupt count cannot force a huge allocation.
const dirUpdateMinSize = 1 + 4 + 4 + 8 + 8 + 8

func (e *encoder) dirUpdate(u *DirUpdate) {
	e.boolean(u.Delete)
	e.u32(u.Owner)
	e.str(u.Key)
	e.i64(u.Size)
	e.i64(int64(u.ExecTime))
	e.timeVal(u.Expires)
}

func (d *decoder) dirUpdate(u *DirUpdate) {
	u.Delete = d.boolean()
	u.Owner = d.u32()
	u.Key = d.str()
	u.Size = d.i64()
	u.ExecTime = time.Duration(d.i64())
	u.Expires = d.timeVal()
}

func (d *decoder) dirUpdates() []DirUpdate {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > (len(d.buf)-d.off)/dirUpdateMinSize {
		d.fail()
		return nil
	}
	updates := make([]DirUpdate, n)
	for i := range updates {
		d.dirUpdate(&updates[i])
	}
	return updates
}

func (m *DirBatch) encode(e *encoder) {
	e.u32(m.Owner)
	e.u64(m.Version)
	e.u32(uint32(len(m.Updates)))
	for i := range m.Updates {
		e.dirUpdate(&m.Updates[i])
	}
}

func (m *DirBatch) decode(d *decoder) error {
	m.Owner = d.u32()
	m.Version = d.u64()
	m.Updates = d.dirUpdates()
	return d.finish()
}

func (m *DirSyncReq) encode(e *encoder) {
	e.u64(m.Version)
	e.u64(m.WaveSeq)
}

func (m *DirSyncReq) decode(d *decoder) error {
	m.Version = d.u64()
	m.WaveSeq = d.u64()
	return d.finish()
}

func (m *DirSync) encode(e *encoder) {
	e.u32(m.Owner)
	e.u64(m.Version)
	e.boolean(m.Full)
	e.u32(uint32(len(m.Updates)))
	for i := range m.Updates {
		e.dirUpdate(&m.Updates[i])
	}
	e.boolean(m.Handoff)
	e.u32(uint32(len(m.Waves)))
	for i := range m.Waves {
		e.u32(m.Waves[i].Origin)
		e.u64(m.Waves[i].Seq)
		e.str(m.Waves[i].Pattern)
	}
}

func (m *DirSync) decode(d *decoder) error {
	m.Owner = d.u32()
	m.Version = d.u64()
	m.Full = d.boolean()
	m.Updates = d.dirUpdates()
	m.Handoff = d.boolean()
	wn := int(d.u32())
	if d.err != nil || wn < 0 || wn > (len(d.buf)-d.off)/invalWaveMinSize {
		d.fail()
		return d.err
	}
	if wn > 0 {
		m.Waves = make([]InvalWave, wn)
		for i := range m.Waves {
			m.Waves[i].Origin = d.u32()
			m.Waves[i].Seq = d.u64()
			m.Waves[i].Pattern = d.str()
		}
	}
	return d.finish()
}

// memberMinSize is the smallest encoding of one Member (empty addr); it
// bounds the member count a frame can claim.
const memberMinSize = 4 + 4 + 8 + 1

func (m *Join) encode(e *encoder) {
	e.u32(m.NodeID)
	e.str(m.Addr)
}

func (m *Join) decode(d *decoder) error {
	m.NodeID = d.u32()
	m.Addr = d.str()
	return d.finish()
}

func (m *Leave) encode(e *encoder) {
	e.u32(m.NodeID)
	e.u64(m.Incarnation)
}

func (m *Leave) decode(d *decoder) error {
	m.NodeID = d.u32()
	m.Incarnation = d.u64()
	return d.finish()
}

func (m *RingUpdate) encode(e *encoder) {
	e.u32(m.Origin)
	e.u32(uint32(len(m.Members)))
	for _, mb := range m.Members {
		e.u32(mb.ID)
		e.str(mb.Addr)
		e.u64(mb.Incarnation)
		e.boolean(mb.Left)
	}
}

func (m *RingUpdate) decode(d *decoder) error {
	m.Origin = d.u32()
	n := int(d.u32())
	if d.err != nil || n < 0 || n > (len(d.buf)-d.off)/memberMinSize {
		d.fail()
		return d.err
	}
	if n > 0 {
		m.Members = make([]Member, n)
		for i := range m.Members {
			m.Members[i].ID = d.u32()
			m.Members[i].Addr = d.str()
			m.Members[i].Incarnation = d.u64()
			m.Members[i].Left = d.boolean()
		}
	}
	return d.finish()
}

func (m *ReplicaPush) encode(e *encoder) {
	e.u32(m.Home)
	e.str(m.Key)
	e.i64(m.Size)
	e.i64(int64(m.ExecTime))
	e.timeVal(m.Expires)
	e.boolean(m.Retire)
}

func (m *ReplicaPush) decode(d *decoder) error {
	m.Home = d.u32()
	m.Key = d.str()
	m.Size = d.i64()
	m.ExecTime = time.Duration(d.i64())
	m.Expires = d.timeVal()
	m.Retire = d.boolean()
	return d.finish()
}

func (m *ReplicaEvent) encode(e *encoder) {
	e.str(m.Key)
	e.u32(m.Home)
	e.u32(m.Holder)
	e.boolean(m.Retire)
}

func (m *ReplicaEvent) decode(d *decoder) error {
	m.Key = d.str()
	m.Home = d.u32()
	m.Holder = d.u32()
	m.Retire = d.boolean()
	return d.finish()
}

// maxPooledBuf caps the capacity of buffers returned to the encode/decode
// pools: the occasional giant frame (a multi-megabyte FetchReply body) is
// allocated and freed normally rather than pinned in the pool forever.
const maxPooledBuf = 1 << 20

// encPool recycles encoder buffers across WriteMessage calls so the hot
// broadcast/fetch path does not allocate a fresh frame per message.
var encPool = sync.Pool{
	New: func() any { return &encoder{buf: make([]byte, 0, 512)} },
}

// AppendFrame appends m's self-delimiting frame encoding to buf and returns
// the extended slice (append-style; buf may be nil).
func AppendFrame(buf []byte, m Message) []byte {
	e := &encoder{buf: buf}
	start := len(e.buf)
	e.u32(0) // placeholder for length
	e.u8(uint8(m.Type()))
	m.encode(e)
	binary.BigEndian.PutUint32(e.buf[start:], uint32(len(e.buf)-start-4))
	return e.buf
}

// Marshal encodes a message into a self-delimiting frame.
func Marshal(m Message) []byte {
	return AppendFrame(make([]byte, 0, 64), m)
}

// Unmarshal decodes one message from a frame payload (type byte + body,
// without the length prefix).
func Unmarshal(payload []byte) (Message, error) {
	if len(payload) < 1 {
		return nil, ErrBadMessage
	}
	return unmarshal(MsgType(payload[0]), &decoder{buf: payload[1:]})
}

// unmarshal decodes the message of type t that d holds.
func unmarshal(t MsgType, d *decoder) (Message, error) {
	var m Message
	switch t {
	case MsgHello:
		m = &Hello{}
	case MsgFetch:
		m = &Fetch{}
	case MsgFetchReply:
		m = &FetchReply{}
	case MsgPing:
		m = &Ping{}
	case MsgPong:
		m = &Pong{}
	case MsgStats:
		m = &Stats{}
	case MsgStatsReply:
		m = &StatsReply{}
	case MsgInvalidate:
		m = &Invalidate{}
	case MsgDirBatch:
		m = &DirBatch{}
	case MsgDirSyncReq:
		m = &DirSyncReq{}
	case MsgDirSync:
		m = &DirSync{}
	case MsgJoin:
		m = &Join{}
	case MsgLeave:
		m = &Leave{}
	case MsgRingUpdate:
		m = &RingUpdate{}
	case MsgReplicaPush:
		m = &ReplicaPush{}
	case MsgReplicaEvent:
		m = &ReplicaEvent{}
	case MsgInvalWave:
		m = &InvalWave{}
	case MsgInvalAck:
		m = &InvalAck{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(t))
	}
	if err := m.decode(d); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteMessage writes one framed message to w. The frame is encoded into a
// pooled buffer, so steady-state writes do not allocate.
func WriteMessage(w io.Writer, m Message) error {
	// Encode inline on the pooled encoder rather than via AppendFrame: a
	// stack-constructed encoder would escape through the Message interface
	// call and cost an allocation per write.
	e := encPool.Get().(*encoder)
	e.buf = e.buf[:0]
	e.u32(0) // placeholder for length
	e.u8(uint8(m.Type()))
	m.encode(e)
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	_, err := w.Write(e.buf)
	if cap(e.buf) <= maxPooledBuf {
		encPool.Put(e)
	}
	return err
}

// frameReader is ReadMessage's pooled state. The frame stays from read to read
// (messages copy what they keep) until a FetchReply takes it along; it is
// never released in place, so leasing it again is safe.
type frameReader struct {
	hdr   [4]byte
	d     decoder
	frame lease.Buf
}

var readerPool = sync.Pool{New: func() any { return new(frameReader) }}

// ReadMessage reads one framed message from r. A FetchReply keeps the frame it
// was read into (its Body aliases it until Release); every other message owns
// copies of its fields, so steady-state reads allocate just the message.
func ReadMessage(r io.Reader) (Message, error) {
	fr := readerPool.Get().(*frameReader)
	m, err := fr.read(r)
	fr.d.buf = nil
	if cap(fr.frame.B) > maxPooledBuf {
		fr.frame = lease.Buf{}
	}
	readerPool.Put(fr)
	return m, err
}

func (fr *frameReader) read(r io.Reader) (Message, error) {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n == 0 {
		return nil, ErrBadMessage
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if cap(fr.frame.B) < n {
		fr.frame = lease.Buf{}
		fr.frame.Lease(n)
	}
	payload := fr.frame.B[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	t := MsgType(payload[0])
	fr.d = decoder{buf: payload[1:], alias: t == MsgFetchReply, ct: fr.d.ct}
	m, err := unmarshal(t, &fr.d)
	if reply, ok := m.(*FetchReply); ok {
		reply.frame, fr.frame = fr.frame, lease.Buf{}
	}
	return m, err
}

// Conn wraps a byte stream with buffered, mutex-free message reading and a
// buffered, corked writer: WriteBuffered queues a frame without touching the
// underlying stream, and Flush pushes everything queued in one write. Write
// keeps the old write-through semantics (buffer + immediate flush). Writes
// must be externally serialized by the caller (the cluster peer link does
// this with a send mutex).
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// NewConn wraps rw for message exchange.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{
		r: bufio.NewReaderSize(rw, 32<<10),
		w: bufio.NewWriterSize(rw, 32<<10),
	}
}

// Read reads the next message.
func (c *Conn) Read() (Message, error) { return ReadMessage(c.r) }

// Write writes one message and flushes it to the stream.
func (c *Conn) Write(m Message) error {
	if err := WriteMessage(c.w, m); err != nil {
		return err
	}
	_, err := c.Flush()
	return err
}

// WriteBuffered queues one message in the write buffer without flushing.
// Frames larger than the buffer spill through to the stream directly
// (bufio semantics), so corking never grows memory unboundedly.
func (c *Conn) WriteBuffered(m Message) error { return WriteMessage(c.w, m) }

// Flush writes any corked frames to the underlying stream. It reports
// whether data was actually pushed (false when the buffer was empty), which
// lets callers count real stream writes.
func (c *Conn) Flush() (bool, error) {
	if c.w.Buffered() == 0 {
		return false, nil
	}
	return true, c.w.Flush()
}
