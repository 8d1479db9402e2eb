// Package wire defines the binary inter-node protocol Swala nodes use to
// exchange cache meta-data and data: directory update batches and their
// anti-entropy syncs, remote cache fetches, ring membership, hot-entry
// replicas, invalidation waves, and the hellos that open a link. Messages
// are length-prefixed and encoded with a compact big-endian binary format so
// that the protocol has a stable, language-independent wire representation.
//
// Frame layout:
//
//	uint32  total payload length (excluding this prefix)
//	uint8   message type
//	...     type-specific payload
//
// Strings and byte slices are encoded as uint32 length + bytes, booleans as
// one byte that is 0 or 1, and lists as a uint32 count + the elements. Times
// are int64 Unix nanoseconds (math.MinInt64 for the zero time). Durations are
// int64 nanoseconds.
//
// Each message lays out its fields once, in a code method that a coder runs
// in either direction: appending the fields to a frame, or reading them back
// from one. Decoding a frame and encoding the result gives the same bytes.
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
	// MsgInvalidate asks a node (swalactl's administrative entry) to drop
	// cached entries whose key matches a pattern cluster-wide — the
	// application-driven invalidation the paper lists as future work
	// (Section 4.2, citing Iyengar & Challenger).
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

// registry names each message type and makes a zero message of it. The slots
// of the reserved numbers stay empty, so a frame of one is an unknown type.
var registry = [...]struct {
	name string
	new  func() Message
}{
	MsgHello:        {"hello", func() Message { return new(Hello) }},
	MsgFetch:        {"fetch", func() Message { return new(Fetch) }},
	MsgFetchReply:   {"fetch-reply", func() Message { return new(FetchReply) }},
	MsgPing:         {"ping", func() Message { return new(Ping) }},
	MsgPong:         {"pong", func() Message { return new(Pong) }},
	MsgStats:        {"stats", func() Message { return new(Stats) }},
	MsgInvalidate:   {"invalidate", func() Message { return new(Invalidate) }},
	MsgDirBatch:     {"dir-batch", func() Message { return new(DirBatch) }},
	MsgDirSyncReq:   {"dir-sync-req", func() Message { return new(DirSyncReq) }},
	MsgDirSync:      {"dir-sync", func() Message { return new(DirSync) }},
	MsgJoin:         {"join", func() Message { return new(Join) }},
	MsgLeave:        {"leave", func() Message { return new(Leave) }},
	MsgRingUpdate:   {"ring-update", func() Message { return new(RingUpdate) }},
	MsgReplicaPush:  {"replica-push", func() Message { return new(ReplicaPush) }},
	MsgReplicaEvent: {"replica-event", func() Message { return new(ReplicaEvent) }},
	MsgInvalWave:    {"inval-wave", func() Message { return new(InvalWave) }},
	MsgInvalAck:     {"inval-ack", func() Message { return new(InvalAck) }},
	MsgStatsReply:   {"stats-reply", func() Message { return new(StatsReply) }},
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if int(t) < len(registry) && registry[t].new != nil {
		return registry[t].name
	}
	return fmt.Sprintf("wire.MsgType(%d)", uint8(t))
}

// ProtoVersion is the protocol version a cluster node announces in Hello. A
// node refuses a peer that announces another: decoding is strict, so the
// peer's frames would fail on arrival.
const ProtoVersion uint32 = 3

// AdminID is the node ID an administrative client (swalactl) announces in its
// Hello, and the Origin of an Invalidate it sends.
const AdminID uint32 = 0xFFFF

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
	code(c *coder)
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

func (m *Hello) code(c *coder) {
	c.u32(&m.NodeID)
	c.str(&m.NodeName)
	c.str(&m.Addr)
	c.u32(&m.ProtoVersion)
	c.u8(&m.Placement)
}

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

func (m *Fetch) code(c *coder) {
	c.u64(&m.Seq)
	c.str(&m.Key)
	c.u8(&m.Flags)
}

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

func (m *FetchReply) code(c *coder) {
	c.u64(&m.Seq)
	c.boolean(&m.OK)
	if c.dec {
		// A content type that repeats from reply to reply through
		// ReadMessage's pooled coder is not copied again.
		if ct := c.view(); c.ct != string(ct) {
			c.ct = string(ct)
		}
		m.ContentType = c.ct
	} else {
		c.str(&m.ContentType)
	}
	c.bytes(&m.Body)
	c.boolean(&m.Executed)
	c.boolean(&m.Stored)
}

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

func (m *Ping) code(c *coder) { c.u64(&m.Seq) }

// Pong answers a Ping.
type Pong struct{ Seq uint64 }

// Type implements Message.
func (*Pong) Type() MsgType { return MsgPong }

func (m *Pong) code(c *coder) { c.u64(&m.Seq) }

// Stats requests a node's counters.
type Stats struct{ Seq uint64 }

// Type implements Message.
func (*Stats) Type() MsgType { return MsgStats }

func (m *Stats) code(c *coder) { c.u64(&m.Seq) }

// StatsReply carries a node's counters as one flat list of samples, in the
// order the node collected them.
type StatsReply struct {
	Seq     uint64
	Samples []stats.Sample
}

// Type implements Message.
func (*StatsReply) Type() MsgType { return MsgStatsReply }

func (m *StatsReply) code(c *coder) {
	c.u64(&m.Seq)
	list(c, &m.Samples, samples)
}

func codeSample(s *stats.Sample, c *coder) {
	c.str(&s.Name)
	list(c, &s.Labels, labels)
	c.f64(&s.Value)
}

func codeLabel(l *stats.Label, c *coder) {
	c.str(&l.Name)
	c.str(&l.Value)
}

// Invalidate is the administrative entry of an invalidation: the receiver
// originates one InvalWave for Pattern ('*' wildcards, cacheability.Match
// semantics), which drops every matching cached entry on every node.
type Invalidate struct {
	// Origin is the client that issued the invalidation (swalactl sends
	// AdminID).
	Origin  uint32
	Pattern string
	// Seq, when non-zero, asks the receiver to answer with an InvalAck
	// carrying the same Seq once the invalidation has been applied and
	// fanned out as a wave. Zero asks for no answer.
	Seq uint64
}

// Type implements Message.
func (*Invalidate) Type() MsgType { return MsgInvalidate }

func (m *Invalidate) code(c *coder) {
	c.u32(&m.Origin)
	c.str(&m.Pattern)
	c.u64(&m.Seq)
}

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

func (m *InvalWave) code(c *coder) {
	c.u32(&m.Origin)
	c.u64(&m.Seq)
	c.str(&m.Pattern)
}

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

func (m *InvalAck) code(c *coder) {
	c.u64(&m.Seq)
	c.u32(&m.Matched)
	c.u32(&m.Peers)
	c.u32(&m.Unreached)
}

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

func (u *DirUpdate) code(c *coder) {
	c.boolean(&u.Delete)
	c.u32(&u.Owner)
	c.str(&u.Key)
	c.i64(&u.Size)
	c.dur(&u.ExecTime)
	c.timeVal(&u.Expires)
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

func (m *DirBatch) code(c *coder) {
	c.u32(&m.Owner)
	c.u64(&m.Version)
	list(c, &m.Updates, dirUpdates)
}

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

func (m *DirSyncReq) code(c *coder) {
	c.u64(&m.Version)
	c.u64(&m.WaveSeq)
}

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

func (m *DirSync) code(c *coder) {
	c.u32(&m.Owner)
	c.u64(&m.Version)
	c.boolean(&m.Full)
	list(c, &m.Updates, dirUpdates)
	c.boolean(&m.Handoff)
	list(c, &m.Waves, invalWaves)
}

// Member describes one cluster member inside a RingUpdate. Incarnation
// orders competing statements about the same node: the highest wins, and a
// departure (Left) beats an arrival at the same incarnation.
type Member struct {
	ID          uint32
	Addr        string
	Incarnation uint64
	Left        bool
}

func (mb *Member) code(c *coder) {
	c.u32(&mb.ID)
	c.str(&mb.Addr)
	c.u64(&mb.Incarnation)
	c.boolean(&mb.Left)
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

func (m *Join) code(c *coder) {
	c.u32(&m.NodeID)
	c.str(&m.Addr)
}

// Leave announces the sender's graceful departure at the given incarnation.
type Leave struct {
	NodeID      uint32
	Incarnation uint64
}

// Type implements Message.
func (*Leave) Type() MsgType { return MsgLeave }

func (m *Leave) code(c *coder) {
	c.u32(&m.NodeID)
	c.u64(&m.Incarnation)
}

// RingUpdate gossips the sender's full membership view. Receivers merge it
// member-by-member (highest incarnation wins) and re-gossip on change, so
// concurrent joins, leaves, and evictions converge without coordination.
type RingUpdate struct {
	Origin  uint32
	Members []Member
}

// Type implements Message.
func (*RingUpdate) Type() MsgType { return MsgRingUpdate }

func (m *RingUpdate) code(c *coder) {
	c.u32(&m.Origin)
	list(c, &m.Members, members)
}

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

func (m *ReplicaPush) code(c *coder) {
	c.u32(&m.Home)
	c.str(&m.Key)
	c.i64(&m.Size)
	c.dur(&m.ExecTime)
	c.timeVal(&m.Expires)
	c.boolean(&m.Retire)
}

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

func (m *ReplicaEvent) code(c *coder) {
	c.str(&m.Key)
	c.u32(&m.Home)
	c.u32(&m.Holder)
	c.boolean(&m.Retire)
}

// --- the codec ---

// coder runs a message's code method in one direction. Encoding appends each
// field to buf. Decoding (dec) fills the fields of a zero message from buf at
// off; an error sticks, so finish reports a short or malformed frame however
// many fields were read after it.
type coder struct {
	buf   []byte
	dec   bool
	off   int
	err   error
	alias bool   // decoded byte slices are views of buf, not copies (FetchReply keeps its frame)
	ct    string // the content type the last decoded FetchReply carried
}

// take returns the next n bytes of buf, or nil when fewer remain.
func (c *coder) take(n int) []byte {
	if uint(n) > uint(len(c.buf)-c.off) {
		c.err = ErrBadMessage
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

func (c *coder) u8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *coder) u32(v *uint32) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

func (c *coder) u64(v *uint64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

func (c *coder) i64(v *int64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = int64(binary.BigEndian.Uint64(b))
	}
}

func (c *coder) dur(v *time.Duration) { c.i64((*int64)(v)) }

func (c *coder) f64(v *float64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(*v))
	} else if b := c.take(8); b != nil {
		*v = math.Float64frombits(binary.BigEndian.Uint64(b))
	}
}

// boolean accepts only the bytes 0 and 1, the two an encoder writes, so every
// frame that decodes re-encodes to itself.
func (c *coder) boolean(v *bool) {
	if !c.dec {
		var b uint8
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	} else if b := c.take(1); b != nil {
		switch b[0] {
		case 0: // a decode fills a zero message
		case 1:
			*v = true
		default:
			c.err = ErrBadMessage
		}
	}
}

// view returns the next length-prefixed field of a decode as a slice of buf,
// capped so that appending to it cannot reach the bytes after it.
func (c *coder) view() []byte {
	var n uint32
	c.u32(&n)
	b := c.take(int(n))
	return b[:len(b):len(b)]
}

func (c *coder) str(v *string) {
	if c.dec {
		*v = string(c.view())
	} else {
		c.buf = append(binary.BigEndian.AppendUint32(c.buf, uint32(len(*v))), *v...)
	}
}

func (c *coder) bytes(v *[]byte) {
	if !c.dec {
		c.buf = append(binary.BigEndian.AppendUint32(c.buf, uint32(len(*v))), *v...)
		return
	}
	b := c.view()
	if !c.alias {
		b = append(make([]byte, 0, len(b)), b...)
	}
	*v = b
}

func (c *coder) timeVal(v *time.Time) {
	if c.dec {
		var ns int64
		if c.i64(&ns); ns != math.MinInt64 {
			*v = time.Unix(0, ns)
		}
		return
	}
	ns := int64(math.MinInt64)
	if !v.IsZero() {
		ns = v.UnixNano()
	}
	c.i64(&ns)
}

// finish reports a decode's error, or trailing bytes after the last field.
func (c *coder) finish() error {
	if c.err == nil && c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(c.buf)-c.off)
	}
	return c.err
}

// elem is how a list codes one element of type T. min is the size of a zero
// element, the fewest bytes any element takes: it bounds the count a frame
// can claim, so a corrupt count cannot force a huge allocation.
type elem[T any] struct {
	code func(*T, *coder)
	min  int
}

func newElem[T any](code func(*T, *coder)) elem[T] {
	var c coder
	var zero T
	code(&zero, &c)
	return elem[T]{code, len(c.buf)}
}

// The element codecs of the message lists.
var (
	dirUpdates = newElem((*DirUpdate).code)
	invalWaves = newElem((*InvalWave).code)
	members    = newElem((*Member).code)
	samples    = newElem(codeSample)
	labels     = newElem(codeLabel)
)

// list codes a uint32 count followed by each element of *s. A decoded count
// of zero leaves *s nil.
func list[T any](c *coder, s *[]T, e elem[T]) {
	n := uint32(len(*s))
	c.u32(&n)
	if c.dec {
		if c.err != nil || uint64(n) > uint64((len(c.buf)-c.off)/e.min) {
			c.err = ErrBadMessage
			return
		}
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		e.code(&(*s)[i], c)
	}
}

// frame appends m's frame to c.buf, which must be empty.
func (c *coder) frame(m Message) {
	c.buf = append(c.buf, 0, 0, 0, 0, uint8(m.Type())) // length, patched below
	m.code(c)
	binary.BigEndian.PutUint32(c.buf, uint32(len(c.buf)-4))
}

// maxPooledBuf caps the capacity of buffers returned to the encode/decode
// pools: the occasional giant frame (a multi-megabyte FetchReply body) is
// allocated and freed normally rather than pinned in the pool forever.
const maxPooledBuf = 1 << 20

// encPool recycles encoding coders across WriteMessage calls so the hot
// broadcast/fetch path does not allocate a fresh frame per message.
var encPool = sync.Pool{
	New: func() any { return &coder{buf: make([]byte, 0, 512)} },
}

// Marshal encodes a message into a self-delimiting frame.
func Marshal(m Message) []byte {
	c := &coder{buf: make([]byte, 0, 64)}
	c.frame(m)
	return c.buf
}

// Unmarshal decodes one message from a frame payload (type byte + body,
// without the length prefix).
func Unmarshal(payload []byte) (Message, error) {
	if len(payload) < 1 {
		return nil, ErrBadMessage
	}
	return unmarshal(MsgType(payload[0]), &coder{buf: payload[1:], dec: true})
}

// unmarshal decodes the message of type t that c holds.
func unmarshal(t MsgType, c *coder) (Message, error) {
	if int(t) >= len(registry) || registry[t].new == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(t))
	}
	m := registry[t].new()
	m.code(c)
	if err := c.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteMessage writes one framed message to w. The frame is encoded into a
// pooled buffer, so steady-state writes do not allocate. A frame larger than
// MaxFrameSize, which the reader would reject, is not written at all: the
// error is ErrFrameTooLarge and w is untouched.
func WriteMessage(w io.Writer, m Message) error {
	c := encPool.Get().(*coder)
	c.buf = c.buf[:0]
	c.frame(m)
	err := ErrFrameTooLarge
	if len(c.buf)-4 <= MaxFrameSize {
		_, err = w.Write(c.buf)
	}
	if cap(c.buf) <= maxPooledBuf {
		encPool.Put(c)
	}
	return err
}

// frameReader is ReadMessage's pooled state. The frame stays from read to read
// (messages copy what they keep) until a FetchReply takes it along; it is
// never released in place, so leasing it again is safe.
type frameReader struct {
	hdr   [4]byte
	c     coder
	frame lease.Buf
}

var readerPool = sync.Pool{New: func() any { return new(frameReader) }}

// ReadMessage reads one framed message from r. A FetchReply keeps the frame it
// was read into (its Body aliases it until Release); every other message owns
// copies of its fields, so steady-state reads allocate just the message.
func ReadMessage(r io.Reader) (Message, error) {
	fr := readerPool.Get().(*frameReader)
	m, err := fr.read(r)
	fr.c.buf = nil
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
	fr.c = coder{buf: payload[1:], dec: true, alias: t == MsgFetchReply, ct: fr.c.ct}
	m, err := unmarshal(t, &fr.c)
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
