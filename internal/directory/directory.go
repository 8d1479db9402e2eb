// Package directory implements Swala's replicated global cache directory.
// Every node keeps one table per cluster node; each table records what is
// cached at the corresponding node. The paper's intra-node consistency
// protocol locks at table granularity with read/write locks — one lock per
// directory would serialize lookups, per-entry locks would cost a
// lock/unlock pair per probed entry. This implementation goes one step
// further along the same axis: each table is hash-striped into a fixed
// number of shards, each with its own RW lock, so that concurrent writers
// to the same table (inserts racing touches racing expiry) stop
// serializing too. Readers and writers of different keys proceed fully in
// parallel; the paper's argument (coarser = contention, finer = overhead)
// picks the stripe count as the middle ground.
//
// The directory stores meta-data only. The local table additionally enforces
// a capacity (in entries, as in the paper's experiments with cache sizes
// 2000 and 20) through a pluggable replacement policy; evictions are
// reported to the caller so the cache manager can delete the stored body and
// broadcast the deletion.
package directory

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/replacement"
)

// Entry is the meta-data for one cached result.
type Entry struct {
	// Key canonically identifies the request (httpmsg.CacheKey form).
	Key string
	// Owner is the node holding the body.
	Owner uint32
	// Size is the body size in bytes.
	Size int64
	// ExecTime is how long the CGI ran to produce the result.
	ExecTime time.Duration
	// Inserted is when the entry was cached.
	Inserted time.Time
	// Expires is the TTL deadline; zero means never expires.
	Expires time.Time
	// Hits counts fetches served from this entry (maintained by the owner).
	Hits int64
	// Replica marks a local-table entry held as an adaptive replica of a
	// key homed elsewhere on the ring: serveable like any owned entry, but
	// outside the replacement policy, never journaled, and skipped by
	// rebalance scans. In-memory only — never encoded on the wire.
	Replica bool
	// Holders lists nodes currently serving replicas of the key (ring-mode
	// synthetic lookup results only; nil when the key is unreplicated).
	Holders []uint32
}

// Expired reports whether the entry's TTL has passed at time now.
func (e *Entry) Expired(now time.Time) bool {
	return !e.Expires.IsZero() && now.After(e.Expires)
}

// numStripes is the per-table shard count. 32 stripes keep the per-stripe
// maps small and make lock collisions between concurrent accessors of
// different keys unlikely at the goroutine counts the server runs (tens of
// request threads), while the fixed array keeps stripe selection a single
// hash + mask with no allocation.
const numStripes = 32

// slot is what a table stores per key: an Entry less the fields the table
// already knows (Key is the map key, Owner the table's node) or never holds
// (Holders belongs to synthetic ring lookups) — 80 bytes instead of 128.
type slot struct {
	size     int64
	execTime time.Duration
	inserted time.Time
	expires  time.Time
	hits     int64
	replica  bool
}

func newSlot(e *Entry) *slot {
	return &slot{size: e.Size, execTime: e.ExecTime, inserted: e.Inserted, expires: e.Expires, hits: e.Hits, replica: e.Replica}
}

func (v *slot) expired(now time.Time) bool {
	return !v.expires.IsZero() && now.After(v.expires)
}

// stripe is one lock-shard of a table.
type stripe struct {
	mu      sync.RWMutex
	entries map[string]*slot
}

// table is the per-node portion of the directory, hash-striped so that
// concurrent operations on different keys do not contend on one lock.
type table struct {
	owner   uint32
	stripes [numStripes]stripe
}

func newTable(owner uint32) *table {
	t := &table{owner: owner}
	for i := range t.stripes {
		t.stripes[i].entries = make(map[string]*slot)
	}
	return t
}

// fill rebuilds in e the Entry stored under key. It writes e field by field:
// building an Entry value and copying it costs the lookup hot path several
// 128-byte copies.
func (t *table) fill(e *Entry, key string, v *slot) {
	e.Key, e.Owner, e.Size, e.ExecTime = key, t.owner, v.size, v.execTime
	e.Inserted, e.Expires, e.Hits, e.Replica = v.inserted, v.expires, v.hits, v.replica
}

// stripeFor selects the shard for key with FNV-1a, inlined to avoid the
// hash.Hash allocation on every directory operation.
func (t *table) stripeFor(key string) *stripe {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &t.stripes[h%numStripes]
}

func (t *table) lookup(key string, now time.Time) (e Entry, ok bool) {
	s := t.stripeFor(key)
	s.mu.RLock()
	v, ok := s.entries[key]
	if ok = ok && !v.expired(now); ok {
		t.fill(&e, key, v)
	}
	s.mu.RUnlock()
	return e, ok
}

func (t *table) insert(e *Entry) {
	v := newSlot(e)
	s := t.stripeFor(e.Key)
	s.mu.Lock()
	s.entries[e.Key] = v
	s.mu.Unlock()
}

// insertReporting stores e and reports whether the key was already present
// and, if so, whether the displaced entry was a held replica (replicas are
// invisible to the replacement policy, so the caller's capacity bookkeeping
// must treat overwriting one as a fresh insert).
func (t *table) insertReporting(e *Entry) (existed, wasReplica bool) {
	v := newSlot(e)
	s := t.stripeFor(e.Key)
	s.mu.Lock()
	if old, ok := s.entries[e.Key]; ok {
		existed, wasReplica = true, old.replica
	}
	s.entries[e.Key] = v
	s.mu.Unlock()
	return existed, wasReplica
}

// touch bumps the hit counter of key if present.
func (t *table) touch(key string) {
	s := t.stripeFor(key)
	s.mu.Lock()
	if v, ok := s.entries[key]; ok {
		v.hits++
	}
	s.mu.Unlock()
}

func (t *table) remove(key string) bool {
	s := t.stripeFor(key)
	s.mu.Lock()
	_, ok := s.entries[key]
	delete(s.entries, key)
	s.mu.Unlock()
	return ok
}

func (t *table) len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

func (t *table) expiredKeys(now time.Time) []string {
	var out []string
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		for k, v := range s.entries {
			if v.expired(now) {
				out = append(out, k)
			}
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// current returns key's state as the record at version ver: an insert of the
// stored entry (expired or not, as a snapshot ships it), or a delete when the
// key is absent or only held as a replica.
func (t *table) current(key string, ver uint64) SyncOp {
	s := t.stripeFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok := s.entries[key]; ok && !v.replica {
		op := SyncOp{Version: ver}
		t.fill(&op.Entry, key, v)
		return op
	}
	return SyncOp{Version: ver, Kind: Delete, Entry: Entry{Key: key, Owner: t.owner}}
}

// snapshot returns copies of all entries in the table.
func (t *table) snapshot() []Entry {
	var out []Entry
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		for k, v := range s.entries {
			var e Entry
			t.fill(&e, k, v)
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	return out
}

// Kind says what a record of an origin log does.
type Kind uint8

// Record kinds, numbered as wire.DirKind.
const (
	// Insert adds or replaces Entry in the origin's table.
	Insert Kind = iota
	// Delete removes Entry.Key from the origin's table.
	Delete
	// Wave is an invalidation wave: every node drops its cached entries
	// whose key matches the pattern in Entry.Key.
	Wave
)

// SyncOp is one record of a node's origin log, as handed to the OnUpdate
// callback and shipped in a SyncSince catch-up. For a delete only Entry.Key
// (and Entry.Owner) are meaningful; for a wave only Entry.Key, the pattern.
type SyncOp struct {
	Version uint64
	Kind    Kind
	Entry   Entry
}

// journalLimit is how many recent records the log keeps for delta sync; a
// replica further behind than this receives a full snapshot instead.
const journalLimit = 4096

// Cursor is a sender's position in its own log toward one peer: every record
// at or below it has been written to the peer, in order. A catch-up replays
// the log from it (SyncSince). It moves only over contiguous records, so a
// record dropped on the way keeps it below the gap, where the peer's floor
// stops too.
type Cursor uint64

// Wrote advances c over the records first..last, just written to the peer,
// and reports whether they continue it. When they do not, the peer refuses
// them (its floor stops at the gap) and the caller owes it a catch-up.
func (c *Cursor) Wrote(first, last uint64) bool {
	if first > uint64(*c)+1 {
		return false
	}
	*c = max(*c, Cursor(last))
	return true
}

// origin is what a replica keeps of one other node's log: the floor, the
// version up to which every record has been applied. mu serializes the
// application of the origin's records, so a record is applied once however
// many links deliver it, and a wave's drop finishes before the floor passes
// it.
type origin struct {
	mu    sync.Mutex
	floor uint64
}

// Directory is one node's replica of the global cache directory.
// All methods are safe for concurrent use.
type Directory struct {
	self uint32

	mu     sync.RWMutex // guards the tables map itself (node set changes)
	tables map[uint32]*table

	// localMu guards capacity bookkeeping (policy + capacity) for the local
	// table, the update version, and the journal. The policy structures are
	// not internally synchronized.
	localMu  sync.Mutex
	policy   replacement.Policy
	capacity int

	// version numbers the records of this node's origin log: each wave, and
	// each local-table mutation (insert, replace, delete, eviction, expiry)
	// while entries are logged (see logEntries). Replicas keep a floor of it,
	// which is what anti-entropy sync compares.
	version uint64
	// journal holds the key (or, for a wave, the pattern) of each recent
	// record, oldest first: journal[i] is the record at version
	// version-len(journal)+1+i. Entries themselves are not kept — the local
	// table already holds each key's current state, which is what a delta
	// ships (SyncSince). waves lists the versions of the journal's wave
	// records, ascending.
	journal []string
	waves   []uint64
	// lastWave is the version of the newest wave record; lostWave the
	// newest version at or below which a wave may lie that the journal no
	// longer holds (trimmed, or from before a restart). A catch-up past the
	// journal's reach leads with a "*" wave when lostWave is above the
	// replica's floor.
	lastWave, lostWave uint64
	// onUpdate, when set, observes every record under localMu. logEntries
	// is whether local-table mutations are records: only while someone
	// observes them and no ring placement keeps peers from replicating the
	// table. A log nobody reads records no entries.
	onUpdate   func(SyncOp)
	logEntries bool
	// onWave applies a remote wave's pattern to the local cache.
	onWave func(origin uint32, pattern string)

	// peerMu guards origins, this replica's state of each other node's log.
	peerMu  sync.Mutex
	origins map[uint32]*origin

	// placeMu guards place, the consistent-hash placement resolver. When set
	// (ring mode) Lookup stops scanning replicated peer tables: the ring
	// names the only node that can hold a key, so an out-of-range key
	// resolves to a synthetic entry pointing at its owner — per-node
	// directory state shrinks from the whole cluster's metadata to just the
	// local table.
	placeMu sync.RWMutex
	place   func(key string) (owner uint32, ok bool)

	// quarMu guards quarantined: remote nodes whose tables Lookup must skip
	// because the failure detector declared them dead. Quarantined tables
	// keep receiving updates and syncs (so lifting the quarantine exposes a
	// converged replica); only lookups ignore them. quarCount mirrors the
	// map size so the lookup hot path can skip the lock entirely in the
	// common all-alive case.
	quarMu      sync.RWMutex
	quarantined map[uint32]bool
	quarCount   atomic.Int32

	// holders tracks, per key, which nodes currently serve adaptive replicas
	// (maintained from ReplicaEvent broadcasts). holderCount mirrors the
	// number of replicated keys so the ring-lookup hot path can skip the
	// stripe lock entirely while nothing is replicated — the default.
	holders     [numStripes]holderStripe
	holderCount atomic.Int32
}

// holderStripe is one lock-shard of the replica-holder index.
type holderStripe struct {
	mu sync.RWMutex
	m  map[string][]uint32
}

// stripeIndex selects a stripe for key (same FNV-1a as table.stripeFor).
func stripeIndex(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % numStripes)
}

// New creates a directory for node self with the given local capacity (in
// entries; <=0 means unbounded) and replacement policy (nil defaults to
// LRU). Peer tables are created lazily as inserts from new nodes arrive.
func New(self uint32, capacity int, policy replacement.Policy) *Directory {
	if policy == nil {
		policy = replacement.MustNew(replacement.LRU)
	}
	d := &Directory{
		self:        self,
		tables:      make(map[uint32]*table),
		policy:      policy,
		capacity:    capacity,
		origins:     make(map[uint32]*origin),
		quarantined: make(map[uint32]bool),
	}
	d.tables[self] = newTable(self)
	for i := range d.holders {
		d.holders[i].m = make(map[string][]uint32)
	}
	return d
}

// OnUpdate registers fn to observe every record of the origin log: the
// local-table mutations (insert, replace, delete, eviction, expiry), logged
// from now on unless ring placement is set, and the waves. fn runs with the
// local-table lock held, in strict version order — this is what lets the
// cluster layer enqueue broadcasts in version order — so it must be fast and
// must not call back into the Directory. Set it before the directory sees
// concurrent use.
func (d *Directory) OnUpdate(fn func(SyncOp)) {
	d.localMu.Lock()
	d.onUpdate = fn
	d.logEntries = fn != nil && d.resolver() == nil
	d.localMu.Unlock()
}

// OnWave registers fn to apply the waves of other nodes' logs: drop every
// local entry whose key matches pattern. fn runs once per wave, before the
// replica's floor of origin passes it, with that origin's records held back;
// it may call back into the Directory, but not wait for origin's floor. Set
// it before the directory sees concurrent use.
func (d *Directory) OnWave(fn func(origin uint32, pattern string)) {
	d.onWave = fn
}

// record appends one record to the log. Callers must hold localMu.
func (d *Directory) record(kind Kind, e Entry) {
	d.version++
	if len(d.journal) >= 2*journalLimit {
		// Amortized compaction: keep the newest journalLimit records in place
		// and clear the rest so the dropped keys can be freed.
		trimmed := d.version - 1 - journalLimit // the newest record dropped
		n := copy(d.journal, d.journal[len(d.journal)-journalLimit:])
		clear(d.journal[n:])
		d.journal = d.journal[:n]
		i := 0
		for i < len(d.waves) && d.waves[i] <= trimmed {
			d.lostWave = d.waves[i]
			i++
		}
		d.waves = append(d.waves[:0], d.waves[i:]...)
	}
	d.journal = append(d.journal, e.Key)
	if kind == Wave {
		d.waves = append(d.waves, d.version)
		d.lastWave = d.version
	}
	if d.onUpdate != nil {
		d.onUpdate(SyncOp{Version: d.version, Kind: kind, Entry: e})
	}
}

// recordEntry logs a local-table mutation, when entries are logged. Callers
// must hold localMu.
func (d *Directory) recordEntry(kind Kind, e Entry) {
	if d.logEntries {
		d.record(kind, e)
	}
}

// Wave appends an invalidation wave for pattern to the log, and so to every
// peer's stream, and returns its version. The caller drops its own matching
// entries.
func (d *Directory) Wave(pattern string) uint64 {
	d.localMu.Lock()
	defer d.localMu.Unlock()
	d.record(Wave, Entry{Key: pattern, Owner: d.self})
	return d.version
}

// LastWave returns the version of the newest wave this node originated (0
// when none): a replica whose floor of this node has reached it has applied
// every one of them.
func (d *Directory) LastWave() uint64 {
	d.localMu.Lock()
	defer d.localMu.Unlock()
	return d.lastWave
}

// Self returns the owning node's ID.
func (d *Directory) Self() uint32 { return d.self }

// Capacity returns the local table's entry capacity (<=0 means unbounded).
func (d *Directory) Capacity() int { return d.capacity }

func (d *Directory) tableFor(node uint32, create bool) *table {
	d.mu.RLock()
	t := d.tables[node]
	d.mu.RUnlock()
	if t != nil || !create {
		return t
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if t = d.tables[node]; t == nil {
		t = newTable(node)
		d.tables[node] = t
	}
	return t
}

// SetRing installs a consistent-hash placement resolver and switches Lookup
// to ring placement: the local table is still consulted first (it is the
// ground truth for what this node holds), but instead of scanning replicated
// peer tables, a key that resolves to another live node returns a synthetic
// entry naming that owner. resolve should consult the current ring on every
// call so membership changes take effect without re-registration. A nil
// resolve restores the paper's full-replication lookup.
//
// Under ring placement no peer replicates the local table, so the log stops
// recording its mutations: it carries waves only.
func (d *Directory) SetRing(resolve func(key string) (owner uint32, ok bool)) {
	d.localMu.Lock()
	defer d.localMu.Unlock()
	d.placeMu.Lock()
	d.place = resolve
	d.placeMu.Unlock()
	d.logEntries = d.onUpdate != nil && resolve == nil
}

// resolver returns the installed placement resolver, or nil in replicate mode.
func (d *Directory) resolver() func(string) (uint32, bool) {
	d.placeMu.RLock()
	defer d.placeMu.RUnlock()
	return d.place
}

// Lookup searches for key, checking the local table first (a local hit
// avoids a network round trip). It returns the entry copy and whether it was
// found. Expired entries are treated as absent.
//
// In replicate mode (the paper's design) every peer table is scanned. In
// ring mode (SetRing) placement is deterministic: the only other node that
// can hold the key is its ring owner, so the lookup is a pure hash — no peer
// tables, no per-peer metadata. A quarantined owner reads as a miss, exactly
// like a quarantined table in replicate mode.
func (d *Directory) Lookup(key string, now time.Time) (Entry, bool) {
	if resolve := d.resolver(); resolve != nil {
		if e, ok := d.tableFor(d.self, false).lookup(key, now); ok {
			return e, true
		}
		owner, ok := resolve(key)
		if !ok || owner == d.self {
			// Unplaceable (empty ring) or ours-but-absent: a plain miss.
			return Entry{}, false
		}
		var holders []uint32
		if d.holderCount.Load() > 0 {
			holders = d.ReplicaHolders(key)
		}
		if d.quarCount.Load() > 0 && d.IsQuarantined(owner) && len(holders) == 0 {
			return Entry{}, false
		}
		return Entry{Key: key, Owner: owner, Holders: holders}, true
	}
	if e, ok := d.tableFor(d.self, false).lookup(key, now); ok {
		return e, true
	}
	d.mu.RLock()
	nodes := make([]uint32, 0, len(d.tables))
	for id := range d.tables {
		if id != d.self {
			nodes = append(nodes, id)
		}
	}
	d.mu.RUnlock()
	// Deterministic probe order keeps experiments reproducible.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	skipQuarantined := d.quarCount.Load() > 0
	for _, id := range nodes {
		if skipQuarantined && d.IsQuarantined(id) {
			// The node is presumed dead: treating its entries as absent up
			// front turns what would be a fetch-and-fail false hit into an
			// ordinary miss served locally.
			continue
		}
		t := d.tableFor(id, false)
		if t == nil {
			continue // dropped (DropPeer) since the scan above
		}
		if e, ok := t.lookup(key, now); ok {
			return e, true
		}
	}
	return Entry{}, false
}

// SetQuarantined marks (or unmarks) a remote node's table as quarantined.
// While quarantined, Lookup treats the table as empty; updates and syncs
// still apply so the replica is converged when the quarantine lifts.
// Quarantining the local node is ignored.
func (d *Directory) SetQuarantined(node uint32, quarantined bool) {
	if node == d.self {
		return
	}
	d.quarMu.Lock()
	defer d.quarMu.Unlock()
	if quarantined == d.quarantined[node] {
		return
	}
	if quarantined {
		d.quarantined[node] = true
		d.quarCount.Add(1)
	} else {
		delete(d.quarantined, node)
		d.quarCount.Add(-1)
	}
}

// IsQuarantined reports whether node's table is currently quarantined.
func (d *Directory) IsQuarantined(node uint32) bool {
	d.quarMu.RLock()
	defer d.quarMu.RUnlock()
	return d.quarantined[node]
}

// Quarantined returns the currently quarantined node IDs, ascending.
func (d *Directory) Quarantined() []uint32 {
	d.quarMu.RLock()
	out := make([]uint32, 0, len(d.quarantined))
	for id := range d.quarantined {
		out = append(out, id)
	}
	d.quarMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LookupLocal searches only the local table.
func (d *Directory) LookupLocal(key string, now time.Time) (Entry, bool) {
	return d.tableFor(d.self, false).lookup(key, now)
}

// InsertLocal adds an entry owned by this node, evicting per the replacement
// policy if the local table is at capacity. It returns the evicted keys
// (already removed from the local table) so the caller can delete bodies
// and broadcast deletions. If key is already present its entry is replaced
// in place with no eviction.
func (d *Directory) InsertLocal(e Entry, now time.Time) (evicted []string) {
	e.Owner = d.self
	e.Replica = false
	e.Holders = nil
	if e.Inserted.IsZero() {
		e.Inserted = now
	}
	t := d.tableFor(d.self, true)

	d.localMu.Lock()
	defer d.localMu.Unlock()

	exists, wasReplica := t.insertReporting(&e)

	if exists && !wasReplica {
		d.policy.Access(e.Key)
		d.recordEntry(Insert, e)
		return nil
	}
	// New key — or one that only existed as a held replica, which the
	// policy has never seen: either way it enters capacity bookkeeping now.
	d.policy.Insert(e.Key, replacement.Meta{Size: e.Size, ExecTime: e.ExecTime})
	d.recordEntry(Insert, e)
	if d.capacity > 0 {
		for d.policy.Len() > d.capacity {
			victim := d.policy.Evict()
			if victim == "" {
				break
			}
			t.remove(victim)
			evicted = append(evicted, victim)
			d.recordEntry(Delete, Entry{Key: victim, Owner: d.self})
		}
	}
	return evicted
}

// InsertLocalReplica installs a replica of a key homed on another ring
// member. Replicas live in the local table (so local and peer fetches serve
// them like owned entries) but bypass the replacement policy and capacity —
// the replication controller bounds how many exist — and are never journaled
// or broadcast: they are serving state, not directory truth.
func (d *Directory) InsertLocalReplica(e Entry, now time.Time) {
	e.Owner = d.self
	e.Replica = true
	e.Holders = nil
	if e.Inserted.IsZero() {
		e.Inserted = now
	}
	d.tableFor(d.self, true).insert(&e)
}

// RemoveLocalReplica drops a held replica. Entries not marked Replica are
// left alone — the key may have been promoted to an owned entry since — and
// nothing is recorded or broadcast either way.
func (d *Directory) RemoveLocalReplica(key string) bool {
	t := d.tableFor(d.self, false)
	s := t.stripeFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[key]
	if !ok || !v.replica {
		return false
	}
	delete(s.entries, key)
	return true
}

// PromoteReplica turns a held replica into an ordinary owned entry — used
// when a ring change makes the holder the key's home, so the body it already
// has becomes the authoritative copy. The entry enters the replacement
// policy like a fresh insert; evicted keys are returned as from InsertLocal.
func (d *Directory) PromoteReplica(key string, now time.Time) (evicted []string, ok bool) {
	e, found := d.LookupLocal(key, now)
	if !found || !e.Replica {
		return nil, false
	}
	return d.InsertLocal(e, now), true
}

// TouchLocal records a hit on a locally owned entry: bumps the hit counter
// and informs the replacement policy. The paper has the owning node update
// meta-data statistics after each fetch.
func (d *Directory) TouchLocal(key string) {
	d.tableFor(d.self, false).touch(key)

	d.localMu.Lock()
	d.policy.Access(key)
	d.localMu.Unlock()
}

// RemoveLocal deletes a locally owned entry (TTL expiry or administrative
// invalidation). It reports whether the entry existed. Held replicas are
// dropped too (an invalidation must not leave stale replica bodies behind),
// but without touching the policy or the journal.
func (d *Directory) RemoveLocal(key string) bool {
	if d.RemoveLocalReplica(key) {
		return true
	}
	t := d.tableFor(d.self, false)
	d.localMu.Lock()
	defer d.localMu.Unlock()
	d.policy.Remove(key)
	ok := t.remove(key)
	if ok {
		d.recordEntry(Delete, Entry{Key: key, Owner: d.self})
	}
	return ok
}

// ApplyInsert merges a peer's broadcast insert into that peer's table.
// Inserts claiming to be from this node are ignored (they would bypass
// capacity bookkeeping).
func (d *Directory) ApplyInsert(e Entry, now time.Time) {
	if e.Owner == d.self {
		return
	}
	if e.Inserted.IsZero() {
		e.Inserted = now
	}
	d.tableFor(e.Owner, true).insert(&e)
}

// ApplyDelete merges a peer's broadcast delete.
func (d *Directory) ApplyDelete(owner uint32, key string) {
	if owner == d.self {
		return
	}
	if t := d.tableFor(owner, false); t != nil {
		t.remove(key)
	}
}

// ExpireLocal removes expired entries from the local table and returns their
// keys so the caller can delete bodies and broadcast deletions. This backs
// the paper's purge daemon, which "wakes up every few seconds and deletes
// expired cache entries".
func (d *Directory) ExpireLocal(now time.Time) []string {
	t := d.tableFor(d.self, false)
	keys := t.expiredKeys(now)
	if len(keys) == 0 {
		return keys
	}
	d.localMu.Lock()
	defer d.localMu.Unlock()
	for _, k := range keys {
		if d.RemoveLocalReplica(k) {
			// Expired replica: drop it silently — the policy never knew it
			// and nothing is broadcast; the holder's controller notices the
			// disappearance and announces the retirement.
			continue
		}
		d.policy.Remove(k)
		if t.remove(k) {
			d.recordEntry(Delete, Entry{Key: k, Owner: d.self})
		}
	}
	return keys
}

// ExpireRemote drops expired entries from the peer tables. No deletions are
// broadcast — every replica prunes its own copies; the owner broadcasts its
// own expiries. It returns the number of entries dropped.
func (d *Directory) ExpireRemote(now time.Time) int {
	d.mu.RLock()
	tables := make(map[uint32]*table, len(d.tables))
	for id, t := range d.tables {
		if id != d.self {
			tables[id] = t
		}
	}
	d.mu.RUnlock()

	dropped := 0
	for _, t := range tables {
		for _, k := range t.expiredKeys(now) {
			if t.remove(k) {
				dropped++
			}
		}
	}
	return dropped
}

// DropPeer discards a departed peer's entire table, along with any
// quarantine flag on it — a node that later returns under the same ID starts
// from a clean slate.
func (d *Directory) DropPeer(node uint32) {
	if node == d.self {
		return
	}
	d.mu.Lock()
	delete(d.tables, node)
	d.mu.Unlock()
	d.peerMu.Lock()
	delete(d.origins, node)
	d.peerMu.Unlock()
	d.SetQuarantined(node, false)
}

// Version returns the local table's current update version.
func (d *Directory) Version() uint64 {
	d.localMu.Lock()
	defer d.localMu.Unlock()
	return d.version
}

// SyncSince assembles the catch-up that brings a replica whose floor of this
// node's log is since up to date. When the journal still reaches since, it
// returns the missed records in order (full=false), one per version: a wave
// as it was, and a journaled key as its current state, an insert of the live
// entry or a delete when the key is gone (or only held as a replica). A key
// mutated again later appears again later in the run, so replaying the delta
// in order still ends at the current table. When the replica is too far
// behind, or has never seen this node (since 0), it returns a full snapshot
// (full=true): the journal's waves above since, led by a "*" wave (the one
// record with Version 0) when a wave the journal no longer holds lies above
// since, then the live local entries as inserts. ok=false means the replica is already current.
//
// A replica that claims a version beyond ours saw a previous incarnation of
// this node. This node then moves its version one past the replica's, so
// every later record is newer than anything a peer still holds from before
// and a replica at the claimed version is still behind: it gets a snapshot
// that replaces the old incarnation's table, now or, if this one is lost, on
// the next sync. The records of the old incarnation cannot be replayed, so a
// replica below the claimed version gets a "*"; so does every replica, this
// one included, when waves of this incarnation are discarded with the
// journal.
func (d *Directory) SyncSince(since uint64) (ops []SyncOp, version uint64, full, ok bool) {
	d.localMu.Lock()
	defer d.localMu.Unlock()
	if since == d.version {
		return nil, since, false, false
	}
	if since > d.version {
		d.lostWave = since
		if len(d.waves) > 0 {
			d.lostWave++
		}
		d.version = since + 1
		clear(d.journal)
		d.journal, d.waves = d.journal[:0], d.waves[:0] // their versions no longer end at d.version
	}
	cur := d.version
	start := cur - uint64(len(d.journal)) // the version just below the journal's first record
	waves := d.waves
	for len(waves) > 0 && waves[0] <= since {
		waves = waves[1:]
	}
	if since != 0 && since < cur && since >= start {
		t := d.tableFor(d.self, false)
		keys := d.journal[since-start:]
		ops = make([]SyncOp, len(keys))
		for i, k := range keys {
			v := since + 1 + uint64(i)
			if len(waves) > 0 && waves[0] == v {
				ops[i] = SyncOp{Version: v, Kind: Wave, Entry: Entry{Key: k, Owner: d.self}}
				waves = waves[1:]
				continue
			}
			ops[i] = t.current(k, v)
		}
		return ops, cur, false, true
	}
	if d.lostWave > since {
		ops = append(ops, SyncOp{Kind: Wave, Entry: Entry{Key: "*", Owner: d.self}})
	}
	for _, v := range waves {
		ops = append(ops, SyncOp{Version: v, Kind: Wave, Entry: Entry{Key: d.journal[v-start-1], Owner: d.self}})
	}
	// Taking stripe read locks under localMu follows the same lock order as
	// InsertLocal (localMu, then stripes).
	if d.logEntries {
		for _, e := range d.tableFor(d.self, false).snapshot() {
			ops = append(ops, SyncOp{Entry: e})
		}
	}
	return ops, cur, true, true
}

// PeerVersion returns this replica's floor of owner's log: every record at
// or below it has been applied (0 when owner is unknown). It waits for a
// wave being applied, so it never reports one whose drop has not finished.
func (d *Directory) PeerVersion(owner uint32) uint64 {
	o := d.originOf(owner)
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.floor
}

// originOf returns this replica's state of owner's log, made on first use.
func (d *Directory) originOf(owner uint32) *origin {
	d.peerMu.Lock()
	defer d.peerMu.Unlock()
	o := d.origins[owner]
	if o == nil {
		o = &origin{}
		d.origins[owner] = o
	}
	return o
}

// ApplySync applies records of owner's log to this replica: a batch, or a
// catch-up built by SyncSince. With full=false, ops are consecutive records
// ending at version: those at or below the floor are skipped, and a run that
// starts past floor+1 is refused whole, since the records in the gap must
// apply first (the sender's next catch-up replays them). Version 0 marks an
// unversioned run: it applies in order and leaves the floor alone, so
// anti-entropy does not cover it. With full=true ops are a snapshot at
// version: unless the floor has already reached version, its waves apply and
// its inserts replace owner's whole table. Either way the floor passes a
// wave only after its drop (OnWave) has returned.
func (d *Directory) ApplySync(owner uint32, full bool, ops []SyncOp, version uint64, now time.Time) {
	if owner == d.self {
		return
	}
	o := d.originOf(owner)
	o.mu.Lock()
	defer o.mu.Unlock()
	if full {
		if version <= o.floor {
			return // this replica already holds everything it says
		}
		t := newTable(owner)
		for _, op := range ops {
			switch op.Kind {
			case Wave:
				d.applyWave(owner, op.Entry.Key)
			case Insert:
				e := op.Entry
				e.Owner = owner
				if e.Inserted.IsZero() {
					e.Inserted = now
				}
				t.insert(&e)
			}
		}
		d.mu.Lock()
		d.tables[owner] = t
		d.mu.Unlock()
		o.floor = version
		return
	}
	if version == 0 {
		for i := range ops {
			d.applyOp(owner, &ops[i], now)
		}
		return
	}
	first := version + 1 - uint64(len(ops))
	if first > o.floor+1 {
		return
	}
	for i := o.floor + 1 - first; i < uint64(len(ops)); i++ {
		d.applyOp(owner, &ops[i], now)
		o.floor = first + i
	}
}

// applyOp applies one record of owner's log to this replica.
func (d *Directory) applyOp(owner uint32, op *SyncOp, now time.Time) {
	switch op.Kind {
	case Insert:
		e := op.Entry
		e.Owner = owner
		d.ApplyInsert(e, now)
	case Delete:
		d.ApplyDelete(owner, op.Entry.Key)
	case Wave:
		d.applyWave(owner, op.Entry.Key)
	}
}

// applyWave hands a remote wave to the OnWave callback.
func (d *Directory) applyWave(owner uint32, pattern string) {
	if d.onWave != nil {
		d.onWave(owner, pattern)
	}
}

// LocalLen reports the number of entries in the local table.
func (d *Directory) LocalLen() int { return d.tableFor(d.self, false).len() }

// TotalLen reports entries across all tables.
func (d *Directory) TotalLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, t := range d.tables {
		n += t.len()
	}
	return n
}

// Nodes returns the IDs of all nodes with a table, ascending.
func (d *Directory) Nodes() []uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]uint32, 0, len(d.tables))
	for id := range d.tables {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MisplacedLocal returns copies of the local entries that owns reports as no
// longer placed on this node — the handoff set after a ring change. Held
// replicas are skipped: by definition they are homed elsewhere, and the
// replication controller (not the rebalance) manages their lifetime. The
// scan is read-locked per stripe; entries inserted concurrently are picked
// up by the next rebalance pass.
func (d *Directory) MisplacedLocal(owns func(key string) bool) []Entry {
	var out []Entry
	for _, e := range d.tableFor(d.self, false).snapshot() {
		if !e.Replica && !owns(e.Key) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// --- adaptive-replica holder index ---

// AddReplica records that holder now serves a replica of key (applied from a
// ReplicaEvent broadcast). Adding a holder twice is a no-op.
func (d *Directory) AddReplica(key string, holder uint32) {
	hs := &d.holders[stripeIndex(key)]
	hs.mu.Lock()
	defer hs.mu.Unlock()
	cur := hs.m[key]
	for _, h := range cur {
		if h == holder {
			return
		}
	}
	if len(cur) == 0 {
		d.holderCount.Add(1)
	}
	hs.m[key] = append(cur, holder)
}

// RemoveReplica records that holder no longer serves a replica of key.
func (d *Directory) RemoveReplica(key string, holder uint32) {
	hs := &d.holders[stripeIndex(key)]
	hs.mu.Lock()
	defer hs.mu.Unlock()
	cur := hs.m[key]
	for i, h := range cur {
		if h != holder {
			continue
		}
		cur = append(cur[:i], cur[i+1:]...)
		if len(cur) == 0 {
			delete(hs.m, key)
			d.holderCount.Add(-1)
		} else {
			hs.m[key] = cur
		}
		return
	}
}

// ReplicaHolders returns a copy of the holder set for key (nil when the key
// is unreplicated).
func (d *Directory) ReplicaHolders(key string) []uint32 {
	hs := &d.holders[stripeIndex(key)]
	hs.mu.RLock()
	defer hs.mu.RUnlock()
	cur := hs.m[key]
	if len(cur) == 0 {
		return nil
	}
	return append([]uint32(nil), cur...)
}

// DropReplicaHolder removes node from every holder set — the failure
// detector (via ring eviction) or a graceful leave declared it gone. The
// surviving copies, home included, keep serving untouched; no quarantine.
// It returns how many keys lost a holder.
func (d *Directory) DropReplicaHolder(node uint32) int {
	if d.holderCount.Load() == 0 {
		return 0
	}
	dropped := 0
	for i := range d.holders {
		hs := &d.holders[i]
		hs.mu.Lock()
		for key, cur := range hs.m {
			for j, h := range cur {
				if h != node {
					continue
				}
				cur = append(cur[:j], cur[j+1:]...)
				dropped++
				if len(cur) == 0 {
					delete(hs.m, key)
					d.holderCount.Add(-1)
				} else {
					hs.m[key] = cur
				}
				break
			}
		}
		hs.mu.Unlock()
	}
	return dropped
}

// ReplicatedKeys reports how many keys currently have at least one live
// replica holder in this node's view.
func (d *Directory) ReplicatedKeys() int { return int(d.holderCount.Load()) }

// SnapshotLocal returns copies of all local entries, sorted by key, for
// inspection and tests.
func (d *Directory) SnapshotLocal() []Entry {
	out := d.tableFor(d.self, false).snapshot()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
