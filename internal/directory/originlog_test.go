package directory

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestUnobservedLogRecordsOnlyWaves(t *testing.T) {
	d := New(1, 2, nil)
	for i := 0; i < 5; i++ {
		d.InsertLocal(Entry{Key: fmt.Sprintf("k%d", i), Size: 1}, t0)
	}
	d.RemoveLocal("k4")
	d.Wave("GET /a*")
	d.ExpireLocal(t0)
	d.Wave("GET /b*")
	if got := d.Version(); got != 2 {
		t.Fatalf("version = %d after 2 waves and unobserved mutations, want 2", got)
	}
	if len(d.journal) != 2 || d.journal[0] != "GET /a*" || d.journal[1] != "GET /b*" {
		t.Fatalf("journal = %q, want only the two waves", d.journal)
	}
	// Ring placement leaves the log unread by peers too, observer or not.
	r := New(1, 0, nil)
	r.SetRing(func(string) (uint32, bool) { return 2, true })
	r.OnUpdate(func(SyncOp) {})
	r.InsertLocal(Entry{Key: "k", Size: 1}, t0)
	r.Wave("*")
	if len(r.journal) != 1 || r.journal[0] != "*" {
		t.Fatalf("ring journal = %q, want only the wave", r.journal)
	}
}

func TestSyncSinceReplaysWaves(t *testing.T) {
	d := logged(0)
	d.InsertLocal(Entry{Key: "a", Size: 1}, t0)
	w := d.Wave("GET /a*")
	d.InsertLocal(Entry{Key: "b", Size: 1}, t0)
	if w != 2 || d.LastWave() != 2 {
		t.Fatalf("wave at %d, LastWave %d; want 2", w, d.LastWave())
	}
	ops, ver, full, ok := d.SyncSince(1)
	if !ok || full || ver != 3 || len(ops) != 2 {
		t.Fatalf("SyncSince(1) = %+v ver=%d full=%v ok=%v, want a delta of 2", ops, ver, full, ok)
	}
	if ops[0].Kind != Wave || ops[0].Version != 2 || ops[0].Entry.Key != "GET /a*" {
		t.Fatalf("first replayed record = %+v, want the wave at 2", ops[0])
	}
	if ops[1].Kind != Insert || ops[1].Entry.Key != "b" {
		t.Fatalf("second replayed record = %+v, want the insert of b", ops[1])
	}
	// A snapshot carries the journal's waves, and no "*" for them.
	ops, _, full, _ = d.SyncSince(0)
	if !full || len(ops) != 3 || ops[0].Kind != Wave || ops[0].Version != 2 {
		t.Fatalf("SyncSince(0) = %+v full=%v, want the wave then 2 entries", ops, full)
	}
}

func TestSyncPastJournalSendsStarWave(t *testing.T) {
	d := logged(0)
	d.Wave("GET /early*")
	n := 2*journalLimit + 10
	for i := 0; i < n; i++ {
		d.InsertLocal(Entry{Key: fmt.Sprintf("k%d", i%50), Size: 1}, t0)
	}
	// The wave was trimmed: a replica below it gets a "*" first.
	ops, _, full, ok := d.SyncSince(0)
	if !ok || !full || ops[0].Kind != Wave || ops[0].Entry.Key != "*" || ops[0].Version != 0 {
		t.Fatalf("SyncSince(0) past a trimmed wave: full=%v first=%+v, want a \"*\" first", full, ops[0])
	}
	// A replica past the trimmed wave but out of the journal's reach missed
	// no wave: a snapshot without "*".
	ops, _, full, _ = d.SyncSince(2)
	if !full || ops[0].Kind == Wave {
		t.Fatalf("SyncSince(2): full=%v first=%+v, want a snapshot with no wave", full, ops[0])
	}
	// Within reach there is never a "*".
	if ops, _, full, _ := d.SyncSince(d.Version() - 10); full || len(ops) != 10 {
		t.Fatalf("SyncSince(near head): full=%v %d ops, want a delta of 10", full, len(ops))
	}
}

func TestRestartAdoptionStarsPreAdoptionWaves(t *testing.T) {
	d := logged(0)
	d.InsertLocal(Entry{Key: "a", Size: 1}, t0)
	d.Wave("GET /a*") // before the restarted node met the peer
	// The peer holds version 100 of the previous incarnation: the wave at 2
	// is numbered below it, so only a "*" can carry it.
	ops, ver, full, ok := d.SyncSince(100)
	if !ok || !full || ver != 101 || ops[0].Entry.Key != "*" {
		t.Fatalf("SyncSince(100) = %+v ver=%d full=%v, want a \"*\" snapshot at 101", ops, ver, full)
	}
	if w := d.Wave("GET /b*"); w != 102 {
		t.Fatalf("next wave at %d, want 102", w)
	}
	if ops, _, full, _ := d.SyncSince(101); full || len(ops) != 1 || ops[0].Entry.Key != "GET /b*" {
		t.Fatalf("SyncSince(101) = %+v full=%v, want the one new wave", ops, full)
	}
	// Without waves of its own the node sends no "*" to the peer, and
	// snapshots again until one has reached it.
	e := logged(0)
	e.InsertLocal(Entry{Key: "a", Size: 1}, t0)
	for i := 0; i < 2; i++ {
		if ops, ver, full, _ := e.SyncSince(100); !full || ver != 101 || ops[0].Kind == Wave {
			t.Fatalf("SyncSince(100) = %+v ver=%d full=%v, want a snapshot at 101 with no wave", ops, ver, full)
		}
	}
}

func TestWaveAppliedOncePerReplica(t *testing.T) {
	d := New(1, 0, nil)
	applied := 0
	d.OnWave(func(origin uint32, pattern string) {
		if origin != 2 || pattern != "GET /a*" {
			t.Fatalf("wave %d %q", origin, pattern)
		}
		applied++
	})
	wave := []SyncOp{{Kind: Wave, Entry: Entry{Key: "GET /a*"}}}
	d.ApplySync(2, false, wave, 1, t0)
	d.ApplySync(2, false, wave, 1, t0) // a replay of the same record
	if applied != 1 || d.PeerVersion(2) != 1 {
		t.Fatalf("applied %d times, floor %d; want once and 1", applied, d.PeerVersion(2))
	}
}

func TestFloorStopsAtGap(t *testing.T) {
	d := New(1, 0, nil)
	d.ApplySync(2, false, []SyncOp{{Entry: Entry{Key: "a"}}}, 1, t0)
	// Record 2 never arrived: 3 is refused, not applied out of order.
	d.ApplySync(2, false, []SyncOp{{Entry: Entry{Key: "c"}}}, 3, t0)
	if _, ok := d.Lookup("c", t0); ok || d.PeerVersion(2) != 1 {
		t.Fatalf("record past a gap applied (floor %d)", d.PeerVersion(2))
	}
	// A run that overlaps the floor and fills the gap applies from floor+1.
	d.ApplySync(2, false, []SyncOp{
		{Entry: Entry{Key: "a"}}, {Entry: Entry{Key: "b"}}, {Entry: Entry{Key: "c"}},
	}, 3, t0)
	if _, ok := d.Lookup("c", t0); !ok || d.PeerVersion(2) != 3 {
		t.Fatalf("gap-filling run not applied (floor %d)", d.PeerVersion(2))
	}
}

func TestSyncDeltaAdvancesFloorOverWaves(t *testing.T) {
	owner, replica := logged(0), New(2, 0, nil)
	var waves []string
	replica.OnWave(func(_ uint32, pattern string) { waves = append(waves, pattern) })
	owner.InsertLocal(Entry{Key: "a", Size: 1}, t0)
	owner.Wave("GET /a*")
	owner.Wave("GET /b*")
	replica.ApplySync(1, false, []SyncOp{{Entry: Entry{Key: "a", Size: 1}}}, 1, t0)
	ops, ver, full, _ := owner.SyncSince(1)
	replica.ApplySync(1, full, ops, ver, t0)
	if replica.PeerVersion(1) != 3 || len(waves) != 2 || waves[1] != "GET /b*" {
		t.Fatalf("floor %d after %q, want 3 after both waves", replica.PeerVersion(1), waves)
	}
}

func TestCursorStopsAtGap(t *testing.T) {
	c := Cursor(4)
	if !c.Wrote(3, 6) || c != 6 {
		t.Fatalf("overlapping run: cursor %d, want 6", c)
	}
	if c.Wrote(8, 9) || c != 6 {
		t.Fatalf("run past a gap moved the cursor to %d", c)
	}
	if !c.Wrote(7, 7) || c != 7 {
		t.Fatalf("contiguous run: cursor %d, want 7", c)
	}
}

// modelSeeds is how many seeds TestSyncSinceModel runs; CI raises it.
var modelSeeds = flag.Int("seeds", 3, "seeds TestSyncSinceModel runs (1..n)")

// TestSyncSinceModel streams one owner's origin log to a replica the way a
// cluster link does, with everything that goes wrong on the way. The owner
// interleaves inserts (at capacity, so they evict), replaces, deletes,
// expiries, touches and waves. Records travel through a bounded send queue
// that drops when full, a sender that splits batches at version gaps and
// keeps a Cursor, and frames in flight that link death loses; a sync replays
// from the cursor the replica's DirSyncReq set. The owner may also restart
// with an empty log, which adopts a floor a peer reports. After each final
// sync the replica holds exactly the owner's table at the owner's version,
// and every wave reached it exactly once or under a "*"; throughout, the
// floor never covers a wave whose drop has not returned, no "*" is sent
// while the journal reaches the floor, and one is sent whenever a trimmed or
// pre-restart wave lies above it.
func TestSyncSinceModel(t *testing.T) {
	for seed := int64(1); seed <= int64(*modelSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { originLogModel(t, seed) })
	}
}

// frame is one message on the model's link.
type frame struct {
	full    bool
	ops     []SyncOp
	version uint64
	covers  int // waves originated when the frame was built ("*" covers them)
}

// wireOp is op as a frame carries it: no version, no local-only fields.
func wireOp(op SyncOp) SyncOp {
	e := op.Entry
	return SyncOp{Kind: op.Kind, Entry: Entry{Key: e.Key, Owner: e.Owner, Size: e.Size, ExecTime: e.ExecTime, Expires: e.Expires}}
}

func originLogModel(t *testing.T, seed int64) {
	const capacity, keys = 64, 160
	rng := rand.New(rand.NewSource(seed))
	// About half the seeds run past 2*journalLimit records, so the journal is
	// compacted at least once.
	steps := 1000 + rng.Intn(4*journalLimit)
	queueCap := 4 + rng.Intn(64)
	batchMax := 1 + rng.Intn(32)
	now := t0

	// Waves, by id (the number in their pattern): the version each was
	// originated at and the owner incarnation it belongs to.
	type wave struct {
		version     uint64
		incarnation int
		applied     int
		covered     bool // by a "*" the replica applied
		forgotten   bool // above the floor a restarted owner adopted: nobody knows it
	}
	var waves []*wave
	incarnation := 0

	var (
		owner   *Directory
		queue   []SyncOp // the link's send queue
		wake    bool     // a sync is owed (syncCh)
		up      bool     // the link is up
		req     = -1     // floor named by a DirSyncReq the sender has not read yet, -1 for none
		cursor  Cursor
		flight  []frame
		adopted []uint64 // versions a restarted owner adopted, and pre-adoption waves' markers
	)
	newOwner := func() {
		owner = New(1, capacity, nil)
		owner.OnUpdate(func(op SyncOp) {
			if op.Kind == Wave {
				id, _ := strconv.Atoi(strings.TrimPrefix(op.Entry.Key, "w"))
				waves[id].version = op.Version
			}
			if !up {
				return // no link to queue it on: the next DirSyncReq heals it
			}
			if len(queue) >= queueCap {
				wake = true // dropped
				return
			}
			queue = append(queue, op)
		})
	}
	newOwner()

	replica := New(2, 0, nil)
	var applying *frame
	replica.OnWave(func(origin uint32, pattern string) {
		floor := replica.origins[1].floor
		if pattern == "*" {
			if floor >= applying.version {
				t.Fatalf("floor %d already covers the \"*\" of a snapshot at %d", floor, applying.version)
			}
			for _, w := range waves[:applying.covers] {
				w.covered = true
			}
			return
		}
		id, _ := strconv.Atoi(strings.TrimPrefix(pattern, "w"))
		w := waves[id]
		if floor >= w.version {
			t.Fatalf("wave %d at %d applied with the floor already at %d", id, w.version, floor)
		}
		if w.applied++; w.applied > 1 && !w.covered {
			t.Fatalf("wave %d at %d applied %d times", id, w.version, w.applied)
		}
	})

	// write sends runs of the queue as batches, split at gaps and batchMax.
	// A batch past a gap goes out too, which cluster's sender spares itself:
	// the replica must refuse it.
	write := func() {
		for len(queue) > 0 {
			n := 1
			for n < len(queue) && n < batchMax && queue[n].Version == queue[n-1].Version+1 {
				n++
			}
			f := frame{version: queue[n-1].Version}
			for _, op := range queue[:n] {
				f.ops = append(f.ops, wireOp(op))
			}
			if !cursor.Wrote(queue[0].Version, f.version) {
				wake = true
			}
			flight = append(flight, f)
			queue = queue[n:]
		}
	}
	// adopt notes that the owner adopts version v from a peer: a replica
	// below v gets a "*", and so does one at v when the owner's own waves
	// so far are numbered below it.
	adopt := func(v uint64) {
		adopted = append(adopted, v)
		for _, w := range waves {
			if w.incarnation == incarnation {
				adopted = append(adopted, v+1)
				return
			}
		}
	}
	// sync is writeSync: drain, then the catch-up from the cursor.
	sync := func() {
		write()
		since := uint64(cursor)
		// What the catch-up must say, from the model's own record.
		reach := owner.version - uint64(len(owner.journal))
		inReach := since != 0 && since < owner.version && since >= reach
		wantStar := false
		for _, w := range waves {
			switch {
			case w.incarnation != incarnation || w.forgotten:
			case since > owner.version:
				wantStar = true // numbered below the adopted version
			case w.version > since && w.version <= reach:
				wantStar = true // trimmed
			}
		}
		for _, v := range adopted {
			wantStar = wantStar || v > since
		}
		if since > owner.version {
			adopt(since)
		}
		ops, ver, full, ok := owner.SyncSince(since)
		star := full && len(ops) > 0 && ops[0].Kind == Wave && ops[0].Version == 0
		if inReach && (full || star) {
			t.Fatalf("SyncSince(%d) with the journal reaching %d: full=%v star=%v", since, reach, full, star)
		}
		if wantStar && !star {
			t.Fatalf("SyncSince(%d) sent no \"*\" though a wave the journal lost lies above it", since)
		}
		if !ok {
			ops, ver = nil, since
		}
		f := frame{full: full, version: ver, covers: len(waves)}
		for _, op := range ops {
			f.ops = append(f.ops, wireOp(op))
		}
		flight = append(flight, f)
		cursor = Cursor(ver)
		wake = false
	}
	// pump is one turn of the sender's select.
	pump := func() {
		switch {
		case !up:
		case req >= 0:
			cursor, req = Cursor(req), -1
			sync()
		case wake && (len(queue) == 0 || rng.Intn(2) == 0):
			sync()
		case req < 0 && len(queue) > 0:
			write()
		}
	}
	deliver := func(n int) {
		for ; n > 0 && len(flight) > 0; n-- {
			f := flight[0]
			flight = flight[1:]
			applying = &f
			replica.ApplySync(1, f.full, f.ops, f.version, now)
		}
	}
	linkDown := func() {
		up, queue, flight, req, wake = false, nil, nil, -1, false
	}
	linkUp := func() {
		up = true
		cursor = 0
		req = int(replica.PeerVersion(1))
	}
	restart := func() {
		old := owner.version
		floor := replica.PeerVersion(1)
		newOwner()
		incarnation++
		adopted = nil
		// The replica's DirSyncReq makes the new incarnation adopt its floor
		// unless a peer with a higher one (the old incarnation's last version)
		// gets there first, and then the replica is sent a "*". Otherwise the
		// old waves the replica has not applied are forgotten: nobody can
		// replay them.
		v := floor
		if rng.Intn(2) == 0 && old > floor {
			v = old
		}
		for _, w := range waves {
			if v == floor && w.applied == 0 && !w.covered {
				w.forgotten = true
			}
		}
		// A few records before the node meets any peer, numbered below the
		// adopted version.
		for i := rng.Intn(3); i > 0 && owner.version+1 < v; i-- {
			if rng.Intn(3) == 0 {
				waves = append(waves, &wave{incarnation: incarnation})
				owner.Wave(fmt.Sprintf("w%d", len(waves)-1))
			} else {
				owner.InsertLocal(Entry{Key: fmt.Sprintf("k%d", rng.Intn(keys)), Size: 1}, now)
			}
		}
		if v != floor {
			adopt(v)
			owner.SyncSince(v) // the other peer's request
		}
		// The node meets the replica before it serves anything else.
		linkUp()
		pump()
	}
	// settle is a final sync: link up, every queued and owed record sent
	// and delivered, until nothing moves.
	settle := func(step int) {
		if !up {
			linkUp()
		}
		for up && (req >= 0 || wake || len(queue) > 0 || len(flight) > 0) {
			pump()
			deliver(len(flight))
		}
		if got, want := replica.PeerVersion(1), owner.Version(); got != want {
			t.Fatalf("step %d: replica floor %d, owner version %d", step, got, want)
		}
		var have []Entry
		if tab := replica.tableFor(1, false); tab != nil {
			have = tab.snapshot()
		}
		sort.Slice(have, func(i, j int) bool { return have[i].Key < have[j].Key })
		want := owner.SnapshotLocal()
		if len(have) != len(want) {
			t.Fatalf("step %d: replica holds %d entries, owner %d", step, len(have), len(want))
		}
		for i := range want {
			h, w := have[i], want[i]
			if h.Key != w.Key || h.Size != w.Size || h.ExecTime != w.ExecTime || !h.Expires.Equal(w.Expires) {
				t.Fatalf("step %d: replica holds %+v, owner %+v", step, h, w)
			}
		}
		for id, w := range waves {
			if w.applied == 0 && !w.covered && !w.forgotten {
				t.Fatalf("step %d: wave %d at %d never reached the replica", step, id, w.version)
			}
		}
	}

	check := map[int]bool{steps - 1: true}
	for len(check) < 4 {
		check[rng.Intn(steps)] = true
	}
	linkUp()
	for step := 0; step < steps; step++ {
		now = now.Add(time.Second)
		key := fmt.Sprintf("k%d", rng.Intn(keys))
		switch op := rng.Intn(1000); {
		case op < 400: // fresh insert, or a re-insert replacing the entry
			e := Entry{Key: key, Size: int64(1 + rng.Intn(1000)), ExecTime: time.Duration(rng.Intn(1000)) * time.Millisecond}
			if rng.Intn(2) == 0 {
				e.Expires = now.Add(time.Duration(rng.Intn(60)) * time.Second)
			}
			owner.InsertLocal(e, now)
		case op < 500:
			owner.RemoveLocal(key)
		case op < 560:
			owner.ExpireLocal(now)
		case op < 620:
			waves = append(waves, &wave{incarnation: incarnation})
			owner.Wave(fmt.Sprintf("w%d", len(waves)-1))
		case op < 660:
			owner.TouchLocal(key)
		case op < 820:
			pump()
		case op < 990:
			deliver(1 + rng.Intn(4))
		case op < 997:
			if up {
				linkDown()
			} else {
				linkUp()
			}
		case !up:
			restart()
		}
		if check[step] {
			settle(step)
		}
	}
}
