package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// CrashResult is the machine-readable outcome of the crash-recovery
// experiment (benchsuite -run crash): a stand-alone node fills its log store,
// dies mid-write (a torn segment append), has three of its completed records
// damaged while it is down, and restarts over the same directory. The
// headline numbers are the warm-restart hit ratio against the cold baseline
// and the corrupt-served count, which must be zero: every damaged entry is
// quarantined and re-executed, never served.
type CrashResult struct {
	Meta Meta `json:"meta"`

	// Keys is the working-set size; every key is requested twice per phase.
	Keys int `json:"keys"`
	// Damaged is how many completed records were corrupted post-crash.
	Damaged int `json:"damaged"`

	// Cold is the pre-crash fill over an empty cache directory.
	Cold struct {
		Requests int     `json:"requests"`
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cold"`

	// Recovery is what OpenLog found when the node restarted.
	Recovery struct {
		Recovered    int           `json:"recovered"`
		Quarantined  int           `json:"quarantined"`
		OrphansSwept int           `json:"orphans_swept"`
		OpenTime     time.Duration `json:"open_time_ns"`
	} `json:"recovery"`

	// Warm replays the identical schedule on the restarted node.
	Warm struct {
		Requests int     `json:"requests"`
		HitRatio float64 `json:"hit_ratio"`
	} `json:"warm"`

	// RuntimeCorruption is the post-restart bit-rot probe: one live record
	// gets a flipped bit, and the next read must quarantine it and re-execute
	// instead of serving the damaged body.
	RuntimeCorruption struct {
		Quarantined bool `json:"quarantined"`
	} `json:"runtime_corruption"`

	// CorruptBodiesServed counts responses (across every phase) whose body
	// differed from the deterministic CGI output. The gate is zero.
	CorruptBodiesServed int `json:"corrupt_bodies_served"`

	// Acceptance gates.
	AllCompletedRecovered bool `json:"all_completed_recovered"`
	AllDamagedQuarantined bool `json:"all_damaged_quarantined"`
	ZeroCorruptServed     bool `json:"zero_corrupt_served"`
	WarmAboveCold         bool `json:"warm_hit_ratio_above_cold"`
}

// Failed names the acceptance gates that did not hold.
func (r CrashResult) Failed() []string {
	return failedGates(
		gate{"all_completed_recovered", r.AllCompletedRecovered},
		gate{"all_damaged_quarantined", r.AllDamagedQuarantined},
		gate{"zero_corrupt_served", r.ZeroCorruptServed},
		gate{"warm_hit_ratio_above_cold", r.WarmAboveCold},
	)
}

// crashURI returns the deterministic request URI for key k.
func crashURI(k, cost int) string {
	return fmt.Sprintf("/cgi-bin/adl?q=crash-%d&cost=%d", k, cost)
}

// listSegmentFiles returns the log segment files in dir, oldest first.
func listSegmentFiles(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		name := de.Name()
		if !de.IsDir() && strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return segmentSeq(out[i]) < segmentSeq(out[j])
	})
	return out, nil
}

// segmentSeq extracts the numeric sequence from a seg-N.log path.
func segmentSeq(path string) int64 {
	name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "seg-"), ".log")
	n, _ := strconv.ParseInt(name, 10, 64)
	return n
}

// damageLogRecords flips one bit inside the bodies of n distinct records
// spread across the segment files — each record's header still parses, its
// checksum no longer verifies, so recovery must quarantine exactly those
// records and keep their neighbors — and plants an orphaned temp segment.
func damageLogRecords(dir string, n int) (int, error) {
	segs, err := listSegmentFiles(dir)
	if err != nil {
		return 0, err
	}
	type target struct {
		path string
		span store.SegmentSpan
	}
	var targets []target
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		for _, sp := range store.ScanSegment(data) {
			targets = append(targets, target{path: p, span: sp})
		}
	}
	if len(targets) < n {
		return 0, fmt.Errorf("crash: %d records in segments after fill, want at least %d", len(targets), n)
	}
	for i := 0; i < n; i++ {
		t := targets[i*len(targets)/n]
		data, err := os.ReadFile(t.path)
		if err != nil {
			return 0, err
		}
		data[t.span.Off+t.span.Len-3] ^= 0x10 // inside the record's body
		if err := os.WriteFile(t.path, data, 0o644); err != nil {
			return 0, err
		}
	}
	err = os.WriteFile(filepath.Join(dir, "seg-999999.log.tmp"), []byte("abandoned"), 0o644)
	return n, err
}

// bitrotLogRecord flips one bit in a live record of the newest segment. The
// newest segment holds only post-restart appends, so every record in it is
// the latest copy of its key.
func bitrotLogRecord(dir string) error {
	segs, err := listSegmentFiles(dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("crash: no segment files for the bit-rot probe")
	}
	p := segs[len(segs)-1]
	data, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	spans := store.ScanSegment(data)
	if len(spans) == 0 {
		return fmt.Errorf("crash: newest segment %s holds no records", p)
	}
	sp := spans[len(spans)/2]
	data[sp.Off+sp.Len-3] ^= 0x04
	return os.WriteFile(p, data, 0o644)
}

// RunCrash measures crash recovery of the log store end to end: fill, die
// mid-write, corrupt records on disk, restart warm, and verify no damaged
// byte is ever served.
func RunCrash(o Options) (CrashResult, error) {
	o = o.withDefaults()
	var r CrashResult
	r.Meta = CollectMeta()
	keys := o.pick(24, 96)
	r.Keys = keys
	cost := o.pick(5, 20) // paper-ms per request

	cacheDir, err := os.MkdirTemp("", "swala-crash-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(cacheDir)

	// node builds a one-node stand-alone cluster over the durable store.
	node := func(disk store.Store, recovered []store.RecoveredEntry) (*swalaCluster, error) {
		settle()
		return newSwalaCluster(o, clusterSpec{
			n: 1, mode: core.StandAlone,
			mutate: func(i int, cfg *core.Config) {
				cfg.Store = disk
				cfg.Recovered = recovered
			},
		})
	}

	// replay issues the fixed two-pass schedule (every key twice, in order)
	// and byte-compares each response against the recorded fill bodies —
	// the synthetic CGI is deterministic, so any mismatch means a corrupt
	// cache body reached a client.
	expected := make(map[int][]byte)
	replay := func(c *swalaCluster, record bool) (requests int, err error) {
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < keys; k++ {
				resp, err := c.client.Get(c.addrs[0], crashURI(k, cost))
				if err != nil || resp.StatusCode != 200 {
					return requests, fmt.Errorf("crash: GET key %d pass %d: status %v err %v", k, pass, resp, err)
				}
				requests++
				if record {
					if pass == 0 {
						expected[k] = resp.Body
					}
				} else if !bytes.Equal(resp.Body, expected[k]) {
					r.CorruptBodiesServed++
				}
			}
		}
		return requests, nil
	}

	// --- fill phase (cold, empty directory) ---

	ffs := store.NewFaultFS(nil)
	st, _, err := store.OpenLog(cacheDir, store.LogOptions{FS: ffs})
	if err != nil {
		return r, err
	}
	c, err := node(st, nil)
	if err != nil {
		return r, err
	}
	before := snapshotCounters(c)
	r.Cold.Requests, err = replay(c, true)
	if err != nil {
		c.Close()
		return r, err
	}
	r.Cold.HitRatio = hitRatio(before, snapshotCounters(c))

	// Die mid-write: the next segment append lands only its first 20 bytes.
	// The request is still answered from the execution; recovery must
	// truncate the torn tail (an orphan sweep, not a quarantine) because the
	// append was never acknowledged.
	ffs.TornWrite(20, nil)
	if resp, err := c.client.Get(c.addrs[0], crashURI(keys, cost)); err != nil || resp.StatusCode != 200 {
		c.Close()
		return r, fmt.Errorf("crash: in-flight request failed: %v", err)
	}
	c.Close()

	// --- corrupt the downed node's segments ---

	// Damage three completed records and plant an orphaned temp file.
	r.Damaged, err = damageLogRecords(cacheDir, 3)
	if err != nil {
		return r, err
	}

	// --- warm restart over the damaged directory ---

	start := time.Now()
	st2, rep, err := store.OpenLog(cacheDir, store.LogOptions{})
	if err != nil {
		return r, err
	}
	r.Recovery.OpenTime = time.Since(start)
	r.Recovery.Recovered = len(rep.Recovered)
	r.Recovery.Quarantined = rep.Quarantined
	r.Recovery.OrphansSwept = rep.OrphansSwept

	c2, err := node(st2, rep.Recovered)
	if err != nil {
		return r, err
	}
	defer c2.Close()
	before = snapshotCounters(c2)
	r.Warm.Requests, err = replay(c2, false)
	if err != nil {
		return r, err
	}
	r.Warm.HitRatio = hitRatio(before, snapshotCounters(c2))

	// --- runtime bit-rot probe ---

	stBefore, _ := store.StatusOf(c2.servers[0].Store())
	if err := bitrotLogRecord(cacheDir); err != nil {
		return r, err
	}
	// Replay once more: the rotten entry must be quarantined on read and
	// re-executed; every body still has to match.
	if _, err := replay(c2, false); err != nil {
		return r, err
	}
	stAfter, _ := store.StatusOf(c2.servers[0].Store())
	r.RuntimeCorruption.Quarantined = stAfter.Quarantined == stBefore.Quarantined+1

	// --- gates ---

	r.AllCompletedRecovered = r.Recovery.Recovered == keys-r.Damaged
	r.AllDamagedQuarantined = r.Recovery.Quarantined == r.Damaged
	r.ZeroCorruptServed = r.CorruptBodiesServed == 0
	r.WarmAboveCold = r.Warm.HitRatio > r.Cold.HitRatio
	return r, nil
}

// Render formats the result as a human-readable report.
func (r CrashResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash recovery, log store, %d keys, %d damaged entries (go %s, GOMAXPROCS %d):\n",
		r.Keys, r.Damaged, r.Meta.GoVersion, r.Meta.GOMAXPROCS)
	fmt.Fprintf(&b, "  cold fill: %d requests, hit ratio %.1f%%\n",
		r.Cold.Requests, 100*r.Cold.HitRatio)
	fmt.Fprintf(&b, "  recovery: %d entries recovered, %d quarantined, %d orphans swept in %v\n",
		r.Recovery.Recovered, r.Recovery.Quarantined, r.Recovery.OrphansSwept,
		r.Recovery.OpenTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  warm restart: %d requests, hit ratio %.1f%% (cold %.1f%%, above: %v)\n",
		r.Warm.Requests, 100*r.Warm.HitRatio, 100*r.Cold.HitRatio, r.WarmAboveCold)
	fmt.Fprintf(&b, "  runtime bit rot quarantined: %v\n", r.RuntimeCorruption.Quarantined)
	fmt.Fprintf(&b, "  gates: completed-recovered %v, damaged-quarantined %v, corrupt bodies served %d (zero: %v)\n",
		r.AllCompletedRecovered, r.AllDamagedQuarantined, r.CorruptBodiesServed, r.ZeroCorruptServed)
	return b.String()
}
