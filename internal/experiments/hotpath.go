package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/httpclient"
	"repro/internal/netx"
	"repro/internal/wire"
)

// HotpathResult is the machine-readable outcome of the hot-path comparison
// run (benchsuite -hotpath): it quantifies each layer of the beyond-the-paper
// optimisations — miss coalescing, striped directory locking, and pooled wire
// buffers — so successive changes can track the performance trajectory from
// the emitted JSON.
type HotpathResult struct {
	// Meta records the runtime environment of the run.
	Meta Meta `json:"meta"`

	// Coalescing compares a duplicate-heavy miss workload with single-flight
	// miss coalescing off (the paper's behaviour: every duplicate executes,
	// counted as false misses) and on (one execution per wave).
	Coalescing struct {
		Waves          int     `json:"waves"`
		DupsPerWave    int     `json:"dups_per_wave"`
		Requests       int     `json:"requests"`
		CGIExecsOff    int64   `json:"cgi_execs_off"`
		CGIExecsOn     int64   `json:"cgi_execs_on"`
		DuplicatesOff  int64   `json:"duplicate_cgi_off"`
		DuplicatesOn   int64   `json:"duplicate_cgi_on"`
		FalseMissesOff int64   `json:"false_misses_off"`
		CoalescedOn    int64   `json:"coalesced_on"`
		OpsPerSecOff   float64 `json:"ops_per_sec_off"`
		OpsPerSecOn    float64 `json:"ops_per_sec_on"`
	} `json:"coalescing"`

	// Directory compares striped-lock lookup throughput against a simulated
	// single exclusive directory-wide lock at 8 goroutines.
	Directory struct {
		Goroutines       int     `json:"goroutines"`
		StripedOpsPerSec float64 `json:"striped_ops_per_sec"`
		GlobalOpsPerSec  float64 `json:"global_lock_ops_per_sec"`
		ThroughputFactor float64 `json:"throughput_factor"`
	} `json:"directory"`

	// Wire reports allocations per operation on the message hot paths; the
	// pooled write path should be at (or near) zero.
	Wire struct {
		WriteDirBatchAllocs   float64 `json:"write_dirbatch_1_allocs_per_op"`
		WriteFetchReplyAllocs float64 `json:"write_fetch_reply_4k_allocs_per_op"`
		ReadFetchReplyAllocs  float64 `json:"read_fetch_reply_4k_allocs_per_op"`
		MarshalDirBatchAllocs float64 `json:"marshal_dirbatch_1_allocs_per_op"`
	} `json:"wire"`
}

// Render formats the result as a human-readable report.
func (r HotpathResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "miss coalescing (%d waves x %d duplicate requests):\n",
		r.Coalescing.Waves, r.Coalescing.DupsPerWave)
	fmt.Fprintf(&b, "  off: %d CGI execs (%d duplicates, %d false misses), %.0f req/s\n",
		r.Coalescing.CGIExecsOff, r.Coalescing.DuplicatesOff, r.Coalescing.FalseMissesOff, r.Coalescing.OpsPerSecOff)
	fmt.Fprintf(&b, "  on:  %d CGI execs (%d duplicates, %d coalesced), %.0f req/s\n",
		r.Coalescing.CGIExecsOn, r.Coalescing.DuplicatesOn, r.Coalescing.CoalescedOn, r.Coalescing.OpsPerSecOn)
	fmt.Fprintf(&b, "directory lookups at %d goroutines:\n", r.Directory.Goroutines)
	fmt.Fprintf(&b, "  striped %.0f ops/s vs global lock %.0f ops/s (%.2fx)\n",
		r.Directory.StripedOpsPerSec, r.Directory.GlobalOpsPerSec, r.Directory.ThroughputFactor)
	fmt.Fprintf(&b, "wire allocs/op: write 1-update dir-batch %.1f, write fetch-reply-4K %.1f, read fetch-reply-4K %.1f (marshal 1-update dir-batch %.1f)\n",
		r.Wire.WriteDirBatchAllocs, r.Wire.WriteFetchReplyAllocs, r.Wire.ReadFetchReplyAllocs, r.Wire.MarshalDirBatchAllocs)
	return b.String()
}

// hotpathCountingCGI counts real executions for the coalescing comparison.
type hotpathCountingCGI struct {
	execs atomic.Int64
	gen   cgi.Synthetic
}

func (p *hotpathCountingCGI) Run(ctx context.Context, req cgi.Request) (cgi.Result, error) {
	p.execs.Add(1)
	return p.gen.Run(ctx, req)
}

// RunHotpath measures the three hot-path optimisation layers. All
// measurements run at a small fixed scale (they compare implementation
// mechanisms, not paper quantities, so the experiment time scale is not
// applied to them beyond the CGI spawn cost).
func RunHotpath(o Options) (HotpathResult, error) {
	o = o.withDefaults()
	var r HotpathResult
	r.Meta = CollectMeta()

	waves := o.pick(30, 150)
	const dups = 4
	if err := hotpathCoalescing(&r, waves, dups); err != nil {
		return r, err
	}
	hotpathDirectory(&r, o.pick(50000, 400000))
	hotpathWire(&r)
	return r, nil
}

// hotpathCoalescing runs the duplicate-heavy workload twice, with
// coalescing off and on, against a single stand-alone node.
func hotpathCoalescing(r *HotpathResult, waves, dups int) error {
	run := func(coalesce bool) (execs int64, snapFalseMisses, snapCoalesced int64, elapsed time.Duration, err error) {
		mem := netx.NewMem()
		prog := &hotpathCountingCGI{gen: cgi.Synthetic{OutputSize: 256}}
		s := core.New(core.Config{
			NodeID:         1,
			Mode:           core.StandAlone,
			Costs:          core.CostModel{SpawnCost: 500 * time.Microsecond},
			PurgeInterval:  time.Hour,
			Network:        mem,
			CoalesceMisses: coalesce,
		})
		s.CGI().Register("/cgi-bin/q", prog)
		if err := s.Start("http", "clu"); err != nil {
			return 0, 0, 0, 0, err
		}
		defer s.Close()

		clients := make([]*httpclient.Client, dups)
		for i := range clients {
			clients[i] = httpclient.New(mem)
			defer clients[i].Close()
		}
		settle()
		start := time.Now()
		for w := 0; w < waves; w++ {
			uri := fmt.Sprintf("/cgi-bin/q?wave=%d", w)
			var wg sync.WaitGroup
			var reqErr atomic.Value
			for _, c := range clients {
				wg.Add(1)
				go func(c *httpclient.Client) {
					defer wg.Done()
					resp, err := c.Get("http", uri)
					if err != nil {
						reqErr.Store(err)
					} else if resp.StatusCode != 200 {
						reqErr.Store(fmt.Errorf("status %d", resp.StatusCode))
					}
				}(c)
			}
			wg.Wait()
			if e := reqErr.Load(); e != nil {
				return 0, 0, 0, 0, e.(error)
			}
		}
		elapsed = time.Since(start)
		snap := s.Counters()
		return prog.execs.Load(), snap.FalseMisses, snap.Coalesced, elapsed, nil
	}

	execsOff, falseMissesOff, _, offTime, err := run(false)
	if err != nil {
		return fmt.Errorf("coalescing off: %w", err)
	}
	execsOn, _, coalescedOn, onTime, err := run(true)
	if err != nil {
		return fmt.Errorf("coalescing on: %w", err)
	}

	c := &r.Coalescing
	c.Waves = waves
	c.DupsPerWave = dups
	c.Requests = waves * dups
	c.CGIExecsOff = execsOff
	c.CGIExecsOn = execsOn
	c.DuplicatesOff = execsOff - int64(waves)
	c.DuplicatesOn = execsOn - int64(waves)
	c.FalseMissesOff = falseMissesOff
	c.CoalescedOn = coalescedOn
	c.OpsPerSecOff = float64(c.Requests) / offTime.Seconds()
	c.OpsPerSecOn = float64(c.Requests) / onTime.Seconds()
	return nil
}

// hotpathDirectory measures lookup throughput over a populated directory
// with the implemented striped locking vs one exclusive lock, at 8
// goroutines.
func hotpathDirectory(r *HotpathResult, ops int) {
	const goroutines = 8
	now := time.Unix(0, 0)

	build := func() *directory.Directory {
		d := directory.New(1, 0, nil)
		for i := 0; i < 2000; i++ {
			d.InsertLocal(directory.Entry{Key: fmt.Sprintf("GET /cgi-bin/q?id=%d", i), Size: 2048}, now)
		}
		return d
	}

	run := func(lookup func(key string)) time.Duration {
		perG := ops / goroutines
		var wg sync.WaitGroup
		settle()
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					lookup(fmt.Sprintf("GET /cgi-bin/q?id=%d", (g*perG+i)%2000))
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}

	d := build()
	striped := run(func(key string) { d.Lookup(key, now) })

	d2 := build()
	var mu sync.Mutex
	global := run(func(key string) {
		mu.Lock()
		d2.Lookup(key, now)
		mu.Unlock()
	})

	dd := &r.Directory
	dd.Goroutines = goroutines
	dd.StripedOpsPerSec = float64(ops) / striped.Seconds()
	dd.GlobalOpsPerSec = float64(ops) / global.Seconds()
	if dd.GlobalOpsPerSec > 0 {
		dd.ThroughputFactor = dd.StripedOpsPerSec / dd.GlobalOpsPerSec
	}
}

// hotpathWire measures allocations per operation on the message codec hot
// paths using testing.AllocsPerRun.
func hotpathWire(r *HotpathResult) {
	batch := &wire.DirBatch{Owner: 3, Version: 1, Updates: []wire.DirUpdate{{Owner: 3,
		Key: "GET /cgi-bin/query?zoom=3&layer=roads", Size: 4096,
		ExecTime: 1500 * time.Millisecond, Expires: time.Unix(12345, 0)}}}
	body := make([]byte, 4096)
	reply := &wire.FetchReply{Seq: 9, OK: true, ContentType: "text/html", Body: body}
	frame := wire.Marshal(reply)

	w := &r.Wire
	w.WriteDirBatchAllocs = testing.AllocsPerRun(2000, func() {
		wire.WriteMessage(io.Discard, batch)
	})
	w.WriteFetchReplyAllocs = testing.AllocsPerRun(2000, func() {
		wire.WriteMessage(io.Discard, reply)
	})
	reader := strings.NewReader("")
	w.ReadFetchReplyAllocs = testing.AllocsPerRun(2000, func() {
		reader.Reset(string(frame))
		if _, err := wire.ReadMessage(reader); err != nil {
			panic(err)
		}
	})
	w.MarshalDirBatchAllocs = testing.AllocsPerRun(2000, func() {
		wire.Marshal(batch)
	})
}
