// Command loadgen is the WebStone-style load generator: it drives one or
// more web servers with concurrent client threads and reports response-time
// statistics.
//
// Usage:
//
//	loadgen -addrs host1:8080,host2:8080 -clients 16 -requests 100 -mix webstone
//	loadgen -addrs host1:8080 -clients 24 -requests 100 -uri /cgi-bin/null
//	loadgen -addrs host1:8080 -openloop -rate 500 -duration 30s -mix hotset
//
// With -openloop, requests arrive on a Poisson schedule at -rate req/s for
// -duration, independent of response times (closed-loop clients hide
// queueing collapse), and the report includes p99/p999 tail latency.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/adltrace"
	"repro/internal/httpclient"
	"repro/internal/workload"
)

func main() {
	var (
		addrsFlag = flag.String("addrs", "localhost:8080", "comma-separated server addresses; client i targets addrs[i %% len]")
		clients   = flag.Int("clients", 16, "concurrent client threads")
		requests  = flag.Int("requests", 100, "requests per client")
		mix       = flag.String("mix", "", "workload mix: webstone (file mix), adl (dynamic trace replay), insert (unique-key insert storm), hotset (fixed-key hit-ratio load), rw (read-write mix over a fixed item set), or empty for -uri")
		uri       = flag.String("uri", "/cgi-bin/null", "URI to request when -mix is empty")
		seed      = flag.Int64("seed", 1, "workload random seed")
		cost      = flag.Int("cost", 0, "per-request CGI cost in paper milliseconds for -mix insert/hotset")
		hotKeys   = flag.Int("hotkeys", 256, "size of the fixed key set for -mix hotset/rw")
		writeFrac = flag.Float64("writefrac", 0.1, "fraction of requests that are writes for -mix rw")
		openLoop  = flag.Bool("openloop", false, "Poisson open-loop mode: arrivals at -rate for -duration instead of -clients x -requests")
		rate      = flag.Float64("rate", 100, "open-loop arrival rate in requests per second")
		duration  = flag.Duration("duration", 10*time.Second, "open-loop run duration")
		inflight  = flag.Int("inflight", 4096, "open-loop cap on outstanding requests (arrivals beyond it are shed)")
		report    = flag.Duration("report", 0, "open-loop progress line cadence, for watching throughput through a live join/leave (0 = only the final report)")
	)
	flag.Parse()

	addrs := strings.Split(*addrsFlag, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	var src workload.Source
	switch *mix {
	case "webstone":
		src = workload.FileMixSource(addrs, *requests, *seed)
	case "adl":
		// Replay the dynamic portion of a synthetic ADL trace sized to the
		// requested volume. The target server must mount a cost-aware CGI at
		// /cgi-bin/adl (swalad's demo mount: -cgi /cgi-bin/=demo).
		cfg := adltrace.Default()
		cfg.TotalRequests = *clients * *requests * 5 / 2 // ~41% CGI
		cfg.Seed = *seed
		var reqs []workload.TraceRequest
		for _, rec := range adltrace.Generate(cfg).CGIRequests() {
			reqs = append(reqs, workload.TraceRequest{URI: rec.URI})
		}
		src = workload.SliceSource(addrs, reqs, *clients)
	case "insert":
		// Insert-heavy storm: every request is a fresh cacheable key, so each
		// one executes, inserts, and broadcasts a directory update to every
		// peer. The target servers must mount a cost-aware CGI at /cgi-bin/adl
		// (swalad's demo mount: -cgi /cgi-bin/=demo).
		src = workload.InsertStormSource(addrs, *requests, *cost)
	case "hotset":
		// Steady-state hit-ratio load: draws repeat over a fixed cacheable key
		// set, so the measured hit ratio tracks directory health through node
		// failures and rejoins. Requires a cost-aware CGI at /cgi-bin/adl.
		src = workload.HotSetSource(addrs, *hotKeys, *requests, *cost, *seed)
	case "rw":
		// Read-write mix: cacheable reads of /cgi-bin/report plus writes to
		// /cgi-bin/update that mutate the shared resource. swalad's demo
		// mount serves the pair, and each write originates an invalidation
		// wave; the coherence experiment (benchsuite -run invalidation) runs
		// this mix with byte-compared reads.
		src = workload.RWMixSource(addrs, *hotKeys, *requests, *cost, *writeFrac, *seed)
	case "":
		src = workload.RepeatSource(addrs, *uri, *requests)
	default:
		log.Fatalf("unknown mix %q", *mix)
	}

	client := httpclient.New(nil)
	defer client.Close()

	if *openLoop {
		// The open-loop driver pulls the source as a single request stream;
		// the per-client request bound does not apply, so rebuild bounded
		// sources with room for the whole run.
		if *mix == "" || *mix == "hotset" || *mix == "insert" || *mix == "rw" {
			need := int(*rate*duration.Seconds()) + 1
			switch *mix {
			case "hotset":
				src = workload.HotSetSource(addrs, *hotKeys, need, *cost, *seed)
			case "insert":
				src = workload.InsertStormSource(addrs, need, *cost)
			case "rw":
				src = workload.RWMixSource(addrs, *hotKeys, need, *cost, *writeFrac, *seed)
			case "":
				src = workload.RepeatSource(addrs, *uri, need)
			}
		}
		d := &workload.OpenLoopDriver{
			Client:      client,
			Rate:        *rate,
			Duration:    *duration,
			Source:      src,
			MaxInFlight: *inflight,
			Seed:        *seed,
		}
		if *report > 0 {
			var prev, prevErr int64
			var prevAt time.Duration
			d.ReportEvery = *report
			d.OnProgress = func(elapsed time.Duration, completed, errors, shed int64) {
				secs := (elapsed - prevAt).Seconds()
				fmt.Printf("%8s  %8.1f req/s  errors +%d  shed %d\n",
					elapsed.Round(time.Second), float64(completed-prev)/secs, errors-prevErr, shed)
				prev, prevErr, prevAt = completed, errors, elapsed
			}
		}
		res := d.Run()
		fmt.Printf("offered: %d   completed: %d   errors: %d   shed: %d   elapsed: %v\n",
			res.Offered, res.Requests, res.Errors, res.Shed, res.Elapsed.Round(time.Millisecond))
		fmt.Printf("throughput: %.1f req/s (target %.1f)\n", res.Throughput(), *rate)
		if res.Latency.Count > 0 {
			fmt.Printf("latency: mean %v  p50 %v  p90 %v  p99 %v  p999 %v  max %v\n",
				res.Latency.Mean, res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.P999, res.Latency.Max)
		}
		return
	}

	d := &workload.Driver{Client: client, Clients: *clients, Source: src}
	res := d.Run()

	fmt.Printf("requests: %d   errors: %d   elapsed: %v\n", res.Requests, res.Errors, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.1f req/s   %.1f KB/s\n", res.Throughput(), res.BytesPerSecond()/1024)
	if res.Latency.Count > 0 {
		fmt.Printf("latency: mean %v  p50 %v  p90 %v  p99 %v  p999 %v  max %v\n",
			res.Latency.Mean, res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.P999, res.Latency.Max)
	}
}
