// Command swalad runs one Swala node: a multi-threaded web server that
// cooperatively caches CGI results with its peers.
//
// Usage:
//
//	swalad -id 1 -http :8080 -cluster :9080 \
//	       -peers 2=host2:9080,3=host3:9080 \
//	       -mode cooperative -capacity 2000 -policy lru \
//	       -config cacheability.conf -cachedir /tmp/swala-cache \
//	       -docs ./htdocs -cgi /cgi-bin/=demo
//
// The demo CGI handler serves synthetic dynamic content whose execution
// time comes from the request's cost=<ms> query parameter; real executables
// can be mounted with -cgi /cgi-bin/app=/path/to/binary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/accesslog"
	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/replacement"
	"repro/internal/store"
)

// The flags. Package level so a test can check README's table against them.
var (
	id        = flag.Uint("id", 1, "node ID (unique in the group)")
	httpAddr  = flag.String("http", ":8080", "HTTP listen address")
	cluAddr   = flag.String("cluster", ":9080", "cluster listen address")
	peersFlag = flag.String("peers", "", "comma-separated id=host:port peer list")
	modeFlag  = flag.String("mode", "cooperative", "no-cache | stand-alone | cooperative")
	capacity  = flag.Int("capacity", 2000, "cache capacity in entries (0 = unbounded)")
	policy    = flag.String("policy", "lru", "replacement policy: lru|fifo|lfu|size|gds")
	cfgPath   = flag.String("config", "", "cacheability config file (default: cache all CGI, 10m TTL)")
	cacheDir  = flag.String("cachedir", "", "disk cache directory, kept as a segmented append-only log (default: in-memory store)")
	persist   = flag.Bool("persist", true, "recover the disk cache across restarts: scan -cachedir at startup, rebuild the directory from intact entries, quarantine corrupt ones (-persist=false deletes the log's segments first, the paper's cold-start semantics; other files in -cachedir stay)")
	fsyncPol  = flag.String("fsync", "never", "disk cache fsync policy: never|always (always fsyncs each append before acknowledging it)")
	docsDir   = flag.String("docs", "", "static document root to serve")
	cgiMounts = flag.String("cgi", "/cgi-bin/=demo", "comma-separated prefix=program mounts; program 'demo' is the built-in synthetic CGI, mounted with the demo rw pair <prefix>report + <prefix>update for loadgen -mix rw")
	cores     = flag.Int("cores", 1, "simulated CPU cores")
	threads   = flag.Int("threads", 16, "HTTP request threads")
	watches   = flag.String("watch", "", "comma-separated file=pattern source watches; a change to file (polled every second) invalidates cached keys matching pattern")
	accessLog = flag.String("accesslog", "", "write an extended-CLF access log to this file (analyze with loganalyze -swala)")
	coalesce  = flag.Bool("coalesce", false, "coalesce concurrent identical cache misses into one CGI execution (beyond the paper)")
	reqTO     = flag.Duration("request-timeout", 0, "end-to-end deadline per request through the whole fetch chain, 0 disables (overruns answer 504)")
	fetchTO   = flag.Duration("fetch-timeout", 0, "bound on one remote cache fetch; a timeout falls back to local execution (0 = default 5s)")
	health    = flag.Bool("health", true, "heartbeat failure detector: quarantine dead peers' directory entries instead of timing out every fetch (-health=false restores exact paper semantics)")
	pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address with mutex and block profiling enabled (empty = off)")
	placement = flag.String("placement", "replicate", "entry placement: replicate (the paper's replicated directory) or ring (consistent-hash ownership with runtime join/leave)")
	joinSeeds = flag.String("join", "", "comma-separated seed addresses to join a running ring through (ring placement only)")
	replHot   = flag.Bool("replicate-hot", false, "adaptively replicate hot entries to their ring successors so reads of a viral key spread across multiple nodes (ring placement only)")
	swrOn     = flag.Bool("swr", false, "stale-while-revalidate: serve a just-invalidated body once more while a single background refresh re-executes it")
	hedgeOn   = flag.Bool("hedge", false, "hedged remote fetches: a routed fetch that outlives the peer's observed p95 launches one backup to a replica holder or falls back to local execution, first result wins; bounded by the retry budget (cooperative mode only)")
	breakerOn = flag.Bool("breaker", false, "per-peer circuit breakers: fetch latency and failure-rate scores trip a slow or failing peer open, its fetches fail fast to local execution, half-open probes close it again (cooperative mode only)")
	shedOn    = flag.Bool("shed", false, "adaptive load shedding: refuse peer-routed executions past the low CPU-queue watermark, peer serves and local would-execute requests past the high one (503 + Retry-After + X-Swala-Shed; stale SWR bodies serve as the degraded tier)")
)

// watchInterval is how often -watch polls its source files.
const watchInterval = time.Second

func main() {
	flag.Parse()
	logger := log.New(os.Stderr, "swalad: ", log.LstdFlags)

	mode, err := parseMode(*modeFlag)
	if err != nil {
		logger.Fatal(err)
	}
	ringMode := false
	switch *placement {
	case "replicate":
	case "ring":
		if mode != core.Cooperative {
			logger.Fatalf("-placement=ring requires -mode=cooperative")
		}
		ringMode = true
	default:
		logger.Fatalf("unknown placement %q (want replicate or ring)", *placement)
	}
	if *joinSeeds != "" && !ringMode {
		logger.Fatalf("-join requires -placement=ring")
	}
	if *replHot && !ringMode {
		logger.Fatalf("-replicate-hot requires -placement=ring")
	}
	if *hedgeOn && mode != core.Cooperative {
		logger.Fatalf("-hedge requires -mode=cooperative")
	}
	if *breakerOn && mode != core.Cooperative {
		logger.Fatalf("-breaker requires -mode=cooperative")
	}

	if *pprofAddr != "" {
		// Contention diagnosis in-situ: sampled mutex and block profiles are
		// cheap enough to leave on while the profiling endpoint is up.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(100_000) // one sample per 100µs blocked
		go func() {
			logger.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	cfg := core.Config{
		NodeID:         uint32(*id),
		Mode:           mode,
		Cores:          *cores,
		CacheCapacity:  *capacity,
		Policy:         replacement.Kind(*policy),
		RequestThreads: *threads,
		Logger:         logger,
		CoalesceMisses: *coalesce,
		RequestTimeout: *reqTO,
		FetchTimeout:   *fetchTO,
		RingPlacement:  ringMode,
		ReplicateHot:   *replHot,
		SWR:            *swrOn,
		Hedge:          *hedgeOn,
		Breaker:        *breakerOn,
		Shed:           *shedOn,
		DisableHealth:  !*health,
	}
	if *cfgPath != "" {
		f, err := os.Open(*cfgPath)
		if err != nil {
			logger.Fatalf("config: %v", err)
		}
		pol, err := cacheability.Parse(f)
		f.Close()
		if err != nil {
			logger.Fatalf("config: %v", err)
		}
		cfg.Cacheability = pol
	}
	if *cacheDir != "" {
		fsync, err := store.ParseFsyncPolicy(*fsyncPol)
		if err != nil {
			logger.Fatalf("fsync: %v", err)
		}
		l, rep, err := openCache(*cacheDir, *persist, fsync)
		if err != nil {
			logger.Fatalf("cachedir: %v", err)
		}
		if *persist {
			logger.Printf("cache recovery: %d entries recovered, %d quarantined, %d orphans swept, %d duplicates, %d expired",
				len(rep.Recovered), rep.Quarantined, rep.OrphansSwept, rep.Duplicates, rep.Expired)
			cfg.Recovered = rep.Recovered
		}
		cfg.Store = l
	}
	var logWriter *accesslog.Writer
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Fatalf("accesslog: %v", err)
		}
		defer f.Close()
		logWriter = accesslog.NewWriter(f)
		defer logWriter.Flush()
		cfg.AccessLog = logWriter
		// Flush periodically so the log is tail-able while the daemon runs.
		go func() {
			for range time.Tick(2 * time.Second) {
				logWriter.Flush()
			}
		}()
	}

	srv := core.New(cfg)

	if *docsDir != "" {
		if err := loadDocs(srv, *docsDir); err != nil {
			logger.Fatalf("docs: %v", err)
		}
	}
	if err := mountCGI(srv, *cgiMounts); err != nil {
		logger.Fatal(err)
	}

	if err := srv.Start(*httpAddr, *cluAddr); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("node %d serving HTTP on %s, cluster on %s, mode %s",
		*id, srv.HTTPAddr(), srv.ClusterAddr(), mode)

	if *peersFlag != "" {
		for _, spec := range strings.Split(*peersFlag, ",") {
			idStr, addr, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok {
				logger.Fatalf("bad peer spec %q (want id=host:port)", spec)
			}
			peerID, err := strconv.ParseUint(idStr, 10, 32)
			if err != nil {
				logger.Fatalf("bad peer id %q", idStr)
			}
			if err := srv.ConnectPeer(uint32(peerID), addr); err != nil {
				logger.Fatalf("peer %s: %v", spec, err)
			}
			logger.Printf("connected to peer %d at %s", peerID, addr)
		}
	}

	if *joinSeeds != "" {
		seeds := strings.Split(*joinSeeds, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := srv.JoinRing(ctx, seeds)
		cancel()
		if err != nil {
			logger.Fatalf("join: %v", err)
		}
		if rs := srv.RingStatus(); rs != nil {
			logger.Printf("joined ring: %d members, epoch %d", len(rs.Members), rs.Epoch)
		}
	}

	if *watches != "" {
		mon := monitor.New(srv.Invalidate, watchInterval, nil)
		for _, spec := range strings.Split(*watches, ",") {
			file, pattern, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok {
				logger.Fatalf("bad watch spec %q (want file=pattern)", spec)
			}
			if err := mon.Add(monitor.Watch{Path: file, Pattern: pattern}); err != nil {
				logger.Fatal(err)
			}
			logger.Printf("watching %s -> invalidate %q", file, pattern)
		}
		mon.Start()
		defer mon.Stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("shutting down")
	if ringMode {
		// Hand every owned entry to its next owner before going dark, so a
		// planned shutdown costs the cluster no cached work.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.LeaveRing(ctx)
		cancel()
		logger.Printf("left ring")
	}
	if err := srv.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	snap := srv.Counters()
	logger.Printf("final counters: %v", snap)
}

// openCache opens the log store in dir. Without persist the node starts
// cold, as the paper's did: the segments a previous run left are deleted
// and nothing is recovered. Files in dir the log did not create stay.
func openCache(dir string, persist bool, fsync store.FsyncPolicy) (*store.Log, *store.RecoveryReport, error) {
	opts := store.LogOptions{Fsync: fsync}
	l, rep, err := store.OpenLog(dir, opts)
	if err != nil || persist {
		return l, rep, err
	}
	if err := l.Destroy(); err != nil {
		return nil, nil, err
	}
	return store.OpenLog(dir, opts)
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "no-cache", "nocache":
		return core.NoCache, nil
	case "stand-alone", "standalone":
		return core.StandAlone, nil
	case "cooperative", "coop":
		return core.Cooperative, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// loadDocs registers every regular file under root at its relative URL.
func loadDocs(srv *core.Server, root string) error {
	return filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		urlPath := "/" + filepath.ToSlash(rel)
		srv.Files().Add(urlPath, typeFor(urlPath), body)
		return nil
	})
}

func typeFor(path string) string {
	switch filepath.Ext(path) {
	case ".html", ".htm":
		return "text/html"
	case ".txt":
		return "text/plain"
	case ".gif":
		return "image/gif"
	case ".jpg", ".jpeg":
		return "image/jpeg"
	default:
		return "application/octet-stream"
	}
}

// mountCGI installs CGI programs: "prefix=demo" mounts the synthetic demo
// program and the demo read-write pair; "prefix=/path/to/exe" mounts a real
// executable.
func mountCGI(srv *core.Server, mounts string) error {
	demos := make(map[string]cgi.Program)
	for _, m := range strings.Split(mounts, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		prefix, prog, ok := strings.Cut(m, "=")
		if !ok {
			return fmt.Errorf("bad cgi mount %q (want prefix=program)", m)
		}
		if prog == "demo" {
			demo := &cgi.Synthetic{OutputSize: 2048, PerQueryTime: time.Millisecond}
			srv.CGI().RegisterPrefix(prefix, demo)
			demos[prefix] = demo
		} else {
			srv.CGI().RegisterPrefix(prefix, &cgi.Exec{Path: prog})
		}
	}
	// After every mount, so the pair never shadows an executable mounted at
	// one of its paths, whichever order the mounts were listed in.
	for prefix, demo := range demos {
		mountDemoRW(srv, prefix, demo)
	}
	return nil
}

// demoResource is the shared resource name the demo rw pair declares
// dependencies on.
const demoResource = "demo-db"

// demoDB backs the demo read-write CGI pair: one version counter per item.
type demoDB struct {
	mu   sync.Mutex
	vers map[string]int
}

// item pulls the item name out of a query like "q=item012&cost=5" or
// "item=012"; the whole query string if no item parameter is present.
func (db *demoDB) item(query string) string {
	for _, kv := range strings.Split(query, "&") {
		k, v, _ := strings.Cut(kv, "=")
		if k == "item" || k == "q" {
			return v
		}
	}
	return query
}

type demoReport struct{ db *demoDB }

func (p *demoReport) Run(_ context.Context, req cgi.Request) (cgi.Result, error) {
	it := p.db.item(req.Query)
	p.db.mu.Lock()
	v := p.db.vers[it]
	p.db.mu.Unlock()
	return cgi.Result{Status: 200, ContentType: "text/plain",
		Body: []byte(fmt.Sprintf("report %s v%06d\n", it, v))}, nil
}

type demoUpdate struct{ db *demoDB }

func (p *demoUpdate) Run(_ context.Context, req cgi.Request) (cgi.Result, error) {
	it := p.db.item(req.Query)
	p.db.mu.Lock()
	p.db.vers[it]++
	v := p.db.vers[it]
	p.db.mu.Unlock()
	return cgi.Result{Status: 200, ContentType: "text/plain",
		Body: []byte(fmt.Sprintf("updated %s -> v%06d\n", it, v))}, nil
}

// mountDemoRW installs the demo read-write pair with declared dependencies
// under the demo program's prefix: <prefix>report reads the demo resource,
// <prefix>update writes it, so a completed update originates an
// invalidation wave covering cached reports (drive it with loadgen -mix rw).
// The pair is skipped when either path is served by a program other than
// demo.
func mountDemoRW(srv *core.Server, prefix string, demo cgi.Program) {
	report, update := prefix+"report", prefix+"update"
	for _, path := range []string{report, update} {
		if p, _ := srv.CGI().Lookup(path); p != demo {
			return
		}
	}
	db := &demoDB{vers: make(map[string]int)}
	srv.CGI().Register(report, &demoReport{db: db})
	srv.CGI().RegisterDeps(report, cgi.Deps{Reads: []string{demoResource}})
	srv.CGI().Register(update, &demoUpdate{db: db})
	srv.CGI().RegisterDeps(update, cgi.Deps{Writes: []string{demoResource}})
}
