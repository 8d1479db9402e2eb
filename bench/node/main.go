// Command node is the process the benchmark measures: one Swala node wired
// with core.New the way cmd/swalad wires its defaults (replicate placement,
// batched broadcasts, dir-sync and the failure detector on, LRU, 16 request
// threads), except for three things swalad cannot be told by flag:
//
//   - Costs is core.CostModel{SpawnCost: time.Nanosecond}, which switches the
//     simulated CPU model off (swalad hard-wires core.DefaultCosts(), so every
//     hit through it sleeps ≥50 µs on a Go timer);
//   - the CGI program is the benchmark's own: body size and bytes are a pure
//     function of the query string (payload.Body), so the load generator can
//     verify every byte;
//   - static files are the benchmark's own, added through Files().Add.
//
// The parent talks to it over stdio, so ports never collide:
//
//	node   → "addr <http> <cluster>"
//	parent → "peers 2=127.0.0.1:4242,..."   (empty list for a single node)
//	node   → "ready"                        (mesh dialled and idle)
//	parent → "total"                        (any number of times)
//	node   → "total <directory entries, all tables>"
//	parent closes stdin                     → node shuts down and exits
//
// This file and ../layers.go are the only files of the benchmark that import
// repro/internal/...; nodeConfig below is mirrored by layers.go's in-process
// host and the two must stay the same.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/bench/payload"
	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/store"
)

// cgiPath is where the benchmark program is mounted.
const cgiPath = "/cgi-bin/b"

// program answers /cgi-bin/b?k=<id>&s=<size> with payload.ForQuery(query).
type program struct{}

func (program) Run(_ context.Context, req cgi.Request) (cgi.Result, error) {
	body, err := payload.ForQuery(req.Query)
	return cgi.Result{Status: 200, ContentType: "application/octet-stream", Body: body}, err
}

func nodeConfig(id uint, cooperative bool, capacity int, st store.Store) core.Config {
	mode := core.StandAlone
	if cooperative {
		mode = core.Cooperative
	}
	return core.Config{
		NodeID:        uint32(id),
		Mode:          mode,
		CacheCapacity: capacity,
		Store:         st,
		Costs:         core.CostModel{SpawnCost: time.Nanosecond},
	}
}

func main() {
	var (
		id       = flag.Uint("id", 1, "node ID")
		coop     = flag.Bool("cooperative", false, "cooperative mode (default stand-alone)")
		capacity = flag.Int("capacity", 8192, "cache capacity in entries")
		logDir   = flag.String("logdir", "", "directory for the log store (empty = in-memory store)")
		files    = flag.String("files", "", "static files to serve, as path=size,path=size")
	)
	flag.Parse()
	if err := run(*id, *coop, *capacity, *logDir, *files); err != nil {
		fmt.Fprintln(os.Stderr, "bench node:", err)
		os.Exit(1)
	}
}

func run(id uint, coop bool, capacity int, logDir, files string) error {
	var st store.Store = store.NewMemory()
	if logDir != "" {
		l, _, err := store.OpenLog(logDir, store.LogOptions{})
		if err != nil {
			return err
		}
		st = l
	}
	srv := core.New(nodeConfig(id, coop, capacity, st))
	defer srv.Close()
	srv.CGI().Register(cgiPath, program{})
	if files != "" {
		for _, spec := range strings.Split(files, ",") {
			path, sz, _ := strings.Cut(spec, "=")
			n, err := strconv.Atoi(sz)
			if err != nil {
				return fmt.Errorf("bad -files entry %q", spec)
			}
			srv.Files().Add(path, "application/octet-stream", payload.Body(path, n))
		}
	}
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return err
	}
	fmt.Printf("addr %s %s\n", srv.HTTPAddr(), srv.ClusterAddr())

	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() {
		return nil // parent went away before the mesh was described
	}
	peers, ok := strings.CutPrefix(in.Text(), "peers")
	if !ok {
		return fmt.Errorf("expected a peers line, got %q", in.Text())
	}
	n := 0
	for _, spec := range strings.Split(strings.TrimSpace(peers), ",") {
		if spec == "" {
			continue
		}
		pid, addr, _ := strings.Cut(spec, "=")
		p, err := strconv.ParseUint(pid, 10, 32)
		if err != nil {
			return fmt.Errorf("bad peer %q", spec)
		}
		if err := srv.ConnectPeer(uint32(p), addr); err != nil {
			return err
		}
		n++
	}
	if n > 0 {
		waitIdle(srv)
	}
	fmt.Println("ready")
	for in.Scan() {
		if in.Text() == "total" {
			fmt.Printf("total %d\n", srv.Directory().TotalLen())
		}
	}
	return nil
}

// waitIdle returns once the replication counters have not moved for 200 ms.
// A link's Hello/DirSyncReq/DirSync exchange can replace a peer table with an
// older snapshot (ROADMAP open item 1), so warming must not start while one
// may still be in flight.
func waitIdle(srv *core.Server) {
	last := srv.Cluster().ReplicationStats()
	quiet := time.Now()
	for time.Since(quiet) < 200*time.Millisecond {
		time.Sleep(20 * time.Millisecond)
		if now := srv.Cluster().ReplicationStats(); now != last {
			last, quiet = now, time.Now()
		}
	}
}
