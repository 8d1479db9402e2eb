// Invalidation: stronger consistency than TTL expiry, using both extension
// mechanisms the paper describes as future work — explicit application-
// driven invalidation and source-file monitoring. A "database" file backs a
// query CGI; when the file changes, the cached results must go.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/monitor"
)

func main() {
	dir, err := os.MkdirTemp("", "swala-invalidation")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dbFile := filepath.Join(dir, "catalog.db")
	mustWrite(dbFile, "catalog v1")

	// Two cooperative nodes so the invalidation has to cross the cluster.
	nodes := make([]*core.Server, 2)
	for i := range nodes {
		s := core.New(core.Config{NodeID: uint32(i + 1), Mode: core.Cooperative})
		s.CGI().Register("/cgi-bin/query", &cgi.Synthetic{
			ServiceTime: 100 * time.Millisecond,
			OutputSize:  512,
		})
		if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		nodes[i] = s
	}
	if err := nodes[0].ConnectPeer(2, nodes[1].ClusterAddr()); err != nil {
		log.Fatal(err)
	}
	if err := nodes[1].ConnectPeer(1, nodes[0].ClusterAddr()); err != nil {
		log.Fatal(err)
	}

	// Node 1 watches the catalog file; a change originates an invalidation
	// wave that drops all cached query results, cluster-wide.
	mon := monitor.New(nodes[0].Invalidate, 50*time.Millisecond, nil)
	if err := mon.Add(monitor.Watch{Path: dbFile, Pattern: "GET /cgi-bin/query*"}); err != nil {
		log.Fatal(err)
	}
	mon.Start()
	defer mon.Stop()

	client := httpclient.New(nil)
	defer client.Close()
	get := func(node int, uri string) string {
		resp, err := client.Get(nodes[node-1].HTTPAddr(), uri)
		if err != nil {
			log.Fatal(err)
		}
		src := resp.Header.Get("X-Swala-Cache")
		if src == "" {
			src = "executed"
		}
		return src
	}

	const uri = "/cgi-bin/query?title=maps"
	fmt.Printf("1. populate both caches:        node1=%s", get(1, uri))
	time.Sleep(50 * time.Millisecond) // let the insert broadcast land
	fmt.Printf("  node2=%s\n", get(2, uri))
	fmt.Printf("2. repeat (served from cache):  node1=%s  node2=%s\n", get(1, uri), get(2, uri))

	fmt.Println("3. the catalog file changes ...")
	mustWrite(dbFile, "catalog v2 — a new map collection was ingested")
	bumpMtime(dbFile)
	waitFor(func() bool { return mon.Fired() > 0 })
	time.Sleep(100 * time.Millisecond) // let the wave and its deletes propagate

	fmt.Printf("4. node1 re-executes and re-caches the fresh result: node1=%s\n", get(1, uri))
	fmt.Printf("   node2 cooperatively serves node1's FRESH result:  node2=%s\n", get(2, uri))

	fmt.Println("5. explicit admin invalidation (swalactl-style) clears the cluster:")
	nodes[1].Invalidate("GET /cgi-bin/query*")
	time.Sleep(100 * time.Millisecond) // let the wave reach node 1
	fmt.Printf("   next request executes again:  node2=%s\n", get(2, uri))
}

func mustWrite(path, content string) {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}

// bumpMtime makes the change unambiguous on coarse-mtime filesystems.
func bumpMtime(path string) {
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		log.Fatal(err)
	}
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatal("timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
