// Quickstart: start a two-node Swala cluster on loopback TCP, issue the same
// CGI request against both nodes, and watch the second node serve it from
// the first node's cache via a remote fetch.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/httpclient"
)

func main() {
	// Two nodes of the paper's configuration. Ports are picked by the OS.
	nodes := make([]*core.Server, 2)
	for i := range nodes {
		cfg := core.Paper()
		cfg.NodeID = uint32(i + 1)
		s := core.New(cfg)
		// A "map rendering" CGI that takes 300 ms of CPU.
		s.CGI().Register("/cgi-bin/map", &cgi.Synthetic{
			ServiceTime: 300 * time.Millisecond,
			OutputSize:  4 << 10,
		})
		if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		nodes[i] = s
	}
	// Full-mesh peering.
	if err := nodes[0].ConnectPeer(2, nodes[1].ClusterAddr()); err != nil {
		log.Fatal(err)
	}
	if err := nodes[1].ConnectPeer(1, nodes[0].ClusterAddr()); err != nil {
		log.Fatal(err)
	}

	client := httpclient.New(nil)
	defer client.Close()

	get := func(node int, uri string) {
		start := time.Now()
		resp, err := client.Get(nodes[node-1].HTTPAddr(), uri)
		if err != nil {
			log.Fatal(err)
		}
		src := resp.Header.Get("X-Swala-Cache")
		if src == "" {
			src = "executed"
		}
		fmt.Printf("node %d  %-32s %-8s %6.1f ms  (%d bytes)\n",
			node, uri, src, float64(time.Since(start).Microseconds())/1000, len(resp.Body))
	}

	const uri = "/cgi-bin/map?tile=34,118&zoom=6"
	fmt.Println("First request executes the CGI (slow):")
	get(1, uri)

	fmt.Println("\nSame request on the same node is a local cache hit (fast):")
	get(1, uri)

	// Give the insert broadcast a moment to reach node 2's directory.
	time.Sleep(50 * time.Millisecond)
	fmt.Println("\nSame request on the OTHER node is a remote cache fetch (fast):")
	get(2, uri)

	fmt.Println("\nNode 1 counters:", nodes[0].Counters())
	fmt.Println("Node 2 counters:", nodes[1].Counters())
}
