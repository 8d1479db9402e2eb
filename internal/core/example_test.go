package core_test

import (
	"fmt"
	"time"

	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/netx"
)

// Example shows the smallest useful Swala deployment: one stand-alone
// caching node serving a synthetic CGI over the in-memory network.
func Example() {
	mem := netx.NewMem()
	node := core.New(core.Config{
		Costs:   core.DefaultCosts(),
		NodeID:  1,
		Mode:    core.StandAlone,
		Network: mem,
	})
	node.CGI().Register("/cgi-bin/report", &cgi.Synthetic{
		ServiceTime: 20 * time.Millisecond,
		OutputSize:  256,
	})
	if err := node.Start("http", "cluster"); err != nil {
		fmt.Println("start:", err)
		return
	}
	defer node.Close()

	client := httpclient.New(mem)
	defer client.Close()

	for i := 0; i < 2; i++ {
		resp, err := client.Get("http", "/cgi-bin/report?q=weekly")
		if err != nil {
			fmt.Println("get:", err)
			return
		}
		source := resp.Header.Get("X-Swala-Cache")
		if source == "" {
			source = "executed"
		}
		fmt.Printf("request %d: %s\n", i+1, source)
	}
	// Output:
	// request 1: executed
	// request 2: local
}

// ExampleServer_Invalidate demonstrates application-driven invalidation:
// cached results are dropped on demand instead of waiting for TTL expiry.
func ExampleServer_Invalidate() {
	mem := netx.NewMem()
	node := core.New(core.Config{NodeID: 1, Mode: core.StandAlone, Costs: core.DefaultCosts(), Network: mem})
	node.CGI().Register("/cgi-bin/q", &cgi.Synthetic{OutputSize: 64})
	if err := node.Start("http", "cluster"); err != nil {
		fmt.Println("start:", err)
		return
	}
	defer node.Close()

	client := httpclient.New(mem)
	defer client.Close()
	client.Get("http", "/cgi-bin/q?id=1")
	client.Get("http", "/cgi-bin/q?id=2")

	dropped := node.Invalidate("GET /cgi-bin/q*")
	fmt.Println("dropped:", dropped)
	// Output:
	// dropped: 2
}
