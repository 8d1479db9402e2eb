package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cgi"
	"repro/internal/httpclient"
	"repro/internal/httpmsg"
	"repro/internal/lease"
	"repro/internal/netx"
)

// newBenchNode builds a single caching node with negligible simulated costs
// so the benchmark measures the server's own request path.
func newBenchNode(b *testing.B, mode Mode) (*Server, *httpclient.Client) {
	b.Helper()
	mem := netx.NewMem()
	s := New(Config{
		NodeID:        1,
		Mode:          mode,
		Costs:         CostModel{SpawnCost: time.Microsecond},
		PurgeInterval: time.Hour,
		Network:       mem,
	})
	s.CGI().Register("/cgi-bin/null", &cgi.Synthetic{OutputSize: 128})
	s.Files().AddSynthetic("/doc.html", 4096)
	if err := s.Start("http", "clu"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	client := httpclient.New(mem)
	b.Cleanup(func() { client.Close() })
	return s, client
}

// BenchmarkServeFile measures the static-file path end to end (client +
// HTTP parse + file serve) over the in-memory transport.
func BenchmarkServeFile(b *testing.B) {
	_, client := newBenchNode(b, NoCache)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get("http", "/doc.html")
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("resp=%v err=%v", resp, err)
		}
	}
}

// BenchmarkCGICacheHit measures a warmed local cache hit end to end.
func BenchmarkCGICacheHit(b *testing.B) {
	_, client := newBenchNode(b, StandAlone)
	if _, err := client.Get("http", "/cgi-bin/null?x=1"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get("http", "/cgi-bin/null?x=1")
		if err != nil || resp.Header.Get("X-Swala-Cache") != "local" {
			b.Fatalf("not a cache hit: %v err=%v", resp.Header, err)
		}
	}
}

// BenchmarkCGIMissInsert measures the miss + insert path (every request
// unique).
func BenchmarkCGIMissInsert(b *testing.B) {
	_, client := newBenchNode(b, StandAlone)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uri := fmt.Sprintf("/cgi-bin/null?x=%d", i)
		resp, err := client.Get("http", uri)
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("resp=%v err=%v", resp, err)
		}
	}
}

// benchDuplicateMissWave drives a duplicate-heavy miss workload: each
// iteration is a wave of `dups` concurrent identical requests for a fresh
// key. With coalescing off, every request in the wave executes the CGI
// (the paper's false misses); with it on, one executes and the rest share.
func benchDuplicateMissWave(b *testing.B, coalesce bool) {
	b.Helper()
	mem := netx.NewMem()
	s := New(Config{
		NodeID: 1,
		Mode:   StandAlone,
		// A spawn cost well above host sleep granularity, so duplicate
		// executions visibly occupy the simulated CPU as they do in the
		// paper (the virtual-time queue makes queueing exact, but each
		// response still pays one real sleep).
		Costs:          CostModel{SpawnCost: 2 * time.Millisecond},
		PurgeInterval:  time.Hour,
		Network:        mem,
		CoalesceMisses: coalesce,
	})
	s.CGI().Register("/cgi-bin/null", &cgi.Synthetic{OutputSize: 128})
	if err := s.Start("http", "clu"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })

	const dups = 4
	clients := make([]*httpclient.Client, dups)
	for i := range clients {
		c := httpclient.New(mem)
		clients[i] = c
		b.Cleanup(func() { c.Close() })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uri := fmt.Sprintf("/cgi-bin/null?wave=%d", i)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *httpclient.Client) {
				defer wg.Done()
				resp, err := c.Get("http", uri)
				if err != nil || resp.StatusCode != 200 {
					b.Errorf("resp=%v err=%v", resp, err)
				}
			}(c)
		}
		wg.Wait()
	}
}

// BenchmarkDuplicateMissesUncoalesced is the paper's behaviour: K identical
// concurrent misses run K CGI executions (K-1 false misses).
func BenchmarkDuplicateMissesUncoalesced(b *testing.B) { benchDuplicateMissWave(b, false) }

// BenchmarkDuplicateMissesCoalesced runs the same wave with single-flight
// miss coalescing: one execution per wave, the rest piggyback.
func BenchmarkDuplicateMissesCoalesced(b *testing.B) { benchDuplicateMissWave(b, true) }

func benchRemoteServe(b *testing.B, id int) {
	lease.PoisonOnRelease(false)
	defer lease.PoisonOnRelease(true)
	srv := startLeasePair(b, 16, nil)
	req := httpmsg.NewRequest("GET", leaseURI(id))
	want := len(leaseBody(id))
	remoteServe(b, srv[1], req, want)
	b.SetBytes(int64(want))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		remoteServe(b, srv[1], req, want)
	}
}

// BenchmarkRemoteServe2k and 32k time one remote hit across two in-process
// nodes on loopback TCP; allocs/op and B/op cover both nodes.
func BenchmarkRemoteServe2k(b *testing.B)  { benchRemoteServe(b, 1) }
func BenchmarkRemoteServe32k(b *testing.B) { benchRemoteServe(b, 8) }
