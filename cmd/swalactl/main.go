// Command swalactl queries a running Swala node over the cluster protocol:
// it connects to the node's cluster port, identifies itself, and requests
// the node's cache counters.
//
// Usage:
//
//	swalactl -addr host:9080 stats
//	swalactl -addr host:9080 ping
//	swalactl -addr host:9080 invalidate 'GET /cgi-bin/map*'
//	swalactl -addr host:9080 -interval 2s watch
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:9080", "node cluster address")
		timeout  = flag.Duration("timeout", 5*time.Second, "request timeout")
		interval = flag.Duration("interval", 2*time.Second, "watch refresh interval")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "stats"
	}

	conn, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer conn.Close()
	if cmd != "watch" {
		conn.SetDeadline(time.Now().Add(*timeout))
	}
	wc := wire.NewConn(conn)

	if err := wc.Write(&wire.Hello{NodeID: 0xFFFF, NodeName: "swalactl"}); err != nil {
		log.Fatalf("hello: %v", err)
	}

	// readReply returns the node's reply: a connection that announced no listen
	// address is sent nothing else.
	readReply := func() wire.Message {
		msg, err := wc.Read()
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		return msg
	}

	fetchStats := func(seq uint64) *wire.StatsReply {
		if err := wc.Write(&wire.Stats{Seq: seq}); err != nil {
			log.Fatalf("stats: %v", err)
		}
		msg := readReply()
		sr, ok := msg.(*wire.StatsReply)
		if !ok {
			log.Fatalf("unexpected reply %v", msg.Type())
		}
		return sr
	}

	switch cmd {
	case "stats":
		sr := fetchStats(1)
		hits := sr.LocalHits + sr.RemoteHits
		lookups := hits + sr.Misses
		fmt.Printf("entries:      %d\n", sr.Entries)
		fmt.Printf("local hits:   %d\n", sr.LocalHits)
		fmt.Printf("remote hits:  %d\n", sr.RemoteHits)
		fmt.Printf("misses:       %d\n", sr.Misses)
		fmt.Printf("false misses: %d\n", sr.FalseMisses)
		fmt.Printf("false hits:   %d\n", sr.FalseHits)
		fmt.Printf("inserts:      %d\n", sr.Inserts)
		fmt.Printf("evictions:    %d\n", sr.Evictions)
		fmt.Printf("dropped:      %d\n", sr.Dropped)
		for _, pd := range sr.PeerDrops {
			fmt.Printf("  to peer %-4d %d\n", pd.Peer, pd.Dropped)
		}
		if lookups > 0 {
			fmt.Printf("hit ratio:    %.1f%%\n", 100*float64(hits)/float64(lookups))
		}
		if len(sr.Health) > 0 {
			fmt.Printf("peer health:\n")
			for _, ph := range sr.Health {
				fmt.Printf("  peer %-4d %-8s fails=%d\n", ph.Peer, healthState(ph.State), ph.Fails)
			}
		}
		if st := sr.Storage; st != nil {
			fmt.Printf("storage:\n")
			mode := "healthy"
			if st.Degraded {
				mode = "DEGRADED (read-only)"
			}
			fmt.Printf("  mode:         %s\n", mode)
			if st.LastError != "" {
				fmt.Printf("  last error:   %s\n", st.LastError)
			}
			fmt.Printf("  put failures: %d\n", st.PutFailures)
			fmt.Printf("  quarantined:  %d\n", st.Quarantined)
			fmt.Printf("  recovered:    %d\n", st.Recovered)
			fmt.Printf("  orphans:      %d\n", st.OrphansSwept)
		}
		if rp := sr.Replicas; rp != nil {
			fmt.Printf("replication:\n")
			fmt.Printf("  tracked keys:   %d\n", rp.Tracked)
			fmt.Printf("  hot (pushing):  %d\n", rp.Hot)
			fmt.Printf("  held replicas:  %d\n", rp.Held)
			fmt.Printf("  pushes sent:    %d (retires %d)\n", rp.Pushed, rp.Retired)
			fmt.Printf("  bodies pulled:  %d (dropped %d)\n", rp.Pulled, rp.Dropped)
			fmt.Printf("  replica serves: %d\n", rp.ReplicaServes)
			fmt.Printf("  hint skips:     %d\n", rp.HintSkips)
		}
		if rs := sr.Resilience; rs != nil {
			fmt.Printf("resilience:\n")
			fmt.Printf("  hedges:         issued %d of %d primaries, won %d, abandoned %d, denied %d, local fallbacks %d\n",
				rs.HedgesIssued, rs.FetchPrimaries, rs.HedgesWon, rs.HedgesAbandoned, rs.HedgesDenied, rs.HedgesLocal)
			fmt.Printf("  retry budget:   %.1f%% full\n", float64(rs.BudgetPermille)/10)
			fmt.Printf("  breaker fails:  %d fast-failed fetches\n", rs.BreakerFastFails)
			fmt.Printf("  shed:           level %d, remote %d, local %d, stale served %d\n",
				rs.ShedLevel, rs.ShedRemote, rs.ShedLocal, rs.ShedStale)
			for _, b := range rs.Breakers {
				fmt.Printf("  peer %-4d %-9s trips=%d samples=%d lat=%v base=%v p95=%v fail=%.1f%%\n",
					b.Peer, breakerState(b.State), b.Trips, b.Samples,
					b.Latency.Round(time.Microsecond), b.Baseline.Round(time.Microsecond),
					b.P95.Round(time.Microsecond), float64(b.FailPermille)/10)
			}
		}
	case "watch":
		// One line per interval with deltas, like vmstat.
		fmt.Printf("%8s %8s %8s %8s %8s %8s\n",
			"entries", "hits/s", "miss/s", "ins/s", "evict/s", "hit%")
		prev := fetchStats(1)
		for seq := uint64(2); ; seq++ {
			time.Sleep(*interval)
			cur := fetchStats(seq)
			secs := interval.Seconds()
			dHits := float64((cur.LocalHits + cur.RemoteHits) - (prev.LocalHits + prev.RemoteHits))
			dMiss := float64(cur.Misses - prev.Misses)
			ratio := 0.0
			if dHits+dMiss > 0 {
				ratio = 100 * dHits / (dHits + dMiss)
			}
			fmt.Printf("%8d %8.1f %8.1f %8.1f %8.1f %7.1f%%\n",
				cur.Entries,
				dHits/secs,
				dMiss/secs,
				float64(cur.Inserts-prev.Inserts)/secs,
				float64(cur.Evictions-prev.Evictions)/secs,
				ratio)
			prev = cur
		}
	case "invalidate":
		pattern := flag.Arg(1)
		if pattern == "" {
			log.Fatal("invalidate requires a key pattern, e.g. 'GET /cgi-bin/map*'")
		}
		// Seq asks the node for an InvalAck instead of fire-and-forget, so a
		// drop toward a still-dialing peer is visible here instead of silent.
		if err := wc.Write(&wire.Invalidate{Origin: 0xFFFF, Pattern: pattern, Seq: 2}); err != nil {
			log.Fatalf("invalidate: %v", err)
		}
		msg := readReply()
		ack, ok := msg.(*wire.InvalAck)
		if !ok {
			log.Fatalf("unexpected reply %v", msg.Type())
		}
		fmt.Printf("invalidated %d entries on %s; wave sent toward %d peers\n", ack.Matched, *addr, ack.Peers)
		if ack.Unreached > 0 {
			fmt.Printf("WARNING: %d peers had no usable link (down or still dialing); their copies heal via anti-entropy replay once connected\n", ack.Unreached)
		}
	case "ring":
		sr := fetchStats(1)
		if sr.Ring == nil {
			fmt.Println("node runs replicate placement (no ring); start it with -placement=ring")
			return
		}
		r := sr.Ring
		fmt.Printf("epoch:         %d\n", r.Epoch)
		fmt.Printf("virtual nodes: %d per member\n", r.VirtualNodes)
		if !r.LastRebalance.IsZero() {
			fmt.Printf("last rebalance: %s (%s ago)\n",
				r.LastRebalance.Format(time.RFC3339), time.Since(r.LastRebalance).Round(time.Second))
		}
		fmt.Printf("handoff:       %d entries out, %d in (%d bytes pulled)\n",
			r.HandoffOut, r.HandoffIn, r.HandoffBytes)
		fmt.Printf("members:       %d\n", len(r.Members))
		for _, m := range r.Members {
			fmt.Printf("  node %-4d %-22s %-8s owns %5.1f%%\n",
				m.ID, m.Addr, ringMemberState(m.State), float64(m.OwnedPermille)/10)
		}
	case "ping":
		start := time.Now()
		if err := wc.Write(&wire.Ping{Seq: 1}); err != nil {
			log.Fatalf("ping: %v", err)
		}
		if msg := readReply(); msg.Type() != wire.MsgPong {
			log.Fatalf("unexpected reply %v", msg.Type())
		}
		fmt.Printf("pong in %v\n", time.Since(start))
	default:
		log.Fatalf("unknown command %q (want stats, ring, watch, invalidate, or ping)", cmd)
	}
}

// ringMemberState names the wire encoding of a ring member's state.
func ringMemberState(s uint8) string {
	switch s {
	case 0:
		return "alive"
	case 1:
		return "suspect"
	case 2:
		return "dead"
	case 3:
		return "self"
	default:
		return "unknown"
	}
}

// breakerState names the wire encoding of a peer's circuit-breaker state.
func breakerState(s uint8) string {
	switch s {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	default:
		return "unknown"
	}
}

func healthState(s uint8) string {
	switch s {
	case 0:
		return "alive"
	case 1:
		return "suspect"
	case 2:
		return "dead"
	default:
		return "unknown"
	}
}
