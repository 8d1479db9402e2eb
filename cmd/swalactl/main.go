// Command swalactl queries a running Swala node over the cluster protocol:
// it connects to the node's cluster port, identifies itself, and requests
// the node's metrics, printed as on its /swala-status page.
//
// Usage:
//
//	swalactl -addr host:9080 stats [name-prefix]   # e.g. swala_ring_ for membership
//	swalactl -addr host:9080 ping
//	swalactl -addr host:9080 invalidate 'GET /cgi-bin/map*'
//	swalactl -addr host:9080 -interval 2s watch
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one swalactl command line, writing its output to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("swalactl", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:9080", "node cluster address")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	interval := fs.Duration("interval", 2*time.Second, "watch refresh interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := cmp.Or(fs.Arg(0), "stats")

	conn, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", *addr, err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	// The Hello rides with the first request; the node sends nothing else.
	wc.WriteBuffered(&wire.Hello{NodeID: wire.AdminID, NodeName: "swalactl"})

	// request sends m and reads the reply, of type want, within -timeout.
	request := func(m wire.Message, want wire.MsgType) (wire.Message, error) {
		conn.SetDeadline(time.Now().Add(*timeout))
		err := wc.Write(m)
		var reply wire.Message
		if err == nil {
			reply, err = wc.Read()
		}
		switch {
		case err != nil:
			return nil, fmt.Errorf("%v: %w", m.Type(), err)
		case reply.Type() != want:
			return nil, fmt.Errorf("unexpected reply %v", reply.Type())
		}
		return reply, nil
	}
	fetchStats := func(seq uint64) ([]stats.Sample, error) {
		reply, err := request(&wire.Stats{Seq: seq}, wire.MsgStatsReply)
		if err != nil {
			return nil, err
		}
		return reply.(*wire.StatsReply).Samples, nil
	}

	switch cmd {
	case "stats":
		samples, err := fetchStats(1)
		if err != nil {
			return err
		}
		shown := samples[:0]
		for _, s := range samples {
			if strings.HasPrefix(s.Name, fs.Arg(1)) {
				shown = append(shown, s)
			}
		}
		return stats.WriteText(out, shown)
	case "watch":
		// One line per interval with rates, like vmstat.
		fmt.Fprintf(out, "%8s %8s %8s %8s %8s %8s\n", "entries", "hits/s", "miss/s", "ins/s", "evict/s", "hit%")
		prev, err := fetchStats(1)
		for seq := uint64(2); err == nil; seq++ {
			time.Sleep(*interval)
			var cur []stats.Sample
			if cur, err = fetchStats(seq); err != nil {
				break
			}
			rate := func(name string) float64 {
				c, _ := stats.Find(cur, name)
				p, _ := stats.Find(prev, name)
				return (c - p) / interval.Seconds()
			}
			hits, misses := rate("swala_local_hits_total")+rate("swala_remote_hits_total"), rate("swala_misses_total")
			ratio := 100 * hits / max(hits+misses, 1e-9) // 0 % when idle
			entries, _ := stats.Find(cur, "swala_directory_local_entries")
			fmt.Fprintf(out, "%8.0f %8.1f %8.1f %8.1f %8.1f %7.1f%%\n", entries, hits, misses,
				rate("swala_inserts_total"), rate("swala_evictions_total"), ratio)
			prev = cur
		}
		return err
	case "invalidate":
		if fs.Arg(1) == "" {
			return fmt.Errorf("invalidate requires a key pattern, e.g. 'GET /cgi-bin/map*'")
		}
		// Seq asks the node for an InvalAck, so a drop toward a still-dialing
		// peer is visible here instead of silent.
		reply, err := request(&wire.Invalidate{Origin: wire.AdminID, Pattern: fs.Arg(1), Seq: 2}, wire.MsgInvalAck)
		if err != nil {
			return err
		}
		ack := reply.(*wire.InvalAck)
		fmt.Fprintf(out, "invalidated %d entries on %s; wave sent toward %d peers\n", ack.Matched, *addr, ack.Peers)
		if ack.Unreached > 0 {
			fmt.Fprintf(out, "WARNING: %d peers had no usable link (down or still dialing); their copies heal via anti-entropy replay once connected\n", ack.Unreached)
		}
	case "ping":
		start := time.Now()
		if _, err := request(&wire.Ping{Seq: 1}, wire.MsgPong); err != nil {
			return err
		}
		fmt.Fprintf(out, "pong in %v\n", time.Since(start))
	default:
		return fmt.Errorf("unknown command %q (want stats, watch, invalidate, or ping)", cmd)
	}
	return nil
}
