package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/tablefmt"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Table4Result reproduces Table 4: response-time overhead of replicated
// directory maintenance. A pseudo-server — a program that only sends
// directory updates — floods one Swala node with insert broadcasts at a
// controlled rate while the node serves uncacheable requests; the table
// reports mean response time per update rate.
type Table4Result struct {
	// UPS is directory updates per paper-second (the paper's first column).
	UPS []int
	// Mean response time per rate; index 0 is the zero-update base case.
	Mean     []time.Duration
	Increase []time.Duration
	Scale    float64
}

// pseudoServer joins the cluster as a fake peer and streams directory
// inserts at a fixed rate, exactly like the paper's measurement program.
type pseudoServer struct {
	node *cluster.Node
	stop chan struct{}
	wg   sync.WaitGroup
}

// startPseudoServer connects a fake node (ID 1000+idx) to target and sends
// `rate` inserts per measured second until stopped. rate 0 sends nothing.
func startPseudoServer(opt Options, c *swalaCluster, idx int, targetCluAddr string, rate float64) (*pseudoServer, error) {
	ps := &pseudoServer{stop: make(chan struct{})}
	ps.node = cluster.NewNode(cluster.Config{
		NodeID:  uint32(1000 + idx),
		Network: c.mem,
	}, cluster.NopHandler{})
	if err := ps.node.Start(fmt.Sprintf("pseudo-%d", idx)); err != nil {
		return nil, err
	}
	if err := ps.node.ConnectPeer(1, targetCluAddr); err != nil {
		ps.node.Close()
		return nil, err
	}
	if rate <= 0 {
		return ps, nil
	}
	interval := time.Duration(float64(time.Second) / rate)
	ps.wg.Add(1)
	go func() {
		defer ps.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		seq := 0
		for {
			select {
			case <-ps.stop:
				return
			case <-ticker.C:
				seq++
				ps.node.BroadcastUpdate(wire.DirUpdate{
					Owner:    ps.node.ID(),
					Key:      fmt.Sprintf("GET /cgi-bin/adl?q=pseudo-%d-%d", idx, seq),
					Size:     2048,
					ExecTime: time.Second,
				}, 0)
			}
		}
	}()
	return ps, nil
}

func (ps *pseudoServer) Close() {
	close(ps.stop)
	ps.wg.Wait()
	ps.node.Close()
}

// RunTable4 measures directory-maintenance overhead at several update rates.
func RunTable4(opt Options) (Table4Result, error) {
	opt = opt.withDefaults()
	res := Table4Result{Scale: float64(opt.Scale.PerSecond)}

	// Updates per paper second. With the scale factor, a rate of 100
	// paper-UPS becomes 100*factor updates per measured second.
	rates := []int{0, 10, 50, 100, 200}
	if opt.Quick {
		rates = []int{0, 50, 200}
	}
	res.UPS = rates

	totalRequests := opt.pick(60, 180)
	costMillis := opt.pick(500, 1000)
	const clientThreads = 4
	// Seven pseudo-servers impersonate the rest of an eight-node group.
	const pseudoPeers = 7

	for _, ups := range rates {
		mean, err := func() (time.Duration, error) {
			settle()
			c, err := newSwalaCluster(opt, clusterSpec{n: 1, mode: core.Cooperative})
			if err != nil {
				return 0, err
			}
			defer c.Close()

			measuredRate := float64(ups) * opt.Scale.Factor() / pseudoPeers
			var pss []*pseudoServer
			defer func() {
				for _, ps := range pss {
					ps.Close()
				}
			}()
			for i := 0; i < pseudoPeers; i++ {
				ps, err := startPseudoServer(opt, c, i, "swala-clu-1", measuredRate)
				if err != nil {
					return 0, err
				}
				pss = append(pss, ps)
			}

			client := httpclient.New(c.mem)
			defer client.Close()
			d := &workload.Driver{
				Client:  client,
				Clients: clientThreads,
				Source:  workload.UncacheableSource(c.addrs[0], totalRequests/clientThreads, costMillis),
			}
			out := d.Run()
			if out.Errors > 0 {
				return 0, fmt.Errorf("table4: %d errors at %d UPS", out.Errors, ups)
			}
			return out.Latency.Mean, nil
		}()
		if err != nil {
			return res, err
		}
		res.Mean = append(res.Mean, mean)
	}
	base := res.Mean[0]
	for _, m := range res.Mean {
		res.Increase = append(res.Increase, m-base)
	}
	return res, nil
}

// MaxRelativeIncrease reports the worst overhead relative to the base case.
func (r Table4Result) MaxRelativeIncrease() float64 {
	worst := 0.0
	for i := range r.Mean {
		if r.Mean[0] == 0 {
			continue
		}
		rel := float64(r.Increase[i]) / float64(r.Mean[0])
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

// Render formats the result like the paper's Table 4.
func (r Table4Result) Render() string {
	var sb strings.Builder
	t := tablefmt.New("Table 4. Response time overhead of replicated directory maintenance (paper seconds).",
		"UPS", "Avg. response time (s)", "Increase (s)")
	for i, ups := range r.UPS {
		t.AddRow(
			fmt.Sprintf("%d", ups),
			fmt.Sprintf("%.4f", float64(r.Mean[i])/r.Scale),
			fmt.Sprintf("%+.4f", float64(r.Increase[i])/r.Scale),
		)
	}
	sb.WriteString(t.String())
	sb.WriteString("\nPaper shape: the increase in response time stays insignificant as the update\nrate grows.\n")
	return sb.String()
}
