// Command benchsuite regenerates every table and figure of the paper's
// evaluation and prints them side by side with the published shape targets.
//
// Usage:
//
//	benchsuite                 # run everything at full size
//	benchsuite -quick          # reduced sizes (seconds instead of minutes)
//	benchsuite -run table1,figure4
//	benchsuite -scale 2ms      # 1 paper-second = 2 ms measured
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/timescale"
)

type experiment struct {
	name string
	desc string
	// scale is the experiment's default time scale (1 paper-second of
	// simulated service per this much measured time). Latency-difference
	// experiments use an expanded scale so simulated costs dominate host
	// scheduling noise; structural experiments (hit counts, large ratios)
	// use a compressed one to run fast.
	scale time.Duration
	run   func(experiments.Options) (string, error)
}

const (
	latencyScale    = 100 * time.Millisecond
	structuralScale = 2500 * time.Microsecond
)

var suite = []experiment{
	{"table1", "access-log analysis: potential saving from caching CGI", structuralScale, func(o experiments.Options) (string, error) {
		return experiments.RunTable1(o).Render(), nil
	}},
	{"table2", "file-fetch response time vs clients (HTTPd, Enterprise, Swala)", latencyScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunTable2(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"figure3", "null-CGI response time across five configurations", latencyScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunFigure3(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"figure4", "multi-node response time with and without cooperative caching", structuralScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunFigure4(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"table3", "insert + broadcast overhead", latencyScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunTable3(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"table4", "replicated directory maintenance overhead", latencyScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunTable4(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"table5", "hit ratios, cache size 2000", structuralScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunHitRatio(o, 2000)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"table6", "hit ratios, cache size 20", structuralScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunHitRatio(o, 20)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"policies", "ablation: the five replacement policies", structuralScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunPolicyAblation(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"latency", "sensitivity: cooperative caching vs inter-node latency", latencyScale, func(o experiments.Options) (string, error) {
		r, err := experiments.RunLatencySweep(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
}

func main() {
	var (
		runFlag    = flag.String("run", "", "comma-separated experiment list (default: all)")
		quick      = flag.Bool("quick", false, "reduced request counts and sweeps")
		scaleFlag  = flag.Duration("scale", 0, "measured duration of one paper second (0 = per-experiment default)")
		seed       = flag.Int64("seed", 1998, "workload seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		hotpath    = flag.String("hotpath", "", "run the hot-path optimisation comparison and write JSON to this file instead of the paper suite")
		pipeline   = flag.String("pipeline", "", "run the fetch-pipeline overhead comparison and write JSON to this file instead of the paper suite")
		faults     = flag.String("faults", "", "run the fault-injection schedule (hang/partition/rejoin) and write JSON to this file instead of the paper suite")
		crash      = flag.String("crash", "", "run the crash-recovery experiment on the log store (kill mid-write, corrupt records, warm restart) and write JSON to this file instead of the paper suite")
		multicore  = flag.String("multicore", "", "run the GOMAXPROCS scaling sweep (closed-loop capacity + open-loop tail latency) and write JSON to this file instead of the paper suite")
		scaleout   = flag.String("scaleout", "", "run the scale-out experiment (live 8->12 ring join and graceful leave under load vs the replicated directory) and write JSON to this file instead of the paper suite")
		replicat   = flag.String("replication", "", "run the adaptive hot-entry replication experiment (viral key on an 8-node ring with and without -replicate-hot) and write JSON to this file instead of the paper suite")
		inval      = flag.String("invalidation", "", "run the dependency-based invalidation coherence experiment (rw mix, replica retire, partition heal, SWR storm) and write JSON to this file instead of the paper suite")
		grayfault  = flag.String("grayfault", "", "run the gray-failure & overload resilience schedule (slow peer with hedging/breakers, flash crowd with shedding) and write JSON to this file instead of the paper suite")
		gomaxprocs = flag.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS before running (0 = inherit), so the recorded meta value is controlled")
	)
	flag.Parse()

	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	}

	if *list {
		for _, e := range suite {
			fmt.Printf("  %-8s  %s\n", e.name, e.desc)
		}
		return
	}

	if *hotpath != "" {
		if err := runHotpath(*hotpath, *quick, *seed); err != nil {
			log.Fatalf("hotpath failed: %v", err)
		}
		return
	}

	if *pipeline != "" {
		if err := runPipeline(*pipeline, *quick, *seed); err != nil {
			log.Fatalf("pipeline failed: %v", err)
		}
		return
	}

	if *faults != "" {
		if err := runFaults(*faults, *quick, *seed); err != nil {
			log.Fatalf("faults failed: %v", err)
		}
		return
	}

	if *crash != "" {
		if err := runCrash(*crash, *quick, *seed); err != nil {
			log.Fatalf("crash failed: %v", err)
		}
		return
	}

	if *multicore != "" {
		if err := runMulticore(*multicore, *quick, *seed); err != nil {
			log.Fatalf("multicore failed: %v", err)
		}
		return
	}

	if *scaleout != "" {
		if err := runScaleout(*scaleout, *quick, *seed); err != nil {
			log.Fatalf("scaleout failed: %v", err)
		}
		return
	}

	if *replicat != "" {
		if err := runReplication(*replicat, *quick, *seed); err != nil {
			log.Fatalf("replication failed: %v", err)
		}
		return
	}

	if *inval != "" {
		if err := runInvalidation(*inval, *quick, *seed); err != nil {
			log.Fatalf("invalidation failed: %v", err)
		}
		return
	}

	if *grayfault != "" {
		if err := runGrayFault(*grayfault, *quick, *seed); err != nil {
			log.Fatalf("grayfault failed: %v", err)
		}
		return
	}

	want := map[string]bool{}
	if *runFlag != "" {
		for _, n := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	fmt.Printf("Swala evaluation suite — quick=%v, seed=%d\n\n", *quick, *seed)

	failed := false
	for _, e := range suite {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		scale := e.scale
		if *scaleFlag > 0 {
			scale = *scaleFlag
		}
		opts := experiments.Options{
			Quick: *quick,
			Seed:  *seed,
			Scale: timescale.Scale{PerSecond: scale},
		}
		fmt.Printf("=== %s: %s (%s) ===\n", e.name, e.desc, opts.Scale)
		start := time.Now()
		out, err := e.run(opts)
		if err != nil {
			log.Printf("%s failed: %v", e.name, err)
			failed = true
			continue
		}
		fmt.Print(out)
		fmt.Printf("(%s in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// runHotpath measures the beyond-the-paper hot-path optimisations
// (miss coalescing, striped directory locks, pooled wire buffers) and writes
// a machine-readable JSON report so successive changes can be compared
// against it.
func runHotpath(path string, quick bool, seed int64) error {
	fmt.Printf("Swala hot-path comparison — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunHotpath(experiments.Options{Quick: quick, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(hotpath in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runFaults measures hit ratio and request latency through a hang /
// partition / rejoin schedule on an 8-node group with the failure detector
// on, against the paper's reactive-only fallback, and writes a
// machine-readable JSON report. The headline criteria: requests mapping to a
// dead node's entries cost within 2x the ordinary miss path (vs a full
// FetchTimeout without the detector), and the hit ratio recovers to within
// one point of the clean baseline after rejoin and resync.
func runFaults(path string, quick bool, seed int64) error {
	fmt.Printf("Swala fault-injection schedule — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunFaults(experiments.Options{Quick: quick, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(faults in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runScaleout measures the ring-placement membership machinery end to end: a
// replicated-directory baseline at 8 nodes, ring steady state, a live join of
// 4 nodes under hot-set load (hit-ratio dip, recovery time, rebalance
// traffic), the grown ring's flat per-node directory footprint, and a
// graceful leave that hands every cached entry off before departing.
func runScaleout(path string, quick bool, seed int64) error {
	fmt.Printf("Swala scale-out schedule — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunScaleout(experiments.Options{Quick: quick, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(scaleout in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runReplication measures adaptive hot-entry replication: a single viral key
// on an 8-node ring, single-owner vs -replicate-hot. The headline criteria:
// the hottest node's share of peer-routed serves drops to at most 60% of the
// single-owner baseline, hotset p99 is no worse, and the replicas retire on
// their own after the hotspot moves to a fresh key range.
func runReplication(path string, quick bool, seed int64) error {
	fmt.Printf("Swala adaptive-replication experiment — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunReplication(experiments.Options{
		Quick: quick, Seed: seed,
		Scale: timescale.Scale{PerSecond: latencyScale},
	})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(replication in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if !r.GatesPassed() {
		return fmt.Errorf("acceptance gates failed: spread=%v tail=%v retire=%v",
			r.SpreadGate, r.TailGate, r.RetireGate)
	}
	return nil
}

// runGrayFault measures gray-failure and overload resilience: a peer whose
// cluster writes are delayed just under the probe timeout (hedged fetches +
// breakers recover the hot-set p99; without them every request pays the
// delay), and a 3x-capacity flash crowd against a single node (shedding
// keeps goodput near capacity; without it the queue outlives the request
// timeout and goodput collapses). The gates: converged slow-peer p99 within
// 2x the healthy baseline, overload goodput with shedding at least 80% of
// measured capacity, the hedge retry budget never exceeded on any node, and
// the default-off configuration exposing no resilience surface.
func runGrayFault(path string, quick bool, seed int64) error {
	fmt.Printf("Swala gray-failure & overload schedule — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunGrayFault(experiments.Options{
		Quick: quick, Seed: seed,
		Scale: timescale.Scale{PerSecond: latencyScale},
	})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(grayfault in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if !r.GatesPassed() {
		return fmt.Errorf("acceptance gates failed: p99within2x=%v budget=%v goodput=%v defaultoff=%v",
			r.SlowOn.Within2x, r.Budget.Respected, r.Overload.ShedOn.GoodputOK, r.DefaultOff.Passed)
	}
	return nil
}

// runInvalidation measures dependency-based invalidation: a read-write mix
// whose writes originate versioned invalidation waves. The headline criteria:
// after wave quiescence zero stale bodies are served anywhere (byte-compared
// on every node, including with replica holders in play and across a
// partition heal), and stale-while-revalidate keeps read p50 within 2x of
// steady state through a write storm.
func runInvalidation(path string, quick bool, seed int64) error {
	fmt.Printf("Swala invalidation-coherence experiment — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunInvalidation(experiments.Options{
		Quick: quick, Seed: seed,
		Scale: timescale.Scale{PerSecond: structuralScale},
	})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(invalidation in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if !r.GatesPassed() {
		return fmt.Errorf("acceptance gates failed: coherence=%v replica=%v partition=%v swr=%v",
			r.CoherenceGate, r.ReplicaGate, r.PartitionGate, r.SWRGate)
	}
	return nil
}

// runCrash measures log-store crash recovery: a stand-alone node fills its
// disk cache, dies mid-append, has records damaged while down, and restarts
// over the same directory. The headline criteria: every completed entry is
// recovered and every damaged one quarantined, the warm-restart hit ratio is
// strictly above the cold baseline, and zero corrupt bodies are ever served.
func runCrash(path string, quick bool, seed int64) error {
	fmt.Printf("Swala crash-recovery experiment — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunCrash(experiments.Options{Quick: quick, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(crash in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if !r.AllCompletedRecovered || !r.AllDamagedQuarantined || !r.ZeroCorruptServed || !r.WarmAboveCold {
		return fmt.Errorf("acceptance gates failed: completed-recovered=%v damaged-quarantined=%v zero-corrupt-served=%v warm-above-cold=%v",
			r.AllCompletedRecovered, r.AllDamagedQuarantined, r.ZeroCorruptServed, r.WarmAboveCold)
	}
	return nil
}

// runMulticore sweeps GOMAXPROCS 1→N over the warm hot-set workload
// (closed-loop capacity, then open-loop Poisson arrivals at ~70% of it for
// honest p99/p999) and writes a machine-readable JSON report. The
// >=2x-at-4-cores gate is enforced only on hosts with at least 4 CPUs;
// smaller hosts record the curve unchecked.
func runMulticore(path string, quick bool, seed int64) error {
	fmt.Printf("Swala multicore scaling sweep — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunMulticore(experiments.Options{Quick: quick, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(multicore in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if r.GateChecked && !r.GatePassed {
		return fmt.Errorf("scaling gate failed: %.2fx at 4 procs, want >= 2x", r.ScalingAt4)
	}
	return nil
}

// runPipeline measures the layered fetch chain against a hand-inlined
// equivalent of the pre-refactor request path (local-hit and remote-hit
// shapes) and writes a machine-readable JSON report; the chain's budget is
// to stay within 5% of the inline path.
func runPipeline(path string, quick bool, seed int64) error {
	fmt.Printf("Swala fetch-pipeline comparison — quick=%v, seed=%d\n\n", quick, seed)
	start := time.Now()
	r, err := experiments.RunPipeline(experiments.Options{Quick: quick, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(r.Render())
	fmt.Printf("(pipeline in %v)\n", time.Since(start).Round(time.Millisecond))

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
