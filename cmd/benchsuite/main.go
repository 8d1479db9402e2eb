// Command benchsuite regenerates every table and figure of the paper's
// evaluation and prints them side by side with the published shape targets.
// It also runs the schedules beyond the paper (fault injection, crash
// recovery, scale-out, ...), each of which checks acceptance gates.
//
// Usage:
//
//	benchsuite                 # every paper experiment at full size
//	benchsuite -quick          # reduced sizes (seconds instead of minutes)
//	benchsuite -run table1,figure4
//	benchsuite -scale 2ms      # 1 paper-second = 2 ms measured
//	benchsuite -run faults -json BENCH_faults.json -quick
//
// A schedule runs only when -run names it. With -json its result is written
// as JSON, and the command exits non-zero when any of its gates failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/timescale"
)

// experiment is one row of the suite or schedules table.
type experiment struct {
	name string
	desc string
	// scale is the experiment's default time scale (1 paper-second of
	// simulated service per this much measured time). Latency-difference
	// experiments use an expanded scale so simulated costs dominate host
	// scheduling noise; structural experiments (hit counts, large ratios)
	// use a compressed one to run fast.
	scale time.Duration
	run   func(experiments.Options) (report, error)
}

// report is what one run produced: its text rendering (called only after the
// run succeeded) and, for a schedule, the result to write as JSON and the
// names of the gates that failed.
type report struct {
	render func() string
	result any
	failed []string
}

const (
	latencyScale    = 100 * time.Millisecond
	structuralScale = 2500 * time.Microsecond
)

// suite is the paper's evaluation; it runs by default.
var suite = []experiment{
	{"table1", "access-log analysis: potential saving from caching CGI", structuralScale, func(o experiments.Options) (report, error) {
		return report{render: experiments.RunTable1(o).Render}, nil
	}},
	{"table2", "file-fetch response time vs clients (HTTPd, Enterprise, Swala)", latencyScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunTable2(o)
		return report{render: r.Render}, err
	}},
	{"figure3", "null-CGI response time across five configurations", latencyScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunFigure3(o)
		return report{render: r.Render}, err
	}},
	{"figure4", "multi-node response time with and without cooperative caching", structuralScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunFigure4(o)
		return report{render: r.Render}, err
	}},
	{"table3", "insert + broadcast overhead", latencyScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunTable3(o)
		return report{render: r.Render}, err
	}},
	{"table4", "replicated directory maintenance overhead", latencyScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunTable4(o)
		return report{render: r.Render}, err
	}},
	{"table5", "hit ratios, cache size 2000", structuralScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunHitRatio(o, 2000)
		return report{render: r.Render}, err
	}},
	{"table6", "hit ratios, cache size 20", structuralScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunHitRatio(o, 20)
		return report{render: r.Render}, err
	}},
	{"policies", "ablation: the five replacement policies", structuralScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunPolicyAblation(o)
		return report{render: r.Render}, err
	}},
	{"latency", "sensitivity: cooperative caching vs inter-node latency", latencyScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunLatencySweep(o)
		return report{render: r.Render}, err
	}},
}

// schedules go beyond the paper; each runs only when -run names it and
// fails the command when one of its acceptance gates does not hold.
var schedules = []experiment{
	{"faults", "hang / partition / rejoin on 8 nodes, failure detector vs reactive fallback", timescale.DefaultScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunFaults(o)
		return report{r.Render, r, r.Failed()}, err
	}},
	{"crash", "log-store crash recovery: kill mid-write, damaged records, warm restart", timescale.DefaultScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunCrash(o)
		return report{r.Render, r, r.Failed()}, err
	}},
	{"scaleout", "live 8->12 ring join and graceful leave under load vs the replicated directory", timescale.DefaultScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunScaleout(o)
		return report{r.Render, r, r.Failed()}, err
	}},
	{"replication", "viral key on an 8-node ring with and without hot replication", latencyScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunReplication(o)
		return report{r.Render, r, r.Failed()}, err
	}},
	{"invalidation", "invalidation coherence: rw mix, replica retire, partition heal, SWR storm", structuralScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunInvalidation(o)
		return report{r.Render, r, r.Failed()}, err
	}},
	{"grayfault", "slow peer with hedging and breakers, flash crowd with shedding", latencyScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunGrayFault(o)
		return report{r.Render, r, r.Failed()}, err
	}},
	{"multicore", "GOMAXPROCS sweep: closed-loop capacity, open-loop tail latency", timescale.DefaultScale, func(o experiments.Options) (report, error) {
		r, err := experiments.RunMulticore(o)
		return report{r.Render, r, r.Failed()}, err
	}},
}

func main() {
	var (
		runFlag   = flag.String("run", "", "comma-separated paper experiments and schedules (default: every paper experiment)")
		quick     = flag.Bool("quick", false, "reduced request counts and sweeps")
		scaleFlag = flag.Duration("scale", 0, "measured duration of one paper second (0 = per-experiment default)")
		seed      = flag.Int64("seed", 1998, "workload seed")
		list      = flag.Bool("list", false, "list paper experiments and schedules and exit")
		jsonPath  = flag.String("json", "", "write the result of the one schedule -run names to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("paper experiments (run by default):")
		for _, e := range suite {
			fmt.Printf("  %-12s  %s\n", e.name, e.desc)
		}
		fmt.Println("schedules (run only when named):")
		for _, e := range schedules {
			fmt.Printf("  %-12s  %s\n", e.name, e.desc)
		}
		return
	}

	runs, err := selectRuns(*runFlag, *jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("Swala evaluation suite — quick=%v, seed=%d\n\n", *quick, *seed)
	failed := false
	for _, e := range runs {
		scale := e.scale
		if *scaleFlag > 0 {
			scale = *scaleFlag
		}
		opts := experiments.Options{
			Quick: *quick,
			Seed:  *seed,
			Scale: timescale.Scale{PerSecond: scale},
		}
		if !runOne(os.Stdout, e, opts, *jsonPath) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// selectRuns resolves -run into the runs to make, paper experiments first:
// every paper experiment when names is empty, else exactly the named ones.
// An unknown name is an error, and so is -json unless exactly one schedule
// is selected.
func selectRuns(names, jsonPath string) ([]experiment, error) {
	papers, scheds := suite, []experiment(nil)
	if names != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				want[n] = true
			}
		}
		take := func(table []experiment) (out []experiment) {
			for _, e := range table {
				if want[e.name] {
					out = append(out, e)
					delete(want, e.name)
				}
			}
			return out
		}
		papers, scheds = take(suite), take(schedules)
		if len(want) > 0 {
			var unknown, valid []string
			for n := range want {
				unknown = append(unknown, n)
			}
			sort.Strings(unknown)
			for _, e := range append(append([]experiment{}, suite...), schedules...) {
				valid = append(valid, e.name)
			}
			return nil, fmt.Errorf("unknown -run name %s (valid: %s)",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
		}
	}
	if jsonPath != "" && len(scheds) != 1 {
		return nil, errors.New("-json needs -run to name exactly one schedule")
	}
	return append(papers, scheds...), nil
}

// runOne runs e and prints its report. A schedule's result is written to
// jsonPath when that is set, and its failed gates are named. runOne reports
// whether the run completed with every gate holding.
func runOne(w io.Writer, e experiment, o experiments.Options, jsonPath string) bool {
	fmt.Fprintf(w, "=== %s: %s (%s) ===\n", e.name, e.desc, o.Scale)
	start := time.Now()
	rep, err := e.run(o)
	if err != nil {
		log.Printf("%s failed: %v", e.name, err)
		return false
	}
	fmt.Fprint(w, rep.render())
	fmt.Fprintf(w, "(%s in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	if rep.result != nil && jsonPath != "" {
		buf, err := json.MarshalIndent(rep.result, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			log.Printf("%s: writing %s: %v", e.name, jsonPath, err)
			return false
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	if len(rep.failed) > 0 {
		log.Printf("%s: acceptance gates failed: %s", e.name, strings.Join(rep.failed, ", "))
		return false
	}
	return true
}
