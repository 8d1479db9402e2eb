//go:build linux

// Command bench is the repository's benchmark: it starts real bench/node
// processes on loopback TCP, drives four workloads from this one
// load-generator process, verifies every response body, and prints every
// metric by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; its JSON form is the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// invalid marks the run incorrect and says why on standard error.
func (r *result) invalid(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "bench: INVALID: "+format+"\n", args...)
}

// merge folds o into r, prefixing o's metric names.
func (r *result) merge(prefix string, o *result) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for name, m := range o.Metrics {
		r.Metrics[prefix+name] = m
	}
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 0 end-to-end metrics, 1 per-layer metrics, -1 both
	traceOut string
	smoke    bool
	rounds   int // [closed, open] rounds of the untraced run
	setups   int // set-ups of the untraced run, at least; setup_s is from the fastest
	replay   int // requests of each stream the ledger replays
}

// streamRate sizes the request stream generated up front: seconds × this.
const streamRate = 50_000

func main() {
	var o options
	var nodeBin, refBin, scratch string
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request streams and the arrival schedules")
	flag.IntVar(&o.seconds, "seconds", 24, "seconds measured per workload and run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; -1: both")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default <scratch>/trace.jsonl)")
	flag.BoolVar(&o.smoke, "smoke", false, "one round of ≈0.5 s phases, one set-up, a short replay: checks that everything runs and measures nothing")
	flag.StringVar(&nodeBin, "node", "", "path of the built bench/node binary (run.sh passes it)")
	flag.StringVar(&refBin, "ref", "", "path of the built bench/ref binary (run.sh passes it)")
	flag.StringVar(&scratch, "scratch", "", "directory for stores and the span file, inside the checkout (run.sh passes it)")
	flag.Parse()
	o.rounds, o.setups, o.replay = 3, 3, 20_000
	if o.smoke {
		o.seconds, o.rounds, o.setups, o.replay = 1, 1, 1, 1_000
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(scratch, "trace.jsonl")
	}
	if nodeBin == "" || refBin == "" || scratch == "" {
		fatal(2, "run it through bench/run.sh, which builds bench/node and bench/ref and passes -node, -ref and -scratch")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(2, "%v", err)
	}
	allowed, err := allowedCPUs()
	if err != nil {
		fatal(2, "%v", err)
	}
	ws := workloads()
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			fatal(2, "%v", err)
		}
		ws = []*workload{w}
	}
	// Each connection goroutine blocks its thread in read(2) or nanosleep(2);
	// with a P to spare for each, none waits for sysmon to hand one over.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	e := &env{nodeBin: nodeBin, refBin: refBin, scratch: scratch, lay: planLayout(allowed), stalls: startStallWatch()}
	fmt.Printf("# layout: %d CPUs allowed; %s; nodes run with GOMAXPROCS=1\n", len(allowed), e.lay.note)
	fmt.Println("# traffic crossed the host's loopback interface, not a link")

	wantE2E, wantLayers := o.trace != 1, o.trace != 0
	var spans *spanLog
	if wantLayers {
		spans = newSpanLog()
	}
	runs := make([]*run, len(ws))
	for i, w := range ws {
		if runs[i], err = e.measure(w, o, wantE2E, spans); err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
	}
	if wantLayers {
		if err := e.finishLayers(runs, o, spans); err != nil {
			fatal(1, "%v", err)
		}
	}

	if n := e.stalls.close(); n > 0 {
		fmt.Printf("# the load generator itself was stalled for over %v %d times\n", stallGap, n)
	}

	total := newResult()
	for _, rn := range runs {
		for _, part := range []*result{rn.e2e, rn.layers} {
			if part == nil {
				continue
			}
			printMetrics(rn.w.name, part)
			prefix := ""
			if len(runs) > 1 {
				prefix = rn.w.name + "/"
			}
			total.merge(prefix, part)
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(2, "%v", err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func printMetrics(workload string, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-16s %-36s %14.4f %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%-16s %-36s %14d count\n", workload, "attempted", r.Attempted)
	fmt.Printf("%-16s %-36s %14d count\n", workload, "failed", r.Failed)
}
