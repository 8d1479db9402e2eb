//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// run is what one workload produced in this invocation.
type run struct {
	w         *workload
	e2e       *result // end-to-end metrics, tracing off; nil when not asked for
	layers    *result // per-layer metrics; nil when not asked for
	closedP50 float64 // µs, closed-loop phase sampled for the per-layer rows
	calib     time.Duration
}

// quantile is the p-quantile of v, interpolated between ranks; 0 when v is
// empty.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := p * float64(len(s)-1)
	lo := int(at)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(at-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// sliceLen is the length a phase's slices aim for. A phase alternates
// between the nodes under test and the reference server (bench/ref) slice by
// slice, and every end-to-end cost is the median, over the pairs of adjacent
// slices of all rounds, of the nodes' figure divided by the reference
// server's. On the 2-vCPU sandbox the CPU cost and the reply time of any
// loopback server move between levels 20–100 % apart for seconds to minutes
// at a time; the reference server moves with them, so the quotient stays
// within a few per cent where the raw figure does not (README, Steadiness).
const sliceLen = time.Second / 2

// slicesOf cuts a phase of length d into an even number of slices of about
// sliceLen, one pair at least.
func slicesOf(d time.Duration, targets int) slicing {
	n := max(int(d/sliceLen)/targets, 1) * targets
	return slicing{each: d / time.Duration(n), n: n}
}

// closedWindow is one target's share of one cycle through the targets of a
// closed-loop phase: its own slice, and its CPU over the whole cycle — what a
// node does after the last reply of its slice (a broadcast batch, a log
// compaction) is part of what those requests cost. A slice that completed
// nothing (the VM was paused for all of it) leaves a zero window, and its
// pair is left out.
type closedWindow struct {
	rps         float64
	cpuUsPerReq float64
	cpuUtil     float64 // within its own slice
	p50         float64 // µs
}

// closedPhase runs one closed-loop phase over ts with /proc sampling around
// it and a sampler that reads every target's CPU time at every slice
// boundary. It returns, per target, the phase, the /proc counters it used and
// its windows.
func closedPhase(ts []target, d time.Duration, spans *spanLog) ([]*phase, []procSample, [][]closedWindow, error) {
	sl := slicesOf(d, len(ts))
	cs, err := connect(ts, spans)
	if err != nil {
		return nil, nil, nil, err
	}
	defer closeAll(cs)
	before := make([]procSample, len(ts))
	for t, tg := range ts {
		if before[t], err = tg.tb.sample(); err != nil {
			return nil, nil, nil, err
		}
	}
	start := time.Now().Add(time.Millisecond)
	var phases []*phase
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		phases = closedLoop(ts, cs, start, sl)
	}()
	cpu := make([][]time.Duration, len(ts)) // [target][boundary]
	var sampleErr error
	for k := 0; k <= sl.n && sampleErr == nil; k++ {
		time.Sleep(time.Until(start.Add(sl.each * time.Duration(k))))
		for t, tg := range ts {
			c, err := tg.tb.cpu()
			if err != nil {
				sampleErr = err
				break
			}
			cpu[t] = append(cpu[t], c)
		}
	}
	<-finished
	if sampleErr != nil {
		return nil, nil, nil, sampleErr
	}
	used := make([]procSample, len(ts))
	windows := make([][]closedWindow, len(ts))
	for t, tg := range ts {
		after, err := tg.tb.sample()
		if err != nil {
			return nil, nil, nil, err
		}
		used[t] = after.sub(before[t])
		lat := make([][]int64, sl.n)
		for i, due := range phases[t].due {
			k := min(int(time.Duration(due)/sl.each), sl.n-1)
			lat[k] = append(lat[k], phases[t].lat[i])
		}
		for k := t; k < sl.n; k += len(ts) {
			first := k - t // the cycle's first boundary
			done := float64(len(lat[k]))
			if done == 0 {
				windows[t] = append(windows[t], closedWindow{})
				continue
			}
			windows[t] = append(windows[t], closedWindow{
				rps:         done / sl.each.Seconds(),
				cpuUsPerReq: float64((cpu[t][first+len(ts)] - cpu[t][first]).Nanoseconds()) / 1e3 / done,
				cpuUtil:     (cpu[t][k+1] - cpu[t][k]).Seconds() / sl.each.Seconds(),
				p50:         us(percentile(sortedCopy(lat[k]), 0.5)),
			})
		}
	}
	return phases, used, windows, nil
}

// openPhase runs one open-loop phase at rate over ts and returns, per
// target, the phase and its slices' latencies, sorted, by the instant each
// arrival was due.
func openPhase(ts []target, rng *rand.Rand, rate float64, d time.Duration, spans *spanLog) ([]*phase, [][][]int64, error) {
	sl := slicesOf(d, len(ts))
	cs, err := connect(ts, spans)
	if err != nil {
		return nil, nil, err
	}
	defer closeAll(cs)
	phases, err := openLoop(ts, cs, poisson(rng, rate, sl.total()), sl)
	if err != nil {
		return nil, nil, err
	}
	windows := make([][][]int64, len(ts))
	for t, p := range phases {
		lat := make([][]int64, sl.n)
		for i, due := range p.due {
			k := min(int(time.Duration(due)/sl.each), sl.n-1)
			lat[k] = append(lat[k], p.lat[i])
		}
		for k := t; k < sl.n; k += len(ts) {
			windows[t] = append(windows[t], sortedCopy(lat[k]))
		}
	}
	return phases, windows, nil
}

// account adds a phase's counts to the result; a failed operation or an
// empty phase makes the run incorrect.
func account(r *result, kind string, p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.excused > 0 {
		fmt.Printf("# %s phase: %d late replies overlapped a stall of the load generator itself and were left out\n", kind, p.excused)
	}
	if p.failed > 0 {
		r.invalid("%s phase: %d of %d operations failed, first: %v", kind, p.failed, p.attempted, p.firstErr)
	}
	if p.completed() == 0 {
		r.invalid("%s phase completed nothing", kind)
	}
}

// checkOpen applies the open-loop validity rules: the phase must complete
// 99 % of its schedule, and the generator's own lateness must stay under
// half the latency it measures.
func checkOpen(r *result, p *phase, lagP50, p50 int64) {
	if due := p.scheduled - p.excused; float64(p.completed()) < 0.99*float64(due) {
		r.invalid("open-loop phase completed %d of %d scheduled arrivals", p.completed(), due)
	}
	if float64(lagP50) > 0.5*float64(p50) {
		r.invalid("generator lag p50 %.1f µs is over half the measured p50 %.1f µs", us(lagP50), us(p50))
	}
}

// measure runs w: the untraced end-to-end run when wantE2E, and the phases
// the per-layer rows marked e2e are sampled from when spans != nil. Both use
// the same seeded streams and, when both run, the same processes.
func (e *env) measure(w *workload, o options, wantE2E bool, spans *spanLog) (*run, error) {
	rn := &run{w: w, calib: hostCalib()}
	if err := pinSelf(e.lay.loadgen); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	st := &stream{ids: w.gen(rng, o.seconds*streamRate)}
	// The reference server's stream is drawn from its own generator, so the
	// nodes' stream is what it would be without it.
	refSt := &stream{ids: w.gen(rand.New(rand.NewSource(o.seed^0x5eed5eed)), o.seconds*streamRate)}
	ref, err := e.spawnRef()
	if err != nil {
		return nil, err
	}
	refTb := &testbed{nodes: []*nodeProc{ref}, stalls: e.stalls}
	defer refTb.stop()
	var tb *testbed
	defer func() {
		if tb != nil {
			tb.stop()
		}
	}()
	rw := refOf(w)
	targets := func() []target { return []target{{w, tb, st}, {rw, refTb, refSt}} }
	// Set up several times, a reference set-up after each; a set-up that
	// takes milliseconds is repeated more often. setup_s is the fastest
	// set-up over the fastest reference set-up, in nominal seconds
	// (procs.go): what the host adds to a set-up it only ever adds, and over
	// eight runs per workload the quotient of the minima varied by 3–7 %
	// where the median of the quotients varied by 7–11 % and the median wall
	// time by 13–28 %.
	setups := 1
	if wantE2E {
		setups = o.setups
	}
	var wall, refWall []float64
	for began := time.Now(); len(wall) < setups || (len(wall) < 4*setups && time.Since(began) < time.Second/2); {
		if tb != nil {
			tb.stop()
		}
		var d, rd time.Duration
		if tb, d, err = e.setUp(w); err != nil {
			return nil, err
		}
		if rd, err = e.refSetUp(w, rw); err != nil {
			return nil, err
		}
		wall, refWall = append(wall, d.Seconds()), append(refWall, rd.Seconds())
	}
	x := slices.Min(wall) / slices.Min(refWall)
	fmt.Printf("# %s: %d set-ups, fastest %.4f s (median %.4f s), %.2f times the fastest reference set-up, %.4f s (median %.4f s)\n",
		w.name, len(wall), slices.Min(wall), median(wall), x, slices.Min(refWall), median(refWall))
	if wantE2E {
		rn.e2e = newResult()
		rn.e2e.set("setup_s", x*refSetUpNominal(w).Seconds(), "s")
		if err := endToEnd(targets(), o, rng, rn.e2e); err != nil {
			return nil, err
		}
	}
	if spans != nil {
		rn.layers = newResult()
		rn.layers.set("loadgen.setup_wall_s", slices.Min(wall), "s")
		rn.layers.set("ref.setup_wall_s", slices.Min(refWall), "s")
		if err := rn.sample(targets(), o, rng, spans); err != nil {
			return nil, err
		}
	}
	rn.calib = max(rn.calib, hostCalib())
	fmt.Printf("# %s: host calibration loop %.1f ms (the slower of before and after)\n", w.name, float64(rn.calib.Microseconds())/1e3)
	return rn, nil
}

// quotients divides a by b pair by pair, leaving out the pairs in which a
// slice completed nothing (a zero).
func quotients(a, b []float64) []float64 {
	var out []float64
	for i := range a {
		if a[i] > 0 && b[i] > 0 {
			out = append(out, a[i]/b[i])
		}
	}
	return out
}

// positive is v without its zeros: the slices that completed nothing.
func positive(v []float64) []float64 {
	var out []float64
	for _, x := range v {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// openStats are the per-slice percentiles of one target's open-loop phase,
// 0 for a slice that completed nothing.
func openStats(windows [][]int64, p float64) []float64 {
	out := make([]float64, len(windows))
	for i, w := range windows {
		out[i] = us(percentile(w, p))
	}
	return out
}

// checkPhases accounts every target's phase, and applies the open-loop
// validity rules when open: every target must complete its schedule, and the
// generator's lateness is held against the nodes' latency (the first
// target's), which is the one it could pass for.
func checkPhases(r *result, kind string, ps []*phase, open bool) {
	for t, p := range ps {
		account(r, kind, p)
		if open {
			var lagP50, p50 int64
			if t == 0 {
				lagP50, p50 = percentile(sortedCopy(p.lag), 0.5), percentile(sortedCopy(p.lat), 0.5)
			}
			checkOpen(r, p, lagP50, p50)
		}
	}
}

// endToEnd is the untraced run over ts (the nodes, then the reference
// server): rounds of [closed loop, open loop], each alternating between the
// two slice by slice; every value is the median over the pairs of slices of
// all rounds.
func endToEnd(ts []target, o options, rng *rand.Rand, r *result) error {
	w := ts[0].w
	phaseLen := time.Duration(o.seconds) * time.Second / time.Duration(2*o.rounds)
	var cpuX, p50X, p90X []float64
	for round := 0; round < o.rounds; round++ {
		cps, _, cw, err := closedPhase(ts, phaseLen, nil)
		if err != nil {
			return err
		}
		checkPhases(r, "closed-loop", cps, false)
		fmt.Printf("# %s round %d closed pairs, nodes|reference, req/s:µs CPU/req:", w.name, round+1)
		var cpuN, cpuR []float64
		for i := range cw[0] {
			cpuN, cpuR = append(cpuN, cw[0][i].cpuUsPerReq), append(cpuR, cw[1][i].cpuUsPerReq)
			fmt.Printf(" %.0f:%.1f|%.0f:%.1f", cw[0][i].rps, cw[0][i].cpuUsPerReq, cw[1][i].rps, cw[1][i].cpuUsPerReq)
		}
		cpuX = append(cpuX, quotients(cpuN, cpuR)...)
		fmt.Println()

		ops, ow, err := openPhase(ts, rng, w.openRate, phaseLen, nil)
		if err != nil {
			return err
		}
		checkPhases(r, "open-loop", ops, true)
		p50n, p50r := openStats(ow[0], 0.5), openStats(ow[1], 0.5)
		p50X = append(p50X, quotients(p50n, p50r)...)
		p90X = append(p90X, quotients(openStats(ow[0], 0.9), openStats(ow[1], 0.9))...)
		fmt.Printf("# %s round %d open pairs at %.0f/s, nodes|reference, p50 µs:", w.name, round+1, w.openRate)
		for i := range p50n {
			fmt.Printf(" %.0f|%.0f", p50n[i], p50r[i])
		}
		fmt.Println()
	}
	end, err := ts[0].tb.sample()
	if err != nil {
		return err
	}
	r.set("cpu_x_ref", median(cpuX), "x")
	r.set("p50_x_ref", median(p50X), "x")
	r.set("p90_x_ref", median(p90X), "x")
	r.set("peak_rss_mb", float64(end.vmHWMBytes)/(1<<20), "MB")
	return nil
}

// sample takes the per-layer rows that are read from outside the node
// processes (README: e2e rows): one closed and one open phase with tracing
// off, alternating with the reference server like the end-to-end run, then
// the same short closed phase on the nodes alone without and with the load
// generator's client-side spans (write, first byte, body) for the overhead.
func (rn *run) sample(ts []target, o options, rng *rand.Rand, spans *spanLog) error {
	w, r := rn.w, rn.layers
	// A sixth of --seconds per phase: with the two half-length overhead
	// phases that is half of --seconds here; the ledger takes about the rest.
	part := time.Duration(o.seconds) * time.Second / 6

	cps, used, cw, err := closedPhase(ts, part, nil)
	if err != nil {
		return err
	}
	checkPhases(r, "closed-loop", cps, false)
	col := func(ws []closedWindow, f func(closedWindow) float64) []float64 {
		out := make([]float64, len(ws))
		for i, x := range ws {
			out[i] = f(x)
		}
		return positive(out)
	}
	n := float64(max(cps[0].completed(), 1))
	r.set("node.cpu_us_per_req", median(col(cw[0], func(x closedWindow) float64 { return x.cpuUsPerReq })), "us")
	r.set("node.cpu_util", median(col(cw[0], func(x closedWindow) float64 { return x.cpuUtil })), "ratio")
	r.set("node.syscr_per_req", float64(used[0].syscr)/n, "count")
	r.set("node.syscw_per_req", float64(used[0].syscw)/n, "count")
	r.set("node.wchar_per_req", float64(used[0].wchar)/n, "B")
	r.set("node.ctx_switches_per_req", float64(used[0].ctxSwitch)/n, "count")
	r.set("ref.cpu_us_per_req", median(col(cw[1], func(x closedWindow) float64 { return x.cpuUsPerReq })), "us")
	r.set("ref.closed_rps", median(col(cw[1], func(x closedWindow) float64 { return x.rps })), "1/s")
	r.set("loadgen.closed_rps", median(col(cw[0], func(x closedWindow) float64 { return x.rps })), "1/s")
	rn.closedP50 = median(col(cw[0], func(x closedWindow) float64 { return x.p50 }))
	r.set("loadgen.closed_p50_us", rn.closedP50, "us")
	r.set("loadgen.closed_p99_us", us(percentile(sortedCopy(cps[0].lat), 0.99)), "us")

	ops, ow, err := openPhase(ts, rng, w.openRate, part, nil)
	if err != nil {
		return err
	}
	checkPhases(r, "open-loop", ops, true)
	op := ops[0]
	lat, lag := sortedCopy(op.lat), sortedCopy(op.lag)
	r.set("loadgen.gen_lag_p50_us", us(percentile(lag, 0.5)), "us")
	r.set("loadgen.gen_lag_p99_us", us(percentile(lag, 0.99)), "us")
	r.set("loadgen.p50_us", median(positive(openStats(ow[0], 0.5))), "us")
	r.set("loadgen.p90_us", median(positive(openStats(ow[0], 0.9))), "us")
	r.set("ref.p50_us", median(positive(openStats(ow[1], 0.5))), "us")
	r.set("loadgen.p99_us", us(percentile(lat, 0.99)), "us")
	r.set("loadgen.p999_us", us(percentile(lat, 0.999)), "us")
	r.set("loadgen.max_us", us(percentile(lat, 1)), "us")
	byClass := make([][]int64, numClasses)
	for i, c := range op.class {
		byClass[c] = append(byClass[c], op.lat[i])
	}
	for c := classNone; c <= classRemote; c++ {
		r.set("loadgen.class_share."+classNames[c], float64(len(byClass[c]))/float64(max(len(op.lat), 1)), "ratio")
		r.set("loadgen.lat_p50_us."+classNames[c], us(percentile(sortedCopy(byClass[c]), 0.5)), "us")
	}

	off, _, _, err := closedPhase(ts[:1], part/2, nil)
	if err != nil {
		return err
	}
	checkPhases(r, "closed-loop", off, false)
	on, _, _, err := closedPhase(ts[:1], part/2, spans)
	if err != nil {
		return err
	}
	checkPhases(r, "closed-loop with client spans", on, false)
	r.set("loadgen.trace_overhead_pct", 100*(off[0].rps()-on[0].rps())/off[0].rps(), "%")
	return nil
}

// finishLayers runs the ledger once — it replays all four streams whatever
// the workloads of this invocation are — adds its rows to every run's
// per-layer result, and writes the span file.
func (e *env) finishLayers(runs []*run, o options, spans *spanLog) error {
	// The node processes are gone: the ledger may use every CPU.
	if err := pinSelf(append(append([]int(nil), e.lay.node[0]...), e.lay.loadgen...)); err != nil {
		return err
	}
	shared := newResult()
	rsw, err := e.ledger(o, spans, shared)
	if err != nil {
		return err
	}
	if err := spans.writeFile(o.traceOut); err != nil {
		return err
	}
	nested := spans.nestedShare()
	fmt.Printf("# %d spans in %s; children sum to no more than their parent in %.2f %% of parent spans\n",
		len(spans.spans), o.traceOut, 100*nested)
	for _, rn := range runs {
		r := rn.layers
		r.merge("", shared)
		// What a closed-loop round trip spends outside read_request, serve
		// and write_response: kernel TCP, the httpserver connection loop and
		// its per-request watcher goroutine, and scheduling.
		r.set("loadgen.transport_residual_us", rn.closedP50-rsw[rn.w.name]/1e3, "us")
		r.set("loadgen.host_calib_ms", float64(rn.calib.Microseconds())/1e3, "ms")
		if nested < 0.95 {
			r.invalid("only %.1f %% of parent spans cover their children", 100*nested)
		}
	}
	return nil
}
