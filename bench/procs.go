//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// convergeTimeout bounds how long set-up waits for every warmed key to answer
// with the expected class before the run fails instead of measuring a
// half-converged directory.
const convergeTimeout = 10 * time.Second

// nodeProc is one running bench/node (or bench/ref) process.
type nodeProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lines   chan string
	http    string
	cluster string
}

// expect waits for a stdout line starting with prefix.
func (n *nodeProc) expect(prefix string) (string, error) {
	select {
	case line, ok := <-n.lines:
		if !ok {
			return "", fmt.Errorf("node exited before printing %q", prefix)
		}
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			return "", fmt.Errorf("node printed %q, want %q", line, prefix)
		}
		return strings.TrimSpace(rest), nil
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("node did not print %q within 10s", prefix)
	}
}

// stop closes the node's stdin, which makes it shut down, and waits for it;
// a node that has not exited after 5 s is killed.
func (n *nodeProc) stop() {
	n.stdin.Close()
	done := make(chan struct{})
	go func() { n.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		n.cmd.Process.Kill()
		<-done
	}
}

// layout says which CPUs the node processes and the load generator run on.
type layout struct {
	node    [][]int // CPUs of node i (shared when the host is small)
	loadgen []int
	note    string
}

// planLayout sizes the process layout for the CPUs this process may use: one
// core per node when there are four or more, all nodes on the first core
// when there are two or three, no pinning on a single core.
func planLayout(allowed []int) layout {
	switch {
	case len(allowed) >= 4:
		return layout{node: [][]int{{allowed[0]}, {allowed[1]}}, loadgen: allowed[2:],
			note: "one core per node, load generator on the rest"}
	case len(allowed) >= 2:
		return layout{node: [][]int{{allowed[0]}, {allowed[0]}}, loadgen: allowed[1:],
			note: "all nodes share one core, load generator on the rest"}
	default:
		return layout{node: [][]int{allowed, allowed}, loadgen: allowed,
			note: "single CPU: nodes and load generator share it, rps is not per core"}
	}
}

// testbed is the set of node processes one workload runs against.
type testbed struct {
	nodes  []*nodeProc
	dir    string
	stalls *stallWatch
}

func (tb *testbed) stop() {
	for _, n := range tb.nodes {
		n.stop()
	}
	if tb.dir != "" {
		os.RemoveAll(tb.dir)
	}
}

// sample sums the /proc counters of every node process.
func (tb *testbed) sample() (procSample, error) {
	var sum procSample
	for _, n := range tb.nodes {
		s, err := sampleProc(n.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum = sum.add(s)
	}
	return sum, nil
}

// cpu sums utime+stime of every node process.
func (tb *testbed) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, n := range tb.nodes {
		c, err := cpuTime(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// env holds what every run needs: the node and reference-server binaries, a
// scratch directory inside the checkout, and the CPU layout.
type env struct {
	nodeBin string
	refBin  string
	scratch string
	lay     layout
	stalls  *stallWatch
}

func (e *env) spawn(w *workload, i int, dir string) (*nodeProc, error) {
	args := []string{"-id", strconv.Itoa(i + 1), "-capacity", strconv.Itoa(w.capacity)}
	if w.cooperative {
		args = append(args, "-cooperative")
	}
	if w.logStore {
		args = append(args, "-logdir", filepath.Join(dir, "log"+strconv.Itoa(i+1)))
	}
	if len(w.files) > 0 {
		var specs []string
		for _, f := range w.files {
			specs = append(specs, f.path+"="+strconv.Itoa(f.size))
		}
		args = append(args, "-files", strings.Join(specs, ","))
	}
	n, addr, err := start(exec.Command(e.nodeBin, args...), e.lay.node[i])
	if err != nil {
		return nil, err
	}
	n.http, n.cluster, _ = strings.Cut(addr, " ")
	return n, nil
}

// spawnRef starts the reference server where node 1 runs.
func (e *env) spawnRef() (*nodeProc, error) {
	n, addr, err := start(exec.Command(e.refBin), e.lay.node[0])
	if err != nil {
		return nil, err
	}
	n.http = addr
	return n, nil
}

// start runs cmd pinned to cpus with one P, so that throughput is per core
// by construction, and waits for its "addr" line.
func start(cmd *exec.Cmd, cpus []int) (*nodeProc, string, error) {
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, "", err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := startPinned(cmd, cpus); err != nil {
		return nil, "", err
	}
	n := &nodeProc{cmd: cmd, stdin: stdin, lines: make(chan string, 4)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			n.lines <- sc.Text()
		}
		close(n.lines)
	}()
	addr, err := n.expect("addr ")
	if err != nil {
		n.stop()
		return nil, "", err
	}
	return n, addr, nil
}

// setUp spawns w's nodes, waits for the mesh to be up and idle, warms the
// caches and verifies every warmed key answers with the right body and
// class. It returns the testbed and the wall time from the first spawn until
// verification passed.
func (e *env) setUp(w *workload) (*testbed, time.Duration, error) {
	dir, err := os.MkdirTemp(e.scratch, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	tb := &testbed{dir: dir, stalls: e.stalls}
	fail := func(err error) (*testbed, time.Duration, error) {
		tb.stop()
		return nil, 0, fmt.Errorf("set-up %s: %w", w.name, err)
	}
	for i := 0; i < w.nodes; i++ {
		n, err := e.spawn(w, i, dir)
		if err != nil {
			return fail(err)
		}
		tb.nodes = append(tb.nodes, n)
	}
	for i, n := range tb.nodes {
		var peers []string
		for j, p := range tb.nodes {
			if j != i {
				peers = append(peers, strconv.Itoa(j+1)+"="+p.cluster)
			}
		}
		if _, err := fmt.Fprintf(n.stdin, "peers %s\n", strings.Join(peers, ",")); err != nil {
			return fail(err)
		}
	}
	for _, n := range tb.nodes {
		if _, err := n.expect("ready"); err != nil {
			return fail(err)
		}
	}
	if err := tb.warmAndVerify(w); err != nil {
		return fail(err)
	}
	return tb, time.Since(start), nil
}

// The reference set-up: a reference server is started, sent one request per
// request of w's set-up (warm list, then verify list) with the same body
// size, one after the other on one connection, and its wall time taken. A
// node set-up is reported as a multiple of the reference set-up made right
// after it, in seconds of a host on which the reference server starts in
// refStartNominal and answers such a request in refReplyNominal: what the
// host adds to a process start and to a loopback round trip at that moment
// it adds to both.
const (
	refStartNominal = 5 * time.Millisecond
	refReplyNominal = 50 * time.Microsecond
)

// refSetUpNominal is what w's reference set-up takes on the nominal host.
func refSetUpNominal(w *workload) time.Duration {
	return refStartNominal + time.Duration(len(w.warm())+len(w.verify()))*refReplyNominal
}

// refSetUp makes w's reference set-up, rw being refOf(w), and returns its
// wall time.
func (e *env) refSetUp(w, rw *workload) (time.Duration, error) {
	start := time.Now()
	ref, err := e.spawnRef()
	if err != nil {
		return 0, err
	}
	defer ref.stop()
	c, err := dial(ref.http)
	if err != nil {
		return 0, err
	}
	defer c.close()
	for _, q := range append(w.warm(), w.verify()...) {
		c.req = rw.catalog.appendRequest(c.req[:0], q.id)
		sent := time.Now()
		r, err := c.roundTrip(c.req, 0)
		if err != nil {
			return 0, fmt.Errorf("reference set-up: %w", err)
		}
		if err := check(rw.catalog, rw.wantClass, q.id, r, time.Since(sent), &c.scratch); err != nil {
			return 0, fmt.Errorf("reference set-up: %w", err)
		}
	}
	return time.Since(start), nil
}

// dirEntries asks node n how many entries its directory holds, all tables.
func (n *nodeProc) dirEntries() (int, error) {
	if _, err := io.WriteString(n.stdin, "total\n"); err != nil {
		return 0, err
	}
	s, err := n.expect("total ")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(s)
}

// warmAndVerify requests w's warm list, waits until every node's directory
// has converged, and then requires every request of w's verify list to answer
// with the right body and class. Convergence is read from the nodes, not
// polled over HTTP: a request for a key whose broadcast has not arrived is a
// miss, which executes and caches it on the wrong node for good.
func (tb *testbed) warmAndVerify(w *workload) error {
	// The server closes a keep-alive connection idle for 2 s, and one node's
	// connection idles while the other node is warmed: redial after 1 s.
	clients := make([]*client, len(tb.nodes))
	lastUse := make([]time.Time, len(tb.nodes))
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.close()
			}
		}
	}()
	get := func(q probe) error {
		if c := clients[q.node]; c == nil || time.Since(lastUse[q.node]) > time.Second {
			if c != nil {
				c.close()
			}
			c, err := dial(tb.nodes[q.node].http)
			if err != nil {
				return err
			}
			clients[q.node] = c
		}
		c := clients[q.node]
		c.req = w.catalog.appendRequest(c.req[:0], q.id)
		start := time.Now()
		r, err := c.roundTrip(c.req, 0)
		if err != nil {
			return err
		}
		lastUse[q.node] = time.Now()
		return check(w.catalog, q.class, q.id, r, lastUse[q.node].Sub(start), &c.scratch)
	}
	for _, q := range w.warm() {
		if err := get(q); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	deadline := time.Now().Add(convergeTimeout)
	for i, n := range tb.nodes {
		for {
			have, err := n.dirEntries()
			if err != nil {
				return err
			}
			if have >= w.dirEntries {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %d holds %d of %d directory entries after %v",
					i+1, have, w.dirEntries, convergeTimeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, q := range w.verify() {
		if err := get(q); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	return nil
}
