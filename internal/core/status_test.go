package core

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/httpclient"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wire"
)

var (
	statusMissesRE  = regexp.MustCompile(`(?m)^swala_misses_total (\d+)$`)
	statusInsertsRE = regexp.MustCompile(`(?m)^swala_inserts_total (\d+)$`)
)

func statusCounter(t *testing.T, re *regexp.Regexp, body string) int {
	t.Helper()
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("status page missing %v:\n%s", re, body)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// metric reads one sample of s.Metrics(); 0 when it is absent.
func metric(s *Server, name string, labelPairs ...string) float64 {
	v, _ := stats.Find(s.Metrics(), name, labelPairs...)
	return v
}

// TestStatusSnapshotConsistentUnderLoad is the regression test for torn
// multi-field counter reads on /swala-status: every request here is a
// unique-key cacheable miss, and each miss is counted before its insert, so
// any consistent snapshot must show inserts <= misses. The pre-sharding
// counter read the fields without a cut and could render a page where an
// insert was visible but its miss was not.
func TestStatusSnapshotConsistentUnderLoad(t *testing.T) {
	h := startCluster(t, 1, nil)
	registerNullCGI(h.servers[0])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := httpclient.New(h.mem)
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				uri := fmt.Sprintf("/cgi-bin/null?w=%d&i=%d", w, i)
				resp, err := c.Get(h.addr(0), uri)
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("GET %s: status %v err %v", uri, resp, err)
					return
				}
			}
		}(w)
	}

	for probe := 0; probe < 50 && !t.Failed(); probe++ {
		body := string(h.get(t, 0, StatusPath).Body)
		misses := statusCounter(t, statusMissesRE, body)
		inserts := statusCounter(t, statusInsertsRE, body)
		if inserts > misses {
			t.Errorf("torn snapshot on probe %d: inserts %d > misses %d", probe, inserts, misses)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStatusPageIsPlainText: the status page is text, never HTML, and a key
// taken from a client URL appears only as an escaped label value.
func TestStatusPageIsPlainText(t *testing.T) {
	h := startCluster(t, 1, nil)
	registerNullCGI(h.servers[0])
	h.get(t, 0, `/cgi-bin/null?q="\<script>`)

	resp := h.get(t, 0, StatusPath)
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
		t.Fatalf("X-Content-Type-Options = %q", got)
	}
	want := `swala_entry_hits_total{key="GET /cgi-bin/null?q=\"\\<script>"} 0`
	if !strings.Contains(string(resp.Body), want+"\n") {
		t.Fatalf("status page missing %s:\n%s", want, resp.Body)
	}
}

// startAllFeatures runs a 3-node ring on log stores with every feature on,
// and drives a little traffic through it.
func startAllFeatures(t *testing.T) *harness {
	h := startRing(t, 3, func(i int, cfg *Config) {
		l, _, err := store.OpenLog(filepath.Join(t.TempDir(), "log"), store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = l
		cfg.ReplicateHot, cfg.SWR = true, true
		cfg.Hedge, cfg.Breaker, cfg.Shed = true, true, true
	})
	for _, s := range h.servers {
		registerNullCGI(s)
	}
	for k := 0; k < 6; k++ {
		for i := range h.servers {
			h.get(t, i, fmt.Sprintf("/cgi-bin/null?k=%d", k))
		}
	}
	return h
}

// series lists the name{labels} part of every line of a WriteText page.
func series(t *testing.T, page string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed line %q", line)
		}
		out = append(out, line[:i])
	}
	sort.Strings(out)
	return out
}

func text(samples []stats.Sample) string {
	var b strings.Builder
	stats.WriteText(&b, samples)
	return b.String()
}

// wireStats asks node i for its samples over the cluster protocol, the way
// swalactl does.
func wireStats(t *testing.T, h *harness, i int) []stats.Sample {
	t.Helper()
	conn, err := h.mem.Dial(fmt.Sprintf("clu-%d", i+1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.Write(&wire.Hello{NodeID: wire.AdminID, NodeName: "test"}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Write(&wire.Stats{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := msg.(*wire.StatsReply)
	if !ok {
		t.Fatalf("reply = %T", msg)
	}
	return sr.Samples
}

// TestMetricsOneModel: Metrics, the status page and a wire Stats round trip
// carry the same series, and every former stats section is in them.
func TestMetricsOneModel(t *testing.T) {
	h := startAllFeatures(t)
	for i, s := range h.servers {
		// A peer's state can move between two reads; the three must agree
		// on some read of a quiet cluster.
		waitUntil(t, "three consumers agree", func() bool {
			direct := strings.Join(series(t, text(s.Metrics())), "\n")
			page := strings.Join(series(t, string(h.get(t, i, StatusPath).Body)), "\n")
			remote := strings.Join(series(t, text(wireStats(t, h, i))), "\n")
			return direct == page && direct == remote
		})
		samples := s.Metrics()
		for section, name := range map[string]string{
			"hits":        "swala_local_hits_total",
			"stages":      "swala_stage_attempts_total",
			"replication": "swala_batch_frames_total",
			"health":      "swala_peer_state",
			"storage":     "swala_store_info",
			"ring":        "swala_ring_member_owned_ratio",
			"replicas":    "swala_replica_held",
			"resilience":  "swala_hedges_issued_total",
		} {
			if _, ok := stats.Find(samples, name); !ok {
				t.Errorf("node %d: no %s sample (%s)", i+1, section, name)
			}
		}
	}
}

// TestREADMEListsEveryMetric: README's metrics table has one row per family
// an all-features node emits and no row for a family none emits.
func TestREADMEListsEveryMetric(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(string(readme), "\n") {
		rest, ok := strings.CutPrefix(line, "| `swala_")
		if !ok {
			continue
		}
		name := "swala_" + rest[:strings.IndexByte(rest, '`')]
		if rows[name] {
			t.Errorf("README has two rows for %s", name)
		}
		rows[name] = true
	}
	emitted := make(map[string]bool)
	for _, s := range startAllFeatures(t).servers {
		for _, smp := range s.Metrics() {
			emitted[smp.Name] = true
		}
	}
	for name := range emitted {
		if !rows[name] {
			t.Errorf("metric %s has no row in README's metrics table", name)
		}
	}
	for name := range rows {
		if !emitted[name] {
			t.Errorf("README's metrics table lists %s, which no node emits", name)
		}
	}
}
