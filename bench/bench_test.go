//go:build linux

package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs the whole benchmark once with -smoke (≈20 s) and checks it
// against BENCHMARK.json: every workload and every metric named there is
// printed with its unit, no value is NaN, no end-to-end metric or count is
// zero, and no operation failed. It catches a benchmark that stopped
// building, a renamed metric, and a layer API the benchmark lost.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes and measures for several seconds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("bash", "run.sh", "--smoke")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench/run.sh --smoke: %v\n%s", err, out)
	}

	// Lines are "workload metric value unit".
	type row struct {
		value float64
		unit  string
	}
	printed := map[string]row{}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		printed[f[0]+"/"+f[1]] = row{v, f[3]}
	}
	for _, w := range spec.Workloads {
		for _, m := range append(append([]named{}, spec.EndToEnd...), spec.PerLayer...) {
			got, ok := printed[w.Name+"/"+m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not printed", w.Name, m.Name)
			case got.unit != m.Unit:
				t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", w.Name, m.Name, got.unit, m.Unit)
			case math.IsNaN(got.value) || math.IsInf(got.value, 0):
				t.Errorf("%s: metric %s is %v", w.Name, m.Name, got.value)
			}
		}
		for _, m := range spec.EndToEnd {
			if printed[w.Name+"/"+m.Name].value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, printed[w.Name+"/"+m.Name].value)
			}
		}
		if printed[w.Name+"/attempted"].value <= 0 {
			t.Errorf("%s: nothing attempted", w.Name)
		}
		if printed[w.Name+"/failed"].value != 0 {
			t.Errorf("%s: %v failed operations", w.Name, printed[w.Name+"/failed"].value)
		}
	}

	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	want := len(spec.Workloads) * (len(spec.EndToEnd) + len(spec.PerLayer))
	if !last.Correct || last.Failed != 0 || last.Attempted == 0 || len(last.Metrics) != want {
		t.Errorf("result: correct=%v attempted=%d failed=%d with %d metrics, want %d metrics",
			last.Correct, last.Attempted, last.Failed, len(last.Metrics), want)
	}
}
