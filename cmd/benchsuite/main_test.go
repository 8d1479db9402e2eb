package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func names(runs []experiment) string {
	var out []string
	for _, e := range runs {
		out = append(out, e.name)
	}
	return strings.Join(out, ",")
}

func TestSelectRunsDefaultIsThePaperSuite(t *testing.T) {
	runs, err := selectRuns("", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(runs), names(suite); got != want {
		t.Fatalf("default runs = %s, want the paper suite %s", got, want)
	}
}

func TestSelectRunsNamesPaperExperimentsAndSchedules(t *testing.T) {
	runs, err := selectRuns(" faults, table1 ,,crash", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(runs), "table1,faults,crash"; got != want {
		t.Fatalf("runs = %s, want %s", got, want)
	}
}

func TestSelectRunsRejectsUnknownName(t *testing.T) {
	_, err := selectRuns("table1,falts", "")
	if err == nil {
		t.Fatal("an unknown -run name was accepted")
	}
	for _, want := range []string{"falts", "table1", "latency", "faults", "multicore"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestSelectRunsJSONNeedsExactlyOneSchedule(t *testing.T) {
	for _, run := range []string{"", "table1", "faults,crash"} {
		if _, err := selectRuns(run, "out.json"); err == nil {
			t.Errorf("-run %q -json accepted", run)
		}
	}
	for _, run := range []string{"faults", "table1,faults"} {
		if _, err := selectRuns(run, "out.json"); err != nil {
			t.Errorf("-run %q -json: %v", run, err)
		}
	}
}

// fakeSchedule returns a schedule row whose run yields r without measuring.
func fakeSchedule(r experiments.FaultsResult) experiment {
	return experiment{name: "fake", run: func(experiments.Options) (report, error) {
		return report{r.Render, r, r.Failed()}, nil
	}}
}

func TestRunOneFailsOnAFailedGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var r experiments.FaultsResult
	r.Hang.Within2xMiss = true // rejoin.recovered_within_1_point stays false
	if runOne(io.Discard, fakeSchedule(r), experiments.Options{}, path) {
		t.Fatal("runOne reported success for a result with a failed gate")
	}
	// The result is still written, so the failing run can be inspected.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got experiments.FaultsResult
	if err := json.Unmarshal(buf, &got); err != nil || !got.Hang.Within2xMiss || got.Rejoin.RecoveredWithin1 {
		t.Fatalf("written result = %s (err %v)", buf, err)
	}

	r.Rejoin.RecoveredWithin1 = true
	if !runOne(io.Discard, fakeSchedule(r), experiments.Options{}, path) {
		t.Fatal("runOne reported failure for a result with every gate holding")
	}
}

func TestRunOneFailsOnARunError(t *testing.T) {
	e := experiment{name: "broken", run: func(experiments.Options) (report, error) {
		return report{}, errors.New("boom")
	}}
	if runOne(io.Discard, e, experiments.Options{}, "") {
		t.Fatal("runOne reported success for a run that returned an error")
	}
}
