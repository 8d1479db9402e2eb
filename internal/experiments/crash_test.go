package experiments

import (
	"strings"
	"testing"
)

func TestCrashRecoveryGates(t *testing.T) {
	r, err := RunCrash(structuralOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllCompletedRecovered {
		t.Errorf("recovered %d of %d completed entries (damaged %d)",
			r.Recovery.Recovered, r.Keys, r.Damaged)
	}
	if !r.AllDamagedQuarantined {
		t.Errorf("quarantined %d of %d damaged entries", r.Recovery.Quarantined, r.Damaged)
	}
	if !r.ZeroCorruptServed {
		t.Errorf("%d corrupt bodies served, want 0", r.CorruptBodiesServed)
	}
	if !r.WarmAboveCold {
		t.Errorf("warm hit ratio %.3f not above cold %.3f", r.Warm.HitRatio, r.Cold.HitRatio)
	}
	if !r.RuntimeCorruption.Quarantined {
		t.Error("runtime bit-rot probe was not quarantined")
	}
	if r.Recovery.OrphansSwept != 2 {
		t.Errorf("orphans swept = %d, want 2 (torn tail + planted temp)", r.Recovery.OrphansSwept)
	}
	if out := r.Render(); !strings.Contains(out, "crash recovery") {
		t.Fatalf("render missing title:\n%s", out)
	}
}
