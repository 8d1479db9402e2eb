package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/httpmsg"
	"repro/internal/replacement"
)

// TestPolicyReplay replays the policy ablation's trace, in order and with no
// timing, through a directory with each replacement policy: a hit is a Lookup
// and a TouchLocal, a miss an InsertLocal of the query's body size and
// nominal cost. The HTTP ablation's counts move with goroutine timing; these
// are exact, so a change to a policy or to the directory's bookkeeping that
// moves a single decision shows here.
func TestPolicyReplay(t *testing.T) {
	type counts struct{ hits, evictions int64 }
	for _, tc := range []struct {
		name string
		opt  Options
		want map[replacement.Kind]counts
	}{
		{"quick", structuralOpts(), map[replacement.Kind]counts{
			replacement.LRU:  {542, 438},
			replacement.FIFO: {477, 503},
			replacement.LFU:  {606, 374},
			replacement.SIZE: {477, 503},
			replacement.GDS:  {507, 473},
		}},
		{"full", Options{Seed: structuralOpts().Seed, Scale: structuralOpts().Scale}, map[replacement.Kind]counts{
			replacement.LRU:  {1839, 1121},
			replacement.FIFO: {1679, 1281},
			replacement.LFU:  {2035, 925},
			replacement.SIZE: {1679, 1281},
			replacement.GDS:  {1795, 1165},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt.withDefaults()
			queries, capacity := policyTrace(opt)
			now := time.Unix(1e9, 0)
			for _, kind := range replacement.Kinds() {
				d := directory.New(1, capacity, replacement.MustNew(kind))
				var got counts
				for _, q := range queries {
					path, query, _ := strings.Cut(policyURI(q), "?")
					key := httpmsg.CanonicalKeyString("GET", path, query)
					if _, ok := d.Lookup(key, now); ok {
						d.TouchLocal(key)
						got.hits++
						continue
					}
					cost := time.Duration(policyCostMs(q)) * opt.Scale.D(0.001)
					got.evictions += int64(len(d.InsertLocal(directory.Entry{Key: key, Size: 2048, ExecTime: cost}, now)))
				}
				if want := tc.want[kind]; got != want {
					t.Errorf("%s: %d hits, %d evictions; want %d, %d", kind, got.hits, got.evictions, want.hits, want.evictions)
				}
			}
		})
	}
}
