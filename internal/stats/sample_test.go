package stats

import (
	"math"
	"strings"
	"testing"
)

func TestWriteText(t *testing.T) {
	var b strings.Builder
	err := WriteText(&b, []Sample{
		{Name: "swala_misses_total", Value: 12},
		{Name: "swala_entry_hits_total", Labels: []Label{{"key", "GET /q?a=\"x\"\\\n<b>"}, {"node", "π"}}, Value: 3},
		{Name: "big", Value: 1 << 53},
		{Name: "frac", Value: 0.25},
		{Name: "inf", Value: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `swala_misses_total 12
swala_entry_hits_total{key="GET /q?a=\"x\"\\\n<b>",node="π"} 3
big 9007199254740992
frac 0.25
inf +Inf
`
	if b.String() != want {
		t.Fatalf("WriteText =\n%s\nwant\n%s", b.String(), want)
	}
}

func TestFind(t *testing.T) {
	samples := []Sample{
		{Name: "swala_shed_total", Labels: []Label{{"class", "remote"}}, Value: 1},
		{Name: "swala_shed_total", Labels: []Label{{"class", "local"}}, Value: 2},
		{Name: "swala_misses_total", Value: 3},
	}
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
		ok     bool
	}{
		{"swala_misses_total", nil, 3, true},
		{"swala_shed_total", nil, 1, true},
		{"swala_shed_total", []string{"class", "local"}, 2, true},
		{"swala_shed_total", []string{"class", "stale"}, 0, false},
		{"swala_hits_total", nil, 0, false},
	} {
		if got, ok := Find(samples, tc.name, tc.labels...); got != tc.want || ok != tc.ok {
			t.Errorf("Find(%s, %v) = %v, %v; want %v, %v", tc.name, tc.labels, got, ok, tc.want, tc.ok)
		}
	}
}
