package stats

import (
	"io"
	"strconv"
	"strings"
)

// Label is one name="value" pair qualifying a Sample.
type Label struct {
	Name, Value string
}

// Sample is one metric reading: a family name, its labels and a value. A
// node describes every counter it keeps as a flat list of samples, and the
// status page, the wire StatsReply and swalactl all carry and print that one
// list.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// labelEscaper escapes a label value the way the Prometheus text format
// requires.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteText writes samples to w in the Prometheus text format, one
// `name{k="v",...} value` line per sample, in the order given.
func WriteText(w io.Writer, samples []Sample) error {
	var b strings.Builder
	for _, s := range samples {
		b.WriteString(s.Name)
		for i, l := range s.Labels {
			if i == 0 {
				b.WriteByte('{')
			} else {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			labelEscaper.WriteString(&b, l.Value)
			b.WriteByte('"')
		}
		if len(s.Labels) > 0 {
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(s.Value, 'f', -1, 64))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Find returns the value of the first sample named name that carries every
// given label; labelPairs alternate label name and value.
func Find(samples []Sample, name string, labelPairs ...string) (float64, bool) {
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(labelPairs); i += 2 {
			if !s.hasLabel(labelPairs[i], labelPairs[i+1]) {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

func (s Sample) hasLabel(name, value string) bool {
	for _, l := range s.Labels {
		if l.Name == name && l.Value == value {
			return true
		}
	}
	return false
}
