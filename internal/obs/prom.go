package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"

	"itscs/internal/metrics"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair. Values are escaped on render.
type Label struct {
	Name, Value string
}

// Prom accumulates a Prometheus text-format exposition. It is not safe for
// concurrent use; build one per scrape from metric snapshots. The first
// sample of each metric name emits the # HELP / # TYPE header; later
// samples of the same name (other label sets) append beneath it, so calls
// for one name must be contiguous to produce a valid exposition.
type Prom struct {
	buf   bytes.Buffer
	typed map[string]string
}

// NewProm returns an empty exposition builder.
func NewProm() *Prom {
	return &Prom{typed: make(map[string]string)}
}

// Counter appends one sample of a monotonically increasing metric. By
// convention the name should end in _total.
func (p *Prom) Counter(name, help string, value float64, labels ...Label) {
	p.header(name, help, "counter")
	p.sample(name, labels, value)
}

// Gauge appends one sample of a point-in-time metric.
func (p *Prom) Gauge(name, help string, value float64, labels ...Label) {
	p.header(name, help, "gauge")
	p.sample(name, labels, value)
}

// Histogram renders a snapshot taken over metrics.HistBuckets as a native
// Prometheus histogram. The snapshot's bucket bounds are milliseconds; the
// exposition follows the Prometheus convention of seconds, so a 64 ms bound
// renders as le="0.064". Buckets are cumulative and always include the full
// fixed scheme plus le="+Inf", so scrapes are shape-stable even when empty.
func (p *Prom) Histogram(name, help string, s metrics.HistogramSnapshot, labels ...Label) {
	p.HistogramBounds(name, help, metrics.HistBuckets, s, labels...)
}

// HistogramBounds renders a histogram snapshot over an explicit
// millisecond bucket scheme (a snapshot pairs with the bounds its
// histogram was built over, e.g. metrics.AgeBuckets for the freshness
// histograms). Unit conversion and shape stability match Histogram.
func (p *Prom) HistogramBounds(name, help string, boundsMS []int64, s metrics.HistogramSnapshot, labels ...Label) {
	p.header(name, help, "histogram")
	var cum uint64
	for _, boundMS := range boundsMS {
		cum += s.Buckets[boundMS]
		p.sample(name+"_bucket", withLabel(labels, "le", formatFloat(float64(boundMS)/1000)), float64(cum))
	}
	cum += s.Buckets[-1] // the snapshot keys its overflow bucket as -1
	p.sample(name+"_bucket", withLabel(labels, "le", "+Inf"), float64(cum))
	p.sample(name+"_sum", labels, s.SumMS/1000)
	p.sample(name+"_count", labels, float64(s.Count))
}

// HistogramRaw renders a pre-aggregated histogram whose bounds are already
// in seconds. counts holds one entry per bound plus a trailing overflow
// bucket; sumS is the observation sum in seconds. The runtime self-metrics
// (GC pause histogram) use it because their source data never passes
// through a metrics.Histogram.
func (p *Prom) HistogramRaw(name, help string, boundsS []float64, counts []uint64, sumS float64, count uint64, labels ...Label) {
	p.header(name, help, "histogram")
	var cum uint64
	for i, bound := range boundsS {
		if i < len(counts) {
			cum += counts[i]
		}
		p.sample(name+"_bucket", withLabel(labels, "le", formatFloat(bound)), float64(cum))
	}
	if len(counts) > len(boundsS) {
		cum += counts[len(boundsS)]
	}
	p.sample(name+"_bucket", withLabel(labels, "le", "+Inf"), float64(cum))
	p.sample(name+"_sum", labels, sumS)
	p.sample(name+"_count", labels, float64(count))
}

// Bytes returns the exposition built so far.
func (p *Prom) Bytes() []byte { return p.buf.Bytes() }

// header writes # HELP and # TYPE once per metric name. A name re-used
// with a different type keeps its first registration: the exposition stays
// parseable and the mistake shows up in the lint test, not as a panic in
// the serving path.
func (p *Prom) header(name, help, typ string) {
	if _, ok := p.typed[name]; ok {
		return
	}
	p.typed[name] = typ
	p.buf.WriteString("# HELP ")
	p.buf.WriteString(name)
	p.buf.WriteByte(' ')
	p.buf.WriteString(escapeHelp(help))
	p.buf.WriteByte('\n')
	p.buf.WriteString("# TYPE ")
	p.buf.WriteString(name)
	p.buf.WriteByte(' ')
	p.buf.WriteString(typ)
	p.buf.WriteByte('\n')
}

// sample writes one `name{labels} value` line.
func (p *Prom) sample(name string, labels []Label, value float64) {
	p.buf.WriteString(name)
	if len(labels) > 0 {
		p.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.buf.WriteByte(',')
			}
			p.buf.WriteString(l.Name)
			p.buf.WriteString(`="`)
			p.buf.WriteString(escapeLabel(l.Value))
			p.buf.WriteByte('"')
		}
		p.buf.WriteByte('}')
	}
	p.buf.WriteByte(' ')
	p.buf.WriteString(formatFloat(value))
	p.buf.WriteByte('\n')
}

// withLabel appends one label without aliasing the caller's slice.
func withLabel(labels []Label, name, value string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Name: name, Value: value})
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip decimal, with the spellings +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(s)
}

// escapeHelp escapes a help string (quotes stay literal there).
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}
