// Package metrics is a minimal Prometheus-style metrics registry: counters,
// gauges and histograms with text exposition over HTTP. It stands in for
// the paper's Prometheus/Grafana monitoring stack — the
// HammerHead production rollout leaned heavily on continuous monitoring of
// reputation scores, and hammerhead-node exposes the same signals.
package metrics

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an arbitrary instantaneous value. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations in fixed upper-bound buckets (cumulative on
// exposition, like Prometheus). Safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []atomic.Uint64
	sum    atomic.Uint64 // scaled by 1e6 to keep integer atomics
	total  atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	return &Histogram{
		bounds: sorted,
		counts: make([]atomic.Uint64, len(sorted)+1), // +inf bucket
	}
}

// Observe records a sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.total.Add(1)
	if v > 0 {
		h.sum.Add(uint64(v * 1e6))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e6 }

// Quantile returns an upper-bound estimate of the q-quantile (0..1) from
// bucket boundaries; the top bucket returns +inf as its bound, reported as
// the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one name="value" pair attached to a metric series. Labeled
// lookups replace the old habit of minting per-entity series by string
// concatenation (`name_validator_3`): the same base name carries every
// series, and exposition renders proper Prometheus label syntax.
type Label struct {
	Name  string
	Value string
}

// labelString renders labels canonically (sorted by name) WITHOUT braces:
// `a="1",b="x"`. Empty for no labels. The canonical form is the series
// identity, so {a,b} and {b,a} hit the same metric.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	return b.String()
}

// seriesKey is a series' unique registry key: base name plus canonical
// label string.
func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// entry ties one series to its base name and rendered labels so Render can
// group `# TYPE` lines per base name and merge labels with histogram
// suffixes.
type entry[M any] struct {
	base   string
	labels string
	m      M
}

// Registry names and exposes metrics. The zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*entry[*Counter]
	gauges     map[string]*entry[*Gauge]
	histograms map[string]*entry[*Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	return r.LabeledCounter(name)
}

// LabeledCounter returns (creating on first use) the counter series for
// name plus labels. Label order does not matter.
func (r *Registry) LabeledCounter(name string, labels ...Label) *Counter {
	ls := labelString(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*entry[*Counter])
	}
	e, ok := r.counters[key]
	if !ok {
		e = &entry[*Counter]{base: name, labels: ls, m: &Counter{}}
		r.counters[key] = e
	}
	return e.m
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return r.LabeledGauge(name)
}

// LabeledGauge returns (creating on first use) the gauge series for name
// plus labels.
func (r *Registry) LabeledGauge(name string, labels ...Label) *Gauge {
	ls := labelString(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*entry[*Gauge])
	}
	e, ok := r.gauges[key]
	if !ok {
		e = &entry[*Gauge]{base: name, labels: ls, m: &Gauge{}}
		r.gauges[key] = e
	}
	return e.m
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.LabeledHistogram(name, bounds)
}

// LabeledHistogram returns (creating on first use) the histogram series for
// name plus labels. Bounds only apply on first creation.
func (r *Registry) LabeledHistogram(name string, bounds []float64, labels ...Label) *Histogram {
	ls := labelString(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*entry[*Histogram])
	}
	e, ok := r.histograms[key]
	if !ok {
		e = &entry[*Histogram]{base: name, labels: ls, m: NewHistogram(bounds)}
		r.histograms[key] = e
	}
	return e.m
}

// sortedEntries returns m's entries ordered by (base, labels) so labeled
// series of one base name group under a single `# TYPE` line.
func sortedEntries[M any](m map[string]*entry[M]) []*entry[M] {
	out := make([]*entry[M], 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// renderName emits `base{labels}` (or bare `base`), with extra merged into
// the label set (histogram `le` bounds).
func renderName(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

// Render writes the Prometheus text exposition of all metrics, sorted by
// name for stable output.
func (r *Registry) Render() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder

	lastType := ""
	for _, e := range sortedEntries(r.counters) {
		if e.base != lastType {
			fmt.Fprintf(&b, "# TYPE %s counter\n", e.base)
			lastType = e.base
		}
		fmt.Fprintf(&b, "%s %d\n", renderName(e.base, e.labels, ""), e.m.Value())
	}

	lastType = ""
	for _, e := range sortedEntries(r.gauges) {
		if e.base != lastType {
			fmt.Fprintf(&b, "# TYPE %s gauge\n", e.base)
			lastType = e.base
		}
		fmt.Fprintf(&b, "%s %d\n", renderName(e.base, e.labels, ""), e.m.Value())
	}

	lastType = ""
	for _, e := range sortedEntries(r.histograms) {
		h := e.m
		if e.base != lastType {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", e.base)
			lastType = e.base
		}
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(&b, "%s %d\n", renderName(e.base+"_bucket", e.labels, fmt.Sprintf("le=%q", trimFloat(bound))), cum)
		}
		fmt.Fprintf(&b, "%s %d\n", renderName(e.base+"_bucket", e.labels, `le="+Inf"`), h.Count())
		fmt.Fprintf(&b, "%s %g\n", renderName(e.base+"_sum", e.labels, ""), h.Sum())
		fmt.Fprintf(&b, "%s %d\n", renderName(e.base+"_count", e.labels, ""), h.Count())
	}
	return b.String()
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", f), "0"), ".")
}

// ServeHTTP implements http.Handler with the text exposition, so a registry
// can be mounted directly at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(r.Render()))
}
