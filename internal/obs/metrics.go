package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a minimal Prometheus-compatible metrics registry:
// counters, gauges (direct or callback-backed), and fixed-bucket
// histograms, all lock-free on the hot path (the registry lock is taken
// only at registration and exposition). Instruments are get-or-create,
// so package-level `var x = obs.Default().Counter(...)` registration is
// idempotent and the metric family exists (at zero) from process start
// — exactly what scrape-side absence alerts need.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, kind string
	bounds           []float64 // histograms only
	order            []string  // label-set keys in registration order
	insts            map[string]any
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type funcGauge struct {
	mu sync.Mutex
	fn func() float64
}

func (g *funcGauge) value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// Histogram is a fixed-bucket histogram. Buckets are upper bounds
// (Prometheus `le`), exposed cumulatively; observation is one atomic
// add and one CAS loop for the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveSeconds records a duration in seconds given nanoseconds — the
// common case for the stage histograms.
func (h *Histogram) ObserveSeconds(ns int64) {
	h.Observe(float64(ns) / 1e9)
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 {
	counts, _ := h.Cumulative()
	return counts[len(counts)-1]
}

// Cumulative returns the cumulative bucket counts — one per bound plus
// a final +Inf entry, which is therefore the observation count — and
// the sum of the observed values.
func (h *Histogram) Cumulative() (counts []uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	return counts, math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile as the upper bound of the bucket
// holding the nearest-rank observation, ceil(q·n) — the conservative
// convention Prometheus uses without interpolation. An observation in
// the +Inf bucket reports twice the last bound (a finite stand-in that
// JSON can carry); an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	counts, _ := h.Cumulative()
	total := counts[len(counts)-1]
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	for i, b := range h.bounds {
		if counts[i] >= rank {
			return b
		}
	}
	return h.bounds[len(h.bounds)-1] * 2
}

// DurationBuckets are the shared bounds (seconds) for every stage
// duration histogram: 100µs to 10s, roughly logarithmic.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that GET /metrics exposes.
func Default() *Registry { return defaultRegistry }

// NewRegistry returns an empty registry (tests use private ones).
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders a label list (k1, v1, k2, v2, ...) into the
// exposition-format label body, e.g. `stage="plan"`.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) instrument(name, help, kind string, bounds []float64, labels []string, mk func() any) any {
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs: " + name)
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, insts: make(map[string]any)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: %s already registered as %s, requested %s", name, f.kind, kind))
	}
	in, ok := f.insts[key]
	if !ok {
		in = mk()
		f.insts[key] = in
		f.order = append(f.order, key)
	}
	return in
}

// Counter returns (registering if needed) the counter name{labels...}.
// Labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.instrument(name, help, "counter", nil, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (registering if needed) the gauge name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.instrument(name, help, "gauge", nil, labels, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers (or re-points) a callback-backed gauge, evaluated
// at exposition time. Re-registering replaces the callback, so a
// restarted server in tests does not leave a stale closure behind.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	g := r.instrument(name, help, "gauge", nil, labels, func() any { return &funcGauge{} }).(*funcGauge)
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Histogram returns (registering if needed) the histogram
// name{labels...} with the given upper bounds (must be sorted
// ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.instrument(name, help, "histogram", bounds, labels, func() any {
		return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}).(*Histogram)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, instruments in
// registration order, histograms with cumulative buckets, _sum and
// _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, key := range f.order {
			switch in := f.insts[key].(type) {
			case *Counter:
				writeSample(w, f.name, key, "", formatUint(in.Value()))
			case *Gauge:
				writeSample(w, f.name, key, "", strconv.FormatInt(in.Value(), 10))
			case *funcGauge:
				writeSample(w, f.name, key, "", formatFloat(in.value()))
			case *Histogram:
				counts, sum := in.Cumulative()
				for i, b := range in.bounds {
					writeSample(w, f.name+"_bucket", key, `le="`+formatFloat(b)+`"`, formatUint(counts[i]))
				}
				total := formatUint(counts[len(in.bounds)])
				writeSample(w, f.name+"_bucket", key, `le="+Inf"`, total)
				writeSample(w, f.name+"_sum", key, "", formatFloat(sum))
				writeSample(w, f.name+"_count", key, "", total)
			}
		}
	}
}

func writeSample(w io.Writer, name, labels, extra, val string) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %s\n", name, val)
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, extra, val)
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, val)
	default:
		fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, val)
	}
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
