// Package metrics is a small, dependency-free metrics registry with
// Prometheus text exposition (version 0.0.4). It exists so the store,
// query engine, WAL and replication layers can export runtime counters
// without pulling a client library into the module: counters are atomic
// int64s, gauges sample callbacks, histograms use fixed buckets, and
// exposition is deterministic — collectors render in registration order,
// labeled children in sorted label order — so scrapes diff cleanly.
//
// Two kinds of registries cooperate:
//
//   - the process-wide Default registry holds event counters owned by
//     the subsystems themselves (WAL appends, plan-cache hits, tx
//     commits). Registration is idempotent by name, so package-level
//     metric vars are safe across tests.
//   - per-instance registries (e.g. one per server) hold gauge
//     functions closed over a specific store or replicator, so two
//     nodes in one process (a leader and a follower under test) never
//     fight over one gauge.
//
// An HTTP /metrics endpoint writes both.
package metrics

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

// collector is one named metric family that can render itself.
type collector interface {
	metricName() string
	write(w io.Writer)
}

// Registry holds collectors in registration order.
type Registry struct {
	mu     sync.Mutex
	order  []collector
	byName map[string]collector
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]collector{}}
}

// std is the process-wide default registry.
var std = NewRegistry()

// register adds c under its name. Re-registering a name returns the
// existing collector when its concrete type matches (idempotent — the
// pattern package-level metric vars rely on) and panics on a type
// clash, which is always a programming error worth failing loudly on.
func (r *Registry) register(c collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[c.metricName()]; ok {
		if fmt.Sprintf("%T", prev) != fmt.Sprintf("%T", c) {
			panic(fmt.Sprintf("metrics: %s re-registered as a different type (%T vs %T)", c.metricName(), c, prev))
		}
		return prev
	}
	r.byName[c.metricName()] = c
	r.order = append(r.order, c)
	return c
}

// Render renders every collector in registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	order := make([]collector, len(r.order))
	copy(order, r.order)
	r.mu.Unlock()
	for _, c := range order {
		c.write(w)
	}
}

// String renders the registry as one exposition document.
func (r *Registry) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// Render renders the process-wide default registry.
func Render(w io.Writer) { std.Render(w) }

// String renders the process-wide default registry as one document.
func String() string { return std.String() }

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for aligned name/value slices.
func labelString(names, vals []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// --- counter ---

// Counter is a monotonically increasing integer.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers a counter on reg.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(&Counter{name: name, help: help}).(*Counter)
}

// NewCounter registers a counter on the default registry.
func NewCounter(name, help string) *Counter { return std.NewCounter(name, help) }

func (c *Counter) metricName() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// --- gauge func ---

// gaugeFunc samples a callback at scrape time — the shape instance
// state (store sizes, replication lag) exports through.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a callback-backed gauge on reg.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		// Re-wiring an instance gauge (a test rebuilding its server)
		// replaces the sampled closure in place.
		if g, ok := prev.(*gaugeFunc); ok {
			g.fn = fn
			return
		}
		panic(fmt.Sprintf("metrics: %s re-registered as a different type", name))
	}
	g := &gaugeFunc{name: name, help: help, fn: fn}
	r.byName[name] = g
	r.order = append(r.order, g)
}

func (g *gaugeFunc) metricName() string { return g.name }

func (g *gaugeFunc) write(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, fmtFloat(g.fn()))
}

// --- histogram ---

// DurationBuckets are the fixed latency buckets (seconds) used across
// the query and checkpoint histograms.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets are the fixed size buckets (rows, records) used by the
// volume histograms.
var CountBuckets = []float64{0, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 100000}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	name, help string
	labelNames []string // nil for a bare histogram
	labelVals  []string
	uppers     []float64
	counts     []atomic.Int64 // one per upper, non-cumulative
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(name, help string, uppers []float64) *Histogram {
	h := &Histogram{name: name, help: help, uppers: uppers}
	h.counts = make([]atomic.Int64, len(uppers))
	return h
}

// NewHistogram registers an unlabeled fixed-bucket histogram on reg.
// Buckets must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.register(newHistogram(name, help, buckets)).(*Histogram)
}

// NewHistogram registers a histogram on the default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return std.NewHistogram(name, help, buckets)
}

func (h *Histogram) metricName() string { return h.name }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, up := range h.uppers {
		if v <= up {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
}

func (h *Histogram) write(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	h.writeSamples(w)
}

// writeSamples renders bucket/sum/count lines, honoring the child's
// label pairs when set.
func (h *Histogram) writeSamples(w io.Writer) {
	cum := int64(0)
	for i, up := range h.uppers {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, h.leLabels(fmtFloat(up)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, h.leLabels("+Inf"), h.count.Load())
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, h.bareLabels(), fmtFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.bareLabels(), h.count.Load())
}

func (h *Histogram) leLabels(le string) string {
	return labelString(append(append([]string{}, h.labelNames...), "le"),
		append(append([]string{}, h.labelVals...), le))
}

func (h *Histogram) bareLabels() string {
	if len(h.labelNames) == 0 {
		return ""
	}
	return labelString(h.labelNames, h.labelVals)
}

// --- labeled vectors ---

// HistogramVec is a family of fixed-bucket histograms keyed by label
// values.
type HistogramVec struct {
	name, help string
	labels     []string
	buckets    []float64
	mu         sync.Mutex
	children   map[string]*Histogram
}

// NewHistogramVec registers a labeled histogram family on reg.
func (r *Registry) NewHistogramVec(name, help string, labels []string, buckets []float64) *HistogramVec {
	return r.register(&HistogramVec{name: name, help: help, labels: labels,
		buckets: buckets, children: map[string]*Histogram{}}).(*HistogramVec)
}

// NewHistogramVec registers a labeled histogram family on the default
// registry.
func NewHistogramVec(name, help string, labels []string, buckets []float64) *HistogramVec {
	return std.NewHistogramVec(name, help, labels, buckets)
}

func (v *HistogramVec) metricName() string { return v.name }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	key := strings.Join(vals, "\x00")
	h, ok := v.children[key]
	if !ok {
		h = newHistogram(v.name, v.help, v.buckets)
		h.labelNames = v.labels
		h.labelVals = append([]string{}, vals...)
		v.children[key] = h
	}
	return h
}

func (v *HistogramVec) write(w io.Writer) {
	header(w, v.name, v.help, "histogram")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*Histogram, len(keys))
	for i, k := range keys {
		kids[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, h := range kids {
		h.writeSamples(w)
	}
}
