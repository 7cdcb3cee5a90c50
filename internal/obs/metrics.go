package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics half of obs: a dependency-free Prometheus text-exposition
// registry. Two kinds of instrument coexist:
//
//   - native instruments (Counter, Gauge, Histogram, and their labelled
//     Vec forms) are atomics, cheap enough for per-request hot paths —
//     one atomic add per observation, no locks after child creation;
//   - samplers are scrape-time callbacks bridging counters that already
//     live elsewhere (the server's queue/cache/pstore/durable/spill/
//     shard stats) into declared metric families, so /metrics and
//     /v1/stats read the same underlying numbers by construction.
//
// The exposition is the Prometheus text format (version 0.0.4): HELP and
// TYPE lines per family, families sorted by name, series sorted by
// label signature.

// Label is one name/value pair on a metric series.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing native instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a native instrument that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a native instrument with fixed bucket bounds. Observe is
// one binary search plus two atomic adds — safe on request hot paths.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last = +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefDurationBuckets are the default request-latency bucket bounds in
// seconds, spanning sub-millisecond cache hits to multi-second
// discoveries.
var DefDurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe files one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind tags a family for the TYPE line.
type metricKind string

const (
	KindCounterFamily   metricKind = "counter"
	KindGaugeFamily     metricKind = "gauge"
	KindHistogramFamily metricKind = "histogram"
)

// series is one rendered line: name + label signature + value.
type series struct {
	labels  string // rendered {a="b",...} signature, "" for none
	value   float64
	integer bool
}

// family is one named metric family with its metadata and the closure
// that collects its current series.
type family struct {
	name    string
	help    string
	kind    metricKind
	collect func(emit func(labels []Label, value float64))
}

// Registry owns metric families and renders the text exposition. All
// registration methods panic on duplicate or invalid names —
// registration happens at server construction, where a conflict is a
// programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	samplers []func(emit EmitFunc)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) addFamily(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", f.name))
	}
	r.families[f.name] = f
	r.order = append(r.order, f.name)
}

// Counter registers and returns a native counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.addFamily(&family{name: name, help: help, kind: KindCounterFamily,
		collect: func(emit func([]Label, float64)) { emit(nil, float64(c.Value())) }})
	return c
}

// Gauge registers and returns a native gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.addFamily(&family{name: name, help: help, kind: KindGaugeFamily,
		collect: func(emit func([]Label, float64)) { emit(nil, float64(g.Value())) }})
	return g
}

// Histogram registers and returns a native histogram with the given
// ascending upper bucket bounds (+Inf implicit; nil = DefDurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.addFamily(&family{name: name, help: help, kind: KindHistogramFamily,
		collect: func(emit func([]Label, float64)) { emitHistogram(h, nil, emit) }})
	return h
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefDurationBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds not ascending")
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// emitHistogram renders a histogram's bucket/sum/count series through
// emit, with base labels prepended.
func emitHistogram(h *Histogram, base []Label, emit func([]Label, float64)) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		emit(append(append([]Label(nil), base...), Label{"le", formatBound(b)}), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	emit(append(append([]Label(nil), base...), Label{"le", "+Inf"}), float64(cum))
	emit(append([]Label{{Name: "__sum"}}, base...), h.Sum())
	emit(append([]Label{{Name: "__count"}}, base...), float64(cum))
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// vecState is the shared machinery of labelled instruments: children
// keyed by their label values, created on first use, read-locked on the
// hot path.
type vecState struct {
	labelNames []string
	mu         sync.RWMutex
	children   map[string][]Label // key -> label pairs (for rendering)
}

func newVecState(labelNames []string) *vecState {
	return &vecState{labelNames: labelNames, children: make(map[string][]Label)}
}

func (v *vecState) key(values []string) string {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: vec wants %d label values, got %d", len(v.labelNames), len(values)))
	}
	return strings.Join(values, "\x00")
}

func (v *vecState) labels(values []string) []Label {
	ls := make([]Label, len(values))
	for i, val := range values {
		ls[i] = Label{Name: v.labelNames[i], Value: val}
	}
	return ls
}

// CounterVec is a labelled counter family.
type CounterVec struct {
	*vecState
	counters map[string]*Counter
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	cv := &CounterVec{vecState: newVecState(labelNames), counters: make(map[string]*Counter)}
	r.addFamily(&family{name: name, help: help, kind: KindCounterFamily,
		collect: func(emit func([]Label, float64)) {
			cv.mu.RLock()
			defer cv.mu.RUnlock()
			for k, c := range cv.counters {
				emit(cv.children[k], float64(c.Value()))
			}
		}})
	return cv
}

// With returns the child counter for the given label values, creating
// it on first use.
func (cv *CounterVec) With(values ...string) *Counter {
	k := cv.key(values)
	cv.mu.RLock()
	c, ok := cv.counters[k]
	cv.mu.RUnlock()
	if ok {
		return c
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if c, ok = cv.counters[k]; ok {
		return c
	}
	c = &Counter{}
	cv.counters[k] = c
	cv.children[k] = cv.labels(values)
	return c
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct {
	*vecState
	bounds []float64
	hists  map[string]*Histogram
}

// HistogramVec registers a labelled histogram family (nil bounds =
// DefDurationBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefDurationBuckets
	}
	hv := &HistogramVec{vecState: newVecState(labelNames), bounds: bounds, hists: make(map[string]*Histogram)}
	r.addFamily(&family{name: name, help: help, kind: KindHistogramFamily,
		collect: func(emit func([]Label, float64)) {
			hv.mu.RLock()
			defer hv.mu.RUnlock()
			for k, h := range hv.hists {
				emitHistogram(h, hv.children[k], emit)
			}
		}})
	return hv
}

// With returns the child histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	k := hv.key(values)
	hv.mu.RLock()
	h, ok := hv.hists[k]
	hv.mu.RUnlock()
	if ok {
		return h
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	if h, ok = hv.hists[k]; ok {
		return h
	}
	h = newHistogram(hv.bounds)
	hv.hists[k] = h
	hv.children[k] = hv.labels(values)
	return h
}

// EmitFunc files one sampled series into its declared family.
type EmitFunc func(name string, labels []Label, value float64)

// DeclareSampled declares a family whose series are produced by
// samplers at scrape time — the bridge for counters owned elsewhere.
func (r *Registry) DeclareSampled(name, help string, kind metricKind) {
	r.addFamily(&family{name: name, help: help, kind: kind})
}

// Sampler registers a scrape-time callback. Each WriteText runs every
// sampler once; emitted series land in the family declared under their
// name (undeclared names panic — declare first, so HELP/TYPE metadata
// is never missing).
func (r *Registry) Sampler(fn func(emit EmitFunc)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers = append(r.samplers, fn)
}

// WriteText renders the full exposition in Prometheus text format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make(map[string]*family, len(r.families))
	for k, v := range r.families {
		fams[k] = v
	}
	samplers := append([]func(EmitFunc){}, r.samplers...)
	r.mu.Unlock()

	sampled := make(map[string][]series)
	for _, fn := range samplers {
		fn(func(name string, labels []Label, value float64) {
			f, ok := fams[name]
			if !ok {
				panic(fmt.Sprintf("obs: sampler emitted undeclared metric %q", name))
			}
			sampled[name] = append(sampled[name], renderSeries(f, name, labels, value)...)
		})
	}

	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		f := fams[name]
		var lines []series
		if f.collect != nil {
			f.collect(func(labels []Label, value float64) {
				lines = append(lines, renderSeries(f, name, labels, value)...)
			})
		}
		lines = append(lines, sampled[name]...)
		if len(lines) == 0 && f.collect == nil {
			continue // sampled family with nothing emitted this scrape
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		sort.SliceStable(lines, func(i, j int) bool { return lines[i].labels < lines[j].labels })
		for _, ln := range lines {
			b.WriteString(ln.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(ln.value, ln.integer))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// renderSeries expands one emitted (labels, value) into output lines.
// Histogram sub-series arrive tagged via pseudo-labels __sum/__count in
// position 0 (an internal contract of emitHistogram) and rename the
// family; everything else renders directly.
func renderSeries(f *family, name string, labels []Label, value float64) []series {
	suffix := ""
	if len(labels) > 0 && strings.HasPrefix(labels[0].Name, "__") {
		switch labels[0].Name {
		case "__sum":
			suffix = "_sum"
		case "__count":
			suffix = "_count"
		}
		labels = labels[1:]
	} else if f.kind == KindHistogramFamily {
		suffix = "_bucket"
	}
	integer := value == math.Trunc(value) && math.Abs(value) < 1e15
	return []series{{labels: name + suffix + renderLabels(labels), value: value, integer: integer}}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatValue(v float64, integer bool) string {
	if integer {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
