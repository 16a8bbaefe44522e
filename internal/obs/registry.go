package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric dimension, rendered as {key="value"}.
type Label struct {
	Key, Value string
}

// Kind distinguishes metric families for consumers that aggregate
// samples (log-line deltas treat counters and gauges differently).
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// child is one labeled metric of a family. Its family's kind picks the
// one reader that is set: cfn, gfn or hist. counter is the owned
// Counter behind cfn, kept so re-registration returns it.
type child struct {
	labels  string // pre-rendered {k="v",...} or ""
	counter *Counter
	cfn     func() uint64
	gfn     func() float64
	hist    *Histogram
}

// family is one metric name with its help text and labeled children.
type family struct {
	name, help string
	kind       Kind
	children   []*child
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration is idempotent: registering an
// existing name+labels pair returns the existing metric, so lazy
// call-site registration is safe. Families render in registration
// order; children in label order.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	byKey map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*family)}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + `="` + labelEscaper.Replace(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// register finds or creates the family and child slot and calls fill
// on the child under mu, so a concurrent walk never copies a child
// whose reader is not yet set. A fresh child has every reader nil.
func (r *Registry) register(name, help string, kind Kind, labels []Label, fill func(c *child)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byKey[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byKey[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", name, kind, f.kind))
	}
	ls := renderLabels(labels)
	for _, c := range f.children {
		if c.labels == ls {
			fill(c)
			return
		}
	}
	c := &child{labels: ls}
	fill(c)
	f.children = append(f.children, c)
	sort.Slice(f.children, func(i, j int) bool { return f.children[i].labels < f.children[j].labels })
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	var owned *Counter
	r.register(name, help, KindCounter, labels, func(c *child) {
		if c.cfn == nil {
			c.counter = &Counter{}
			c.cfn = c.counter.Value
		}
		if c.counter == nil {
			panic(fmt.Sprintf("obs: %s%s registered as a func counter", name, c.labels))
		}
		owned = c.counter
	})
	return owned
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the zero-hot-path-cost way to export an existing
// stats accessor. fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, KindCounter, labels, func(c *child) { c.counter, c.cfn = nil, fn })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindGauge, labels, func(c *child) { c.gfn = fn })
}

// Histogram registers (or finds) a histogram with the given inclusive
// upper bucket bounds; scale converts stored values to the rendered
// unit (1e-9 for nanosecond observations rendered as seconds, 1 for
// sizes).
func (r *Registry) Histogram(name, help string, bounds []uint64, scale float64, labels ...Label) *Histogram {
	var h *Histogram
	r.register(name, help, KindHistogram, labels, func(c *child) {
		if c.hist == nil {
			c.hist = newHistogram(bounds, scale)
		}
		h = c.hist
	})
	return h
}

// Unregister removes the metric with the given name and labels; when
// the family's last child goes, the family goes too. Dropping a
// namespace unregisters its per-namespace series this way. It returns
// whether anything was removed.
func (r *Registry) Unregister(name string, labels ...Label) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byKey[name]
	if f == nil {
		return false
	}
	ls := renderLabels(labels)
	for i, c := range f.children {
		if c.labels == ls {
			f.children = append(f.children[:i], f.children[i+1:]...)
			if len(f.children) == 0 {
				delete(r.byKey, name)
				for j, g := range r.fams {
					if g == f {
						r.fams = append(r.fams[:j], r.fams[j+1:]...)
						break
					}
				}
			}
			return true
		}
	}
	return false
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// walk calls visit for every family, in registration order, with
// copies of its children taken under mu: series may be registered,
// re-registered and unregistered concurrently. visit reads the values,
// outside the lock.
func (r *Registry) walk(visit func(f *family, children []child)) {
	type snap struct {
		f        *family
		children []child
	}
	r.mu.Lock()
	snaps := make([]snap, len(r.fams))
	for i, f := range r.fams {
		snaps[i] = snap{f, make([]child, len(f.children))}
		for j, c := range f.children {
			snaps[i].children[j] = *c
		}
	}
	r.mu.Unlock()
	for _, s := range snaps {
		visit(s.f, s.children)
	}
}

// WriteTo renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	r.walk(func(f *family, children []child) {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range children {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, c.labels, c.cfn())
			case KindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, c.labels, formatFloat(c.gfn()))
			case KindHistogram:
				writeHistogram(&b, f.name, c.labels, c.hist)
			}
		}
	})
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHistogram renders one histogram child: cumulative le buckets,
// +Inf, scaled _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	buckets, count, sum := h.snapshot()
	// Splice le="..." into the existing label set.
	inner := ""
	if labels != "" {
		inner = labels[1:len(labels)-1] + ","
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += buckets[i]
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n",
			name, inner, formatFloat(float64(bound)*h.scale), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, inner, count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(sum)*h.scale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, count)
}

// Render returns the full exposition as a byte slice (the STATS2 wire
// payload).
func (r *Registry) Render() []byte {
	var b strings.Builder
	r.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	return []byte(b.String())
}

// ServeHTTP serves the exposition (the /metrics endpoint).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteTo(w) //nolint:errcheck // nothing to do about a dead client
}

// Sample is one flattened metric value; histograms flatten to
// name_count and name_sum counter samples. The daemon's -stats-every
// log line is its only reader.
type Sample struct {
	Name   string
	Labels string
	Kind   string
	Value  float64
}

// Samples flattens the registry to one value per series, each the
// value WriteTo renders for it.
func (r *Registry) Samples() []Sample {
	var out []Sample
	r.walk(func(f *family, children []child) {
		for _, c := range children {
			switch f.kind {
			case KindCounter:
				out = append(out, Sample{f.name, c.labels, f.kind.String(), float64(c.cfn())})
			case KindGauge:
				out = append(out, Sample{f.name, c.labels, f.kind.String(), c.gfn()})
			case KindHistogram:
				_, count, sum := c.hist.snapshot()
				out = append(out,
					Sample{f.name + "_count", c.labels, "counter", float64(count)},
					Sample{f.name + "_sum", c.labels, "counter", float64(sum) * c.hist.scale})
			}
		}
	})
	return out
}
