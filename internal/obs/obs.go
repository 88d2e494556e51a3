// Package obs is the repository's stdlib-only observability core: the
// metric instruments (lock-free sharded counters, gauges, fixed-bucket
// atomic histograms), a registry that renders them in Prometheus text
// exposition format, a structured JSON access/event logger built on
// log/slog, and a lightweight per-request trace context carrying a
// request ID and per-stage timings through context.Context.
//
// The design constraints, in priority order:
//
//  1. The serving hot path must stay allocation-free with
//     instrumentation enabled — every instrument method is a handful of
//     atomic operations, no locks, no maps, no interface boxing. The
//     zero-alloc guard tests in this package and in internal/serve pin
//     this.
//  2. No dependencies beyond the standard library. The exposition
//     format is the stable subset of the Prometheus text format
//     (version 0.0.4), so any off-the-shelf scraper can consume
//     /metrics, but nothing here imports one.
//  3. Registration is explicit and panics on programmer error
//     (duplicate series, malformed names), exactly like http.ServeMux;
//     collection is lock-free reads of the live instruments.
//
// Naming conventions (DESIGN.md §10): every family is prefixed
// `psl_<subsystem>_`, counters end in `_total`, durations are histograms
// in seconds ending `_duration_seconds`, and free-running gauges name
// their unit (`_bytes`, `_entries`, `_seconds`, `_ratio`). Labels are
// few and low-cardinality: `result` (hit|miss|error), `matcher`
// (packed|map|trie|sorted|linear), `section`, never raw hostnames.
package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels is an ordered list of label name/value pairs attached to one
// series. Order is preserved in the exposition output; names must be
// valid Prometheus label names and unique within one Labels.
type Labels [][2]string

// String renders the label set in exposition syntax, without braces:
// `stage="risk",outcome="pass"`. Empty Labels render as "".
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escaping rules for
// label values: backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// CounterFunc is a counter whose value is computed at scrape time, for
// monotone values that already live elsewhere (for example a swap
// generation held in an atomic the serving path owns).
type CounterFunc func() float64

// GaugeFunc is a gauge computed at scrape time, for values derived from
// live state (queue depth, cache occupancy, snapshot age).
type GaugeFunc func() float64

// series is one labelled instrument inside a family.
type series struct {
	labels Labels
	key    string // canonical label rendering, for duplicate detection
	inst   any    // *Counter | *Gauge | *FloatGauge | *Histogram | CounterFunc | GaugeFunc
}

// family groups every series sharing one metric name; the exposition
// format requires them contiguous under a single HELP/TYPE header.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge" or "histogram"
	series []series
}

// Registry holds registered metric families and renders them in
// Prometheus text exposition format. The zero value is not usable; call
// NewRegistry. Registration takes a lock; rendering takes the same lock
// only to snapshot the family list, then reads instruments atomically.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// instrumentType maps an instrument to its exposition TYPE.
func instrumentType(inst any) (string, error) {
	switch inst.(type) {
	case *Counter, CounterFunc:
		return "counter", nil
	case *Gauge, *FloatGauge, GaugeFunc:
		return "gauge", nil
	case *Histogram:
		return "histogram", nil
	default:
		return "", fmt.Errorf("obs: unsupported instrument type %T", inst)
	}
}

// MustRegister attaches an instrument to the registry as one series of
// the named family, creating the family on first use. The instrument
// must be a *Counter, *Gauge, *FloatGauge, *Histogram, CounterFunc or
// GaugeFunc. It panics on invalid names, on a type or help mismatch
// with an existing family, or on a duplicate label set — all
// programmer errors, caught at startup.
func (r *Registry) MustRegister(name, help string, labels Labels, inst any) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if !validLabelName(l[0]) {
			panic(fmt.Sprintf("obs: invalid label name %q in %s", l[0], name))
		}
		if seen[l[0]] {
			panic(fmt.Sprintf("obs: duplicate label %q in %s", l[0], name))
		}
		seen[l[0]] = true
	}
	typ, err := instrumentType(inst)
	if err != nil {
		panic(err.Error())
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: %s registered as %s, then as %s", name, f.typ, typ))
		}
	}
	key := labels.String()
	for _, s := range f.series {
		if s.key == key {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, key))
		}
	}
	f.series = append(f.series, series{labels: labels, key: key, inst: inst})
}

// snapshotFamilies copies the family list under the lock so rendering
// can proceed without holding it (instrument reads are atomic).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	copy(out, r.families)
	return out
}

// WritePrometheus renders every registered family in text exposition
// format. Families appear in registration order; series within a family
// in registration order; histogram series expand into their
// _bucket/_sum/_count lines.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	for _, f := range r.snapshotFamilies() {
		w.WriteString("# HELP ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(escapeHelp(f.help))
		w.WriteByte('\n')
		w.WriteString("# TYPE ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(f.typ)
		w.WriteByte('\n')
		for _, s := range f.series {
			writeSeries(w, f.name, s)
		}
	}
}

// escapeHelp applies the exposition escaping rules for HELP text.
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// writeSample emits one `name{labels} value` line.
func writeSample(w *strings.Builder, name, labels, value string) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSeries renders one series, expanding histograms.
func writeSeries(w *strings.Builder, name string, s series) {
	switch inst := s.inst.(type) {
	case *Counter:
		writeSample(w, name, s.key, strconv.FormatUint(inst.Load(), 10))
	case *Gauge:
		writeSample(w, name, s.key, strconv.FormatInt(inst.Load(), 10))
	case *FloatGauge:
		writeSample(w, name, s.key, formatFloat(inst.Load()))
	case CounterFunc:
		writeSample(w, name, s.key, formatFloat(inst()))
	case GaugeFunc:
		writeSample(w, name, s.key, formatFloat(inst()))
	case *Histogram:
		// Read bucket counts cumulatively; the total is read last so a
		// concurrent Observe can only make count >= the +Inf bucket of
		// this snapshot, never less.
		cum := uint64(0)
		for i, ub := range inst.bounds {
			cum += inst.counts[i].Load()
			writeSample(w, name+"_bucket", joinLabels(s.key, `le="`+formatFloat(ub)+`"`), strconv.FormatUint(cum, 10))
		}
		cum += inst.counts[len(inst.bounds)].Load()
		writeSample(w, name+"_bucket", joinLabels(s.key, `le="+Inf"`), strconv.FormatUint(cum, 10))
		writeSample(w, name+"_sum", s.key, formatFloat(inst.Sum().Seconds()))
		writeSample(w, name+"_count", s.key, strconv.FormatUint(cum, 10))
	}
}

// joinLabels appends the `le` pair to an existing rendered label set.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// Render returns the full exposition document as a string.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// ContentType is the Content-Type of the exposition format served by
// Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry in text
// exposition format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write([]byte(r.Render()))
	})
}

// Families returns the registered family names, sorted — handy for
// tests asserting coverage.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f.name)
	}
	sort.Strings(out)
	return out
}

// validMetricName reports whether name matches the exposition grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
