package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) over the registry,
// so any standard scraper can consume Nepal's metrics without an
// adapter. The registry's dotted names ("server.request_latency_ms")
// sanitize to underscore form ("server_request_latency_ms"); histograms
// emit the conventional cumulative _bucket{le="..."} series plus _sum
// and _count; info metrics emit a constant-1 gauge with labels.

// PrometheusContentType is the Content-Type of the exposition format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes a registry metric name into a valid Prometheus
// metric name: every character outside [a-zA-Z0-9_:] becomes '_'.
func PromName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// PromEscape escapes a label value (or HELP text) per the exposition
// format.
func PromEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promFloat renders a sample value; Prometheus accepts Go's shortest
// round-trippable float form.
func promFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// writeHeader emits the # HELP and # TYPE lines of one metric family.
// Help falls back to the original registry name, which documents at
// least the pre-sanitization spelling.
func (r *Registry) writeHeader(w io.Writer, name, pname, typ string) {
	help := r.helpFor(name)
	if help == "" {
		help = name
	}
	fmt.Fprintf(w, "# HELP %s %s\n", pname, PromEscape(help))
	fmt.Fprintf(w, "# TYPE %s %s\n", pname, typ)
}

// WritePrometheus writes every metric of the registry to w in the
// Prometheus text exposition format, families sorted by name. Safe on a
// nil registry (writes nothing).
func WritePrometheus(w io.Writer, r *Registry) {
	if r == nil {
		return
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	infos := make(map[string]map[string]string, len(r.infos))
	for k, v := range r.infos {
		infos[k] = v
	}
	r.mu.RUnlock()

	for _, name := range sortedKeys(counters) {
		pname := PromName(name)
		r.writeHeader(w, name, pname, "counter")
		fmt.Fprintf(w, "%s %d\n", pname, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		pname := PromName(name)
		r.writeHeader(w, name, pname, "gauge")
		fmt.Fprintf(w, "%s %d\n", pname, gauges[name].Value())
	}
	for _, name := range sortedKeys(funcs) {
		pname := PromName(name)
		r.writeHeader(w, name, pname, "gauge")
		fmt.Fprintf(w, "%s %s\n", pname, promFloat(funcs[name]()))
	}
	for _, name := range sortedKeys(infos) {
		pname := PromName(name)
		r.writeHeader(w, name, pname, "gauge")
		labels := infos[name]
		pairs := make([]string, 0, len(labels))
		for _, k := range sortedKeys(labels) {
			pairs = append(pairs, fmt.Sprintf("%s=%q", PromName(k), PromEscape(labels[k])))
		}
		fmt.Fprintf(w, "%s{%s} 1\n", pname, strings.Join(pairs, ","))
	}
	for _, name := range sortedKeys(hists) {
		pname := PromName(name)
		r.writeHeader(w, name, pname, "histogram")
		snap := hists[name].Snapshot()
		for _, b := range snap.Buckets {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pname, promFloat(b.UpperBound), b.CumulativeCount)
		}
		fmt.Fprintf(w, "%s_sum %s\n", pname, promFloat(snap.Sum))
		fmt.Fprintf(w, "%s_count %d\n", pname, snap.Count)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
