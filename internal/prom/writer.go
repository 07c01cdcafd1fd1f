// Package prom is the one place the repository writes and reads the
// Prometheus text exposition format (version 0.0.4): Writer renders the
// families parsecd, parsecrouter and parsecload expose, Parse decodes a
// scrape into families for the router's fleet aggregation, parsecload
// and benchfleet, and Histogram is the fixed-bucket histogram they
// share. Stdlib only.
package prom

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Writer renders exposition lines. Write errors are dropped: a scrape
// is best effort, and the scraper's connection reports its own failure.
type Writer struct{ w io.Writer }

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Header writes a family's "# HELP" and "# TYPE" lines, each only when
// its text is non-empty.
func (w *Writer) Header(name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w.w, "# HELP %s %s\n", name, help)
	}
	if typ != "" {
		fmt.Fprintf(w.w, "# TYPE %s %s\n", name, typ)
	}
}

// Counter writes a one-series counter family.
func (w *Writer) Counter(name, help string, v uint64) {
	w.Header(name, help, "counter")
	w.Uint(name, v)
}

// Gauge writes a one-series gauge family with its value to three
// decimals.
func (w *Writer) Gauge(name, help string, v float64) {
	w.Header(name, help, "gauge")
	fmt.Fprintf(w.w, "%s %.3f\n", name, v)
}

// Uint writes one integer sample; labels are name, value pairs.
func (w *Writer) Uint(name string, v uint64, labels ...string) {
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i] + "=" + strconv.Quote(labels[i+1]))
	}
	w.sample(name, b.String(), strconv.FormatUint(v, 10))
}

// Histogram writes h as a histogram family: the cumulative buckets in
// ascending bound order with +Inf last, then _sum and _count.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	bounds, cum, sum, count := h.snapshot()
	w.Header(name, help, "histogram")
	for i, b := range bounds {
		w.Uint(name+"_bucket", cum[i], "le", formatBound(b))
	}
	w.Uint(name+"_bucket", cum[len(cum)-1], "le", "+Inf")
	w.sample(name+"_sum", "", formatBound(sum))
	w.Uint(name+"_count", count)
}

// Family writes f's header and then its samples in order, each value
// in the shortest form that parses back to the same float64.
func (w *Writer) Family(f *Family) {
	w.Header(f.Name, f.Help, f.Type)
	for _, s := range f.Samples {
		w.sample(s.Name, s.Labels, strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
}

func (w *Writer) sample(name, labels, value string) {
	if labels != "" {
		fmt.Fprintf(w.w, "%s{%s} %s\n", name, labels, value)
		return
	}
	fmt.Fprintf(w.w, "%s %s\n", name, value)
}
