package prom

import (
	"reflect"
	"strings"
	"testing"
)

func TestWriterFormats(t *testing.T) {
	h := NewHistogram(0.5, 2)
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(1)
	h.Observe(7.125)
	var b strings.Builder
	p := NewWriter(&b)
	p.Counter("a_total", "things done", 42)
	p.Header("b_total", "things by kind", "counter")
	p.Uint("b_total", 7, "kind", `say "hi"`, "shard", "s0")
	p.Header("c", "", "untyped")
	p.Histogram("lat_seconds", "latency", h)
	p.Gauge("up_seconds", "uptime", 12.5)
	p.Family(&Family{Name: "d", Samples: []Sample{{Name: "d", Labels: `x="1"`, Value: 1234567}, {Name: "d", Value: 0.1}}})
	want := `# HELP a_total things done
# TYPE a_total counter
a_total 42
# HELP b_total things by kind
# TYPE b_total counter
b_total{kind="say \"hi\"",shard="s0"} 7
# TYPE c untyped
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="2"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 9.375
lat_seconds_count 4
# HELP up_seconds uptime
# TYPE up_seconds gauge
up_seconds 12.500
d{x="1"} 1.234567e+06
d 0.1
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	if m := h.Mean(); m != 2.34375 {
		t.Errorf("Mean = %g", m)
	}
}

func TestParseFilesHistogramSamplesUnderTheirFamily(t *testing.T) {
	text := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 9.5
lat_seconds_count 4
# comment
req_total{code="200"} 3
req_total{code="404"} 1
# TYPE req_total counter
other_bucket{le="1"} 2
garbage line x
{le="1"} 3
broken{le="1" 3
`
	fams, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []Family{
		{Name: "lat_seconds", Help: "latency", Type: "histogram", Samples: []Sample{
			{Name: "lat_seconds_bucket", Labels: `le="0.5"`, Value: 1},
			{Name: "lat_seconds_bucket", Labels: `le="+Inf"`, Value: 4},
			{Name: "lat_seconds_sum", Value: 9.5},
			{Name: "lat_seconds_count", Value: 4},
		}},
		{Name: "req_total", Type: "counter", Samples: []Sample{
			{Name: "req_total", Labels: `code="200"`, Value: 3},
			{Name: "req_total", Labels: `code="404"`, Value: 1},
		}},
		// A _bucket series with no histogram declaration is its own family.
		{Name: "other_bucket", Samples: []Sample{{Name: "other_bucket", Labels: `le="1"`, Value: 2}}},
	}
	if !reflect.DeepEqual(fams, want) {
		t.Errorf("Parse:\n got %+v\nwant %+v", fams, want)
	}
	if got := Sum(fams, "req_total"); got != 4 {
		t.Errorf("Sum(req_total) = %g, want 4", got)
	}
	if got := Sum(fams, "missing"); got != 0 {
		t.Errorf("Sum(missing) = %g, want 0", got)
	}
}

func TestSampleLabel(t *testing.T) {
	s := Sample{Labels: `a="x", b = "y" ,le="+Inf"`}
	for name, want := range map[string]string{"a": "x", "b": "y", "le": "+Inf"} {
		if got, ok := s.Label(name); !ok || got != want {
			t.Errorf("Label(%q) = %q,%v want %q", name, got, ok, want)
		}
	}
	if _, ok := s.Label("c"); ok {
		t.Error("Label(c) found a label that is not there")
	}
}
