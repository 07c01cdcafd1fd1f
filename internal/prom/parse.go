package prom

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Family is one metric family of an exposition.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Sample is one series line. A histogram's samples keep their
// _bucket/_sum/_count suffix in Name; Labels is the text between the
// braces, verbatim ("" when the series has none).
type Sample struct {
	Name, Labels string
	Value        float64
}

// Label returns the named label's value. Values are split at commas
// and not unescaped: enough for the numeric le bounds it is used for.
func (s Sample) Label(name string) (string, bool) {
	for _, pair := range strings.Split(s.Labels, ",") {
		if k, v, ok := strings.Cut(pair, "="); ok && strings.TrimSpace(k) == name {
			return strings.Trim(strings.TrimSpace(v), `"`), true
		}
	}
	return "", false
}

// Sum adds up the values of every sample named name, across label sets
// and families (0 when there is none).
func Sum(fams []Family, name string) float64 {
	var sum float64
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name {
				sum += s.Value
			}
		}
	}
	return sum
}

// Parse decodes an exposition into its families, in order of each
// family's first line. A sample belongs to the family of its own name
// when a HELP or TYPE line declares one; a _bucket, _sum or _count
// sample otherwise belongs to the histogram family its TYPE line
// declares. Ownership depends only on the declarations, not on where
// they sit, so Family output parses back to the same families. Lines
// that do not parse are skipped: scrapes are best effort. A family's
// first HELP and TYPE lines win.
func Parse(r io.Reader) ([]Family, error) {
	type line struct {
		family string // a HELP/TYPE line's family; "" for a sample
		sample Sample
	}
	declared := make(map[string]*Family)
	var lines []line
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if f := strings.SplitN(text, " ", 4); len(f) == 4 && f[0] == "#" && (f[1] == "HELP" || f[1] == "TYPE") && f[2] != "" {
			d := declared[f[2]]
			if d == nil {
				d = &Family{Name: f[2]}
				declared[f[2]] = d
			}
			if f[1] == "HELP" && d.Help == "" {
				d.Help = f[3]
			} else if f[1] == "TYPE" && d.Type == "" {
				d.Type = f[3]
			}
			lines = append(lines, line{family: f[2]})
		} else if s, ok := parseSample(text); ok {
			lines = append(lines, line{sample: s})
		}
	}

	var fams []Family
	index := make(map[string]int)
	for _, l := range lines {
		name := l.family
		if name == "" {
			name = l.sample.Name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base, ok := strings.CutSuffix(name, suffix)
				if d := declared[base]; ok && declared[name] == nil && d != nil && d.Type == "histogram" {
					name = base
					break
				}
			}
		}
		i, ok := index[name]
		if !ok {
			i, index[name] = len(fams), len(fams)
			f := Family{Name: name}
			if d := declared[name]; d != nil {
				f = *d
			}
			fams = append(fams, f)
		}
		if l.family == "" {
			fams[i].Samples = append(fams[i].Samples, l.sample)
		}
	}
	return fams, sc.Err()
}

// parseSample decodes `name{labels} value` or `name value`: the value
// is the text after the last space.
func parseSample(line string) (Sample, bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 || line[0] == '#' {
		return Sample{}, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return Sample{}, false
	}
	s := Sample{Name: strings.TrimSpace(line[:sp]), Value: v}
	if i := strings.IndexByte(s.Name, '{'); i >= 0 {
		if !strings.HasSuffix(s.Name, "}") {
			return Sample{}, false
		}
		s.Name, s.Labels = strings.TrimSpace(s.Name[:i]), s.Name[i+1:len(s.Name)-1]
	}
	return s, s.Name != ""
}
