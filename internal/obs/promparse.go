package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricPoint is one parsed sample line.
type MetricPoint struct {
	Name   string            // full sample name, e.g. "cocoa_sim_windows_total" or "x_bucket"
	Labels map[string]string // parsed label set, nil when none
	Value  float64
	Line   int // 1-based source line, for error reporting
}

// MetricFamily groups the samples belonging to one # TYPE declaration.
type MetricFamily struct {
	Name   string // family name as declared, e.g. "x" for histogram "x"
	Type   string // counter | gauge | histogram | summary | untyped
	Help   string
	Points []MetricPoint
}

// Exposition is a parsed /metrics payload.
type Exposition struct {
	Families map[string]*MetricFamily
	Order    []string // family names in declaration order
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// sampleFamily maps a sample name to the family it belongs to given the
// declared family names: histogram/summary samples carry the
// _bucket/_sum/_count suffixes of their family, counters carry _total.
func sampleFamily(families map[string]*MetricFamily, sample string) (*MetricFamily, bool) {
	if f, ok := families[sample]; ok {
		return f, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suffix); ok {
			if f, ok := families[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
				return f, true
			}
		}
	}
	return nil, false
}

// parseLabels parses the {k="v",...} block starting at s (which begins
// with '{'), returning the labels and the rest of the line.
func parseLabels(s string, line int) (map[string]string, string, error) {
	labels := map[string]string{}
	s = s[1:] // consume '{'
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return nil, "", fmt.Errorf("obs: line %d: unterminated label block", line)
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("obs: line %d: label without '='", line)
		}
		name := strings.TrimSpace(s[:eq])
		if !labelNameRe.MatchString(name) {
			return nil, "", fmt.Errorf("obs: line %d: invalid label name %q", line, name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("obs: line %d: duplicate label %q", line, name)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		if s == "" || s[0] != '"' {
			return nil, "", fmt.Errorf("obs: line %d: label %q value is not quoted", line, name)
		}
		// Scan the quoted value honoring \\, \", \n escapes.
		var val strings.Builder
		i := 1
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("obs: line %d: unterminated label value for %q", line, name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("obs: line %d: dangling escape in label %q", line, name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("obs: line %d: invalid escape \\%c in label %q", line, s[i+1], name)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[name] = val.String()
		s = strings.TrimLeft(s[i:], " \t")
		if s == "" {
			return nil, "", fmt.Errorf("obs: line %d: unterminated label block", line)
		}
		if s[0] == ',' {
			s = s[1:]
			continue
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("obs: line %d: expected ',' or '}' after label %q", line, name)
	}
}

// parseSampleValue parses an exposition sample value ("+Inf", "-Inf",
// "NaN", or a Go float).
func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// ParseExposition parses Prometheus text exposition format (version
// 0.0.4): # HELP / # TYPE comments and sample lines with optional labels
// and optional timestamps. Structural errors (malformed lines, invalid
// names, TYPE redeclaration, samples not covered by any declared family)
// fail the parse; semantic invariants are checked separately by Lint.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Families: map[string]*MetricFamily{}}
	// helpPending holds HELP text seen before its TYPE line.
	helpPending := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			fields := strings.SplitN(trimmed, " ", 4)
			if len(fields) < 2 {
				continue // bare comment
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) < 4 {
					return nil, fmt.Errorf("obs: line %d: malformed TYPE line", lineNo)
				}
				name, typ := fields[2], strings.TrimSpace(fields[3])
				if !metricNameRe.MatchString(name) {
					return nil, fmt.Errorf("obs: line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := exp.Families[name]; dup {
					return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %q", lineNo, name)
				}
				f := &MetricFamily{Name: name, Type: typ, Help: helpPending[name]}
				delete(helpPending, name)
				exp.Families[name] = f
				exp.Order = append(exp.Order, name)
			case "HELP":
				if len(fields) < 3 {
					return nil, fmt.Errorf("obs: line %d: malformed HELP line", lineNo)
				}
				name := fields[2]
				help := ""
				if len(fields) == 4 {
					help = fields[3]
				}
				if f, ok := exp.Families[name]; ok {
					f.Help = help
				} else {
					helpPending[name] = help
				}
			}
			continue
		}
		// Sample line: name[{labels}] value [timestamp]
		i := strings.IndexAny(trimmed, "{ \t")
		if i < 0 {
			return nil, fmt.Errorf("obs: line %d: sample without value", lineNo)
		}
		name := trimmed[:i]
		if !metricNameRe.MatchString(name) {
			return nil, fmt.Errorf("obs: line %d: invalid sample name %q", lineNo, name)
		}
		rest := trimmed[i:]
		var lbls map[string]string
		if rest[0] == '{' {
			var err error
			lbls, rest, err = parseLabels(rest, lineNo)
			if err != nil {
				return nil, err
			}
			if len(lbls) == 0 {
				lbls = nil
			}
		}
		parts := strings.Fields(rest)
		if len(parts) < 1 || len(parts) > 2 {
			return nil, fmt.Errorf("obs: line %d: expected value [timestamp], got %q", lineNo, rest)
		}
		val, err := parseSampleValue(parts[0])
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: bad sample value %q", lineNo, parts[0])
		}
		if len(parts) == 2 {
			if _, err := strconv.ParseInt(parts[1], 10, 64); err != nil {
				return nil, fmt.Errorf("obs: line %d: bad timestamp %q", lineNo, parts[1])
			}
		}
		fam, ok := sampleFamily(exp.Families, name)
		if !ok {
			return nil, fmt.Errorf("obs: line %d: sample %q precedes its TYPE declaration", lineNo, name)
		}
		fam.Points = append(fam.Points, MetricPoint{Name: name, Labels: lbls, Value: val, Line: lineNo})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read exposition: %w", err)
	}
	return exp, nil
}

// seriesKey identifies a unique time series: sample name + sorted labels.
func seriesKey(p MetricPoint) string {
	if len(p.Labels) == 0 {
		return p.Name
	}
	keys := make([]string, 0, len(p.Labels))
	for k := range p.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(p.Name)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(p.Labels[k])
	}
	return b.String()
}

// Lint validates the semantic invariants of a parsed exposition:
// no duplicate series; counters named *_total, finite and non-negative;
// histograms with only _bucket/_sum/_count samples, le on every bucket,
// cumulative non-decreasing bucket counts, a +Inf bucket equal to _count;
// summaries with only quantile/_sum/_count samples. It returns all
// violations, not just the first.
func Lint(exp *Exposition) []error {
	var errs []error
	seen := map[string]int{}
	for _, name := range exp.Order {
		fam := exp.Families[name]
		for _, p := range fam.Points {
			key := seriesKey(p)
			if prev, dup := seen[key]; dup {
				errs = append(errs, fmt.Errorf("obs: line %d: duplicate series %q (first at line %d)", p.Line, key, prev))
				continue
			}
			seen[key] = p.Line
		}
		switch fam.Type {
		case "counter":
			if !strings.HasSuffix(fam.Name, "_total") {
				errs = append(errs, fmt.Errorf("obs: counter %q does not end in _total", fam.Name))
			}
			for _, p := range fam.Points {
				if math.IsNaN(p.Value) || p.Value < 0 {
					errs = append(errs, fmt.Errorf("obs: line %d: counter %q has invalid value %v", p.Line, p.Name, p.Value))
				}
			}
		case "histogram":
			errs = append(errs, lintHistogram(fam)...)
		case "summary":
			for _, p := range fam.Points {
				switch p.Name {
				case fam.Name + "_sum", fam.Name + "_count":
				case fam.Name:
					if _, ok := p.Labels["quantile"]; !ok {
						errs = append(errs, fmt.Errorf("obs: line %d: summary sample %q lacks quantile label", p.Line, p.Name))
					}
				default:
					errs = append(errs, fmt.Errorf("obs: line %d: sample %q not valid for summary %q", p.Line, p.Name, fam.Name))
				}
			}
		}
	}
	return errs
}

// lintHistogram checks one histogram family's bucket discipline. Buckets
// are grouped by their non-le labels so labeled histograms lint per
// series.
func lintHistogram(fam *MetricFamily) []error {
	var errs []error
	type group struct {
		buckets []MetricPoint
		count   *MetricPoint
	}
	groups := map[string]*group{}
	groupOf := func(p MetricPoint) *group {
		rest := make(map[string]string, len(p.Labels))
		for k, v := range p.Labels {
			if k != "le" {
				rest[k] = v
			}
		}
		key := seriesKey(MetricPoint{Name: fam.Name, Labels: rest})
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
		}
		return g
	}
	for i, p := range fam.Points {
		switch p.Name {
		case fam.Name + "_bucket":
			if _, ok := p.Labels["le"]; !ok {
				errs = append(errs, fmt.Errorf("obs: line %d: histogram bucket without le label", p.Line))
				continue
			}
			groupOf(p).buckets = append(groupOf(p).buckets, p)
		case fam.Name + "_sum":
			// no bucket discipline to check on _sum
		case fam.Name + "_count":
			groupOf(p).count = &fam.Points[i]
		default:
			errs = append(errs, fmt.Errorf("obs: line %d: sample %q not valid for histogram %q", p.Line, p.Name, fam.Name))
		}
	}
	for _, g := range groups {
		prev := math.Inf(-1)
		prevCount := -1.0
		sawInf := false
		for _, b := range g.buckets {
			le, err := parseSampleValue(b.Labels["le"])
			if err != nil {
				errs = append(errs, fmt.Errorf("obs: line %d: bad le %q", b.Line, b.Labels["le"]))
				continue
			}
			if le <= prev {
				errs = append(errs, fmt.Errorf("obs: line %d: histogram %q buckets not in increasing le order", b.Line, fam.Name))
			}
			prev = le
			if b.Value < prevCount {
				errs = append(errs, fmt.Errorf("obs: line %d: histogram %q bucket counts decrease", b.Line, fam.Name))
			}
			prevCount = b.Value
			if math.IsInf(le, 1) {
				sawInf = true
				if g.count != nil && b.Value != g.count.Value {
					errs = append(errs, fmt.Errorf("obs: line %d: histogram %q +Inf bucket %v != _count %v",
						b.Line, fam.Name, b.Value, g.count.Value))
				}
			}
		}
		if len(g.buckets) > 0 && !sawInf {
			errs = append(errs, fmt.Errorf("obs: histogram %q missing +Inf bucket", fam.Name))
		}
	}
	return errs
}

// LintReader parses and lints in one step, returning the parsed
// exposition for content assertions, as the tests do against a live
// /metrics scrape and a run's rendered telemetry.
func LintReader(r io.Reader) (*Exposition, error) {
	exp, err := ParseExposition(r)
	if err != nil {
		return nil, err
	}
	if errs := Lint(exp); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("obs: exposition lint: %s", strings.Join(msgs, "; "))
	}
	return exp, nil
}
